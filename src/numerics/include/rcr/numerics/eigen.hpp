// Symmetric eigenvalue machinery: cyclic Jacobi rotations, spectral
// projections onto the PSD cone, and rank estimation.  These are the
// workhorses behind the SDP/TMP solvers of Sec. IV-C of the paper.
//
// The `_into` workspace variants write the same bits the allocating
// counterparts return (DESIGN.md Sec. 7), so iterative callers -- the ADMM
// SDP projection above all -- can run allocation-free once warm without
// changing results.  Bits change only through the explicit
// PsdProjectOptions::warm_start opt-in (warm-started eigenbasis).
#pragma once

#include <cstddef>
#include <vector>

#include "rcr/numerics/matrix.hpp"

namespace rcr::num {

/// Spectral decomposition A = V diag(lambda) V^T of a symmetric matrix.
struct EigenDecomposition {
  Vec eigenvalues;   ///< Ascending order.
  Matrix eigenvectors;  ///< Column j is the eigenvector for eigenvalues[j].

  /// Reconstruct V diag(f(lambda)) V^T for an arbitrary spectral map.
  Matrix reconstruct(const Vec& mapped_eigenvalues) const;
};

/// Cyclic Jacobi eigensolver for symmetric matrices.
/// Throws std::invalid_argument when A is not square or not symmetric
/// (tolerance 1e-8 relative to the largest entry).
EigenDecomposition eigen_symmetric(const Matrix& a, int max_sweeps = 64);

/// Reusable buffers for eigen_sym_into / project_psd_into.  Sized lazily on
/// first use; repeat calls at the same dimension allocate nothing.
struct EigenWorkspace {
  Matrix m;    ///< Working copy, diagonalized in place.
  Matrix vt;   ///< Accumulated rotations; row k is the k-th eigenvector.
  Vec lambda;  ///< Unsorted diagonal.
  std::vector<std::size_t> order;  ///< Ascending-eigenvalue permutation.
};

/// Workspace variant of eigen_symmetric: writes the same bits into `out`
/// that eigen_symmetric returns, reusing `ws` and `out` storage when warm.
void eigen_sym_into(const Matrix& a, EigenWorkspace& ws,
                    EigenDecomposition& out, int max_sweeps = 64);

/// Options for project_psd_into.  The default reproduces project_psd
/// bit-for-bit.
struct PsdProjectOptions {
  /// Reuse the previous call's eigenbasis: rotate the input into that frame
  /// (where it is near-diagonal when consecutive inputs are close, as in
  /// ADMM) before sweeping.  Changes rounding, not the projection contract.
  bool warm_start = false;
};

/// State carried between project_psd_into calls.
struct PsdProjectWorkspace {
  Matrix m;      ///< Working copy, diagonalized in place.
  Matrix vt;     ///< Accumulated rotations (rows are eigenvectors).
  Matrix basis;  ///< Previous eigenbasis for warm_start (rows).
  Matrix t1, t2;  ///< Warm-start similarity-transform temporaries.
  Vec lambda;
  std::vector<std::size_t> order;
  bool has_basis = false;  ///< basis holds a valid frame from a prior call.

  /// Drop the warm-start frame (e.g. when switching problems mid-workspace;
  /// correctness never requires this -- any orthonormal frame is a valid
  /// starting basis -- but a stale frame wastes sweeps).
  void reset() { has_basis = false; }
};

/// Workspace variant of project_psd.  With default options the output is
/// bit-identical to project_psd; warm_start trades bit reproducibility for
/// fewer sweeps (the ADMM SDP projection).
void project_psd_into(const Matrix& a, PsdProjectWorkspace& ws, Matrix& out,
                      const PsdProjectOptions& opts = {});

/// Euclidean projection of symmetric A onto the PSD cone:
/// clamp negative eigenvalues to zero.
Matrix project_psd(const Matrix& a);

/// Projection onto {X : X >= eps*I} (used to keep barriers strictly feasible).
Matrix project_psd_floor(const Matrix& a, double eps);

/// Number of eigenvalues with |lambda| > tol * max|lambda| (numerical rank of
/// a symmetric matrix).
std::size_t symmetric_rank(const Matrix& a, double tol = 1e-8);

/// Largest eigenvalue via the symmetric eigendecomposition.
double max_eigenvalue(const Matrix& a);

/// Smallest eigenvalue via the symmetric eigendecomposition.
double min_eigenvalue(const Matrix& a);

/// Spectral norm of an arbitrary matrix: sqrt(lambda_max(A^T A)).
double spectral_norm(const Matrix& a);

}  // namespace rcr::num
