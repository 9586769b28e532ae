// Semidefinite programming via ADMM (conic splitting), plus the Shor
// relaxation that turns a QCQP into an SDP -- the "numerous SDP solvers"
// role SDPT3 plays in the paper's M-GNU-O platform (Sec. IV-C, Eq. 10).
//
// Problem form (all matrices n x n symmetric):
//   minimize   <C, X>
//   subject to <Aeq_i, X>  =  beq_i,   i = 1..m_eq
//              <Ain_j, X>  <= bin_j,   j = 1..m_in
//              X is symmetric PSD.
#pragma once

#include <string>
#include <vector>

#include "rcr/numerics/decompositions.hpp"
#include "rcr/numerics/eigen.hpp"
#include "rcr/opt/quadratic.hpp"
#include "rcr/opt/warm.hpp"
#include "rcr/robust/budget.hpp"
#include "rcr/robust/status.hpp"

namespace rcr::opt {

/// SDP problem data.
struct Sdp {
  Matrix c;
  std::vector<Matrix> a_eq;
  Vec b_eq;
  std::vector<Matrix> a_in;
  Vec b_in;

  std::size_t dim() const { return c.rows(); }
  void validate() const;  ///< Throws std::invalid_argument on inconsistency.
};

/// ADMM options.
struct SdpOptions {
  double rho = 1.0;         ///< Augmented-Lagrangian penalty.
  double tolerance = 1e-6;  ///< Primal & dual residual threshold.
  std::size_t max_iterations = 8000;
  /// Wall-clock budget; unlimited by default.  On expiry the solver returns
  /// its best PSD-projected iterate with status kDeadlineExpired.
  robust::Budget budget;
  /// Recovery ladder for a degenerate (rank-deficient) constraint system:
  /// escalating diagonal ridge on the Schur complement.  0 disables, in which
  /// case a singular KKT system yields status kSingular immediately.
  std::size_t max_kkt_retries = 4;
};

/// Iteration-persistent buffers for solve_sdp.  Reusing one workspace across
/// repeated solves removes every steady-state heap allocation except the
/// result matrix and the (once-per-solve) factorization copies.  A workspace
/// carries the warm-start eigenbasis between solves; call reset() when
/// switching to an unrelated problem (stale bases are still correct -- any
/// orthonormal frame is -- they just cost extra Jacobi sweeps).
struct SdpWorkspace {
  num::PsdProjectWorkspace projection;
  num::LuDecomposition gram_lu;  ///< Schur-complement factor.
  Matrix mrows;                  ///< m x dim_y affine rows.
  Matrix gram;                   ///< m x m Schur complement.
  Matrix xw, xp;                 ///< PSD-projection staging.
  Vec cvec, d, z, u, y, rhs, w, z_next;
  Vec t_small, lambda_small, mty;  ///< Schur-solve staging.
  void reset() { projection.reset(); }
};

/// Primal/dual splitting state carried between solve_sdp calls (warm.hpp
/// documents the acceptance/rejection/writeback contract).  Both vectors
/// live in the stacked [vec(X); slacks] coordinates of length
/// dim()^2 + m_in: `z` is the projected (PSD x nonnegative) iterate, `u`
/// the scaled dual.  Empty means cold start.
struct SdpWarmState {
  Vec z;  ///< Projected splitting iterate.
  Vec u;  ///< Scaled dual iterate.

  bool empty() const { return z.empty() && u.empty(); }
  void clear() {
    z.clear();
    u.clear();
  }
};

/// Solver outcome.
struct SdpResult {
  Matrix x;
  double objective = 0.0;
  double primal_residual = 0.0;  ///< Constraint + cone violation at exit.
  std::size_t iterations = 0;
  bool converged = false;
  /// Runtime disposition: kOk on convergence, kNonConverged on iteration
  /// exhaustion, kDegraded when the KKT ridge ladder had to fire (trail
  /// records each rung), kSingular when it was exhausted,
  /// kNumericalFailure on a caught NaN/Inf iterate (last clean iterate
  /// returned), kDeadlineExpired on budget expiry.
  robust::Status status;
  /// Disposition of the warm state handed to this solve (kCold when none).
  WarmUse warm_use = WarmUse::kCold;
};

/// Solve the SDP via ADMM: an affine proximal step alternating with
/// projection onto PSD-cone x nonnegative-slack.  The affine step's KKT
/// system [rho*I, M^T; M, 0] is an arrow, so it is reduced to the m x m
/// Schur complement M M^T / rho (factored once per solve); each projection
/// is warm-started from the previous iterate's eigenbasis.
SdpResult solve_sdp(const Sdp& problem, const SdpOptions& options = {});

/// Workspace-reusing overload: repeated solves through the same workspace
/// allocate only the result matrix and the per-solve factorization.
SdpResult solve_sdp(const Sdp& problem, const SdpOptions& options,
                    SdpWorkspace& ws);

/// Warm-started solve: when `warm` is non-null and holds a valid state
/// (dim()^2 + m_in entries each, all finite), the splitting starts from the
/// supplied (z, u) instead of zeros, and the final state is written back on
/// a clean exit (cleared on kNumericalFailure / kSingular).  A null or
/// empty `warm` is exactly the cold path; an invalid state is rejected with
/// a status-trail note and the solve runs cold (bit-identical to no warm
/// state).  result.warm_use reports the disposition.
SdpResult solve_sdp(const Sdp& problem, const SdpOptions& options,
                    SdpWorkspace& ws, SdpWarmState* warm);

/// Shor semidefinite relaxation of a QCQP: lift to
/// X = [1, x^T; x, x x^T] >= 0, drop the rank-1 constraint.  Objective and
/// constraints become linear in X; the equality X_00 = 1 pins the corner.
/// Equality constraints a_k^T x = b_k are embedded as linear rows of X.
Sdp shor_relaxation(const Qcqp& problem);

/// Lower bound on the QCQP optimum from its Shor relaxation (tight for
/// convex problems -- the E5 measurement; a strict lower bound otherwise).
struct ShorBound {
  double bound = 0.0;
  Vec x_extracted;              ///< Candidate solution X[1:,0] / X[0,0].
  double extraction_value = 0.0;  ///< f0(x_extracted).
  std::size_t iterations = 0;   ///< Inner SDP iterations consumed.
  bool converged = false;
  robust::Status status;        ///< Inner SDP disposition (see SdpResult).
};
ShorBound shor_lower_bound(const Qcqp& problem, const SdpOptions& options = {});

}  // namespace rcr::opt
