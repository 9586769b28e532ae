#include "rcr/numerics/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "rcr/rt/simd.hpp"

namespace rcr::num {

namespace simd = rcr::rt::simd;

Matrix EigenDecomposition::reconstruct(const Vec& mapped) const {
  if (mapped.size() != eigenvalues.size())
    throw std::invalid_argument("EigenDecomposition::reconstruct: size mismatch");
  const std::size_t n = mapped.size();
  Matrix out(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    if (mapped[k] == 0.0) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const double vik = eigenvectors(i, k);
      if (vik == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j)
        out(i, j) += mapped[k] * vik * eigenvectors(j, k);
    }
  }
  return out;
}

namespace {

// Cyclic Jacobi sweeps on m, accumulating rotations into vt, whose row k is
// the k-th eigenvector (transposed layout so the rotation touches two
// contiguous rows).  The per-rotation update order matches the original
// solver exactly -- strided column update, then the two m rows, then the two
// vt rows -- and rotate_pair is lane-independent, so the result is
// bit-identical to the pre-SIMD loop on every path.  Sweeps stop once
// sqrt(sum of squared off-diagonals) falls to 1e-14 * scale * n.
void jacobi_sweeps(Matrix& m, Matrix& vt, double scale, int max_sweeps) {
  constexpr double kOffTolerance = 1e-14;
  const std::size_t n = m.rows();
  const simd::Kernels& K = simd::active();
  double* pm = m.data().data();
  double* pv = vt.data().data();
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) off += m(i, j) * m(i, j);
    if (std::sqrt(off) <= kOffTolerance * scale * static_cast<double>(n))
      break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::abs(apq) <= 1e-300) continue;
        const double theta = (m(q, q) - m(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        K.rotate_pair(pm + p * n, pm + q * n, c, s, n);
        K.rotate_pair(pv + p * n, pv + q * n, c, s, n);
      }
    }
  }
}

void sort_spectrum(const Matrix& m, Vec& lambda,
                   std::vector<std::size_t>& order) {
  const std::size_t n = m.rows();
  lambda.resize(n);
  for (std::size_t i = 0; i < n; ++i) lambda[i] = m(i, i);
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return lambda[x] < lambda[y]; });
}

void identity_into(Matrix& m, std::size_t n) {
  m.assign(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
}

// out = V diag(max(lambda, floor)) V^T accumulated from vt rows in
// ascending-eigenvalue order -- the same skips and accumulation order as
// EigenDecomposition::reconstruct, so identical bits.
void reconstruct_from_vt(const Matrix& vt, const Vec& lambda,
                         const std::vector<std::size_t>& order,
                         double floor_value, Matrix& out) {
  const std::size_t n = vt.rows();
  const simd::Kernels& K = simd::active();
  out.assign(n, n, 0.0);
  const double* pv = vt.data().data();
  double* po = out.data().data();
  for (std::size_t k = 0; k < n; ++k) {
    const double lam = std::max(lambda[order[k]], floor_value);
    if (lam == 0.0) continue;
    const double* vrow = pv + order[k] * n;
    for (std::size_t i = 0; i < n; ++i) {
      const double vik = vrow[i];
      if (vik == 0.0) continue;
      K.axpy(lam * vik, vrow, po + i * n, n);
    }
  }
}

}  // namespace

void eigen_sym_into(const Matrix& a, EigenWorkspace& ws,
                    EigenDecomposition& out, int max_sweeps) {
  if (!a.square()) throw std::invalid_argument("eigen_symmetric: not square");
  const double scale = 1.0 + a.max_abs();
  if (!a.is_symmetric(1e-8 * scale))
    throw std::invalid_argument("eigen_symmetric: matrix not symmetric");

  const std::size_t n = a.rows();
  ws.m = a;
  ws.m.symmetrize();
  identity_into(ws.vt, n);
  jacobi_sweeps(ws.m, ws.vt, scale, max_sweeps);
  sort_spectrum(ws.m, ws.lambda, ws.order);

  out.eigenvalues.resize(n);
  out.eigenvectors.assign(n, n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    out.eigenvalues[k] = ws.lambda[ws.order[k]];
    for (std::size_t i = 0; i < n; ++i)
      out.eigenvectors(i, k) = ws.vt(ws.order[k], i);
  }
}

EigenDecomposition eigen_symmetric(const Matrix& a, int max_sweeps) {
  EigenWorkspace ws;
  EigenDecomposition out;
  eigen_sym_into(a, ws, out, max_sweeps);
  return out;
}

void project_psd_into(const Matrix& a, PsdProjectWorkspace& ws, Matrix& out,
                      const PsdProjectOptions& opts) {
  constexpr int kProjectSweeps = 64;
  const std::size_t n = a.rows();
  const bool warm = opts.warm_start && ws.has_basis && ws.basis.rows() == n;
  if (!warm) {
    // Cold path: replicate project_psd's original sequence exactly --
    // symmetrize, scale off the symmetrized matrix, symmetrize again inside
    // the eigensolver -- so default-configured calls are bit-identical to
    // the allocating implementation.
    ws.m = a;
    ws.m.symmetrize();
    const double scale = 1.0 + ws.m.max_abs();
    ws.m.symmetrize();
    identity_into(ws.vt, n);
    jacobi_sweeps(ws.m, ws.vt, scale, kProjectSweeps);
  } else {
    // Warm path: rotate A into the previous eigenbasis W (rows of basis).
    // S = W A W^T is near-diagonal when A moved little since the last call
    // (the ADMM iterate case), so the sweep does far fewer rotations.
    // Seeding vt = W makes the accumulated rotations land back in the
    // original frame: the final vt rows are eigenvectors of A itself.  Any
    // orthonormal W is valid, so a frame from a different problem only
    // costs sweeps, never correctness.
    ws.t1 = a;
    ws.t1.symmetrize();
    multiply_into(ws.basis, ws.t1, ws.t2);
    multiply_abt_into(ws.t2, ws.basis, ws.m);
    const double scale = 1.0 + ws.m.max_abs();
    ws.vt = ws.basis;
    jacobi_sweeps(ws.m, ws.vt, scale, kProjectSweeps);
  }
  sort_spectrum(ws.m, ws.lambda, ws.order);
  reconstruct_from_vt(ws.vt, ws.lambda, ws.order, 0.0, out);
  if (opts.warm_start) {
    std::swap(ws.basis, ws.vt);
    ws.has_basis = true;
    // The swap hands vt whatever buffer basis held before -- empty on the
    // cold bootstrap.  Pre-size it and the warm path's scratch here so a
    // single call fully warms the workspace: the next (first warm) call is
    // already allocation-free.
    if (ws.vt.rows() != n || ws.vt.cols() != n) ws.vt.assign(n, n);
    if (ws.t1.rows() != n || ws.t1.cols() != n) ws.t1.assign(n, n);
    if (ws.t2.rows() != n || ws.t2.cols() != n) ws.t2.assign(n, n);
  }
}

Matrix project_psd(const Matrix& a) {
  PsdProjectWorkspace ws;
  Matrix out;
  project_psd_into(a, ws, out);
  return out;
}

Matrix project_psd_floor(const Matrix& a, double eps) {
  Matrix sym = a;
  sym.symmetrize();
  EigenDecomposition e = eigen_symmetric(sym);
  Vec clamped = e.eigenvalues;
  for (double& l : clamped) l = std::max(l, eps);
  return e.reconstruct(clamped);
}

std::size_t symmetric_rank(const Matrix& a, double tol) {
  const EigenDecomposition e = eigen_symmetric(a);
  double max_abs = 0.0;
  for (double l : e.eigenvalues) max_abs = std::max(max_abs, std::abs(l));
  if (max_abs == 0.0) return 0;
  std::size_t r = 0;
  for (double l : e.eigenvalues)
    if (std::abs(l) > tol * max_abs) ++r;
  return r;
}

double max_eigenvalue(const Matrix& a) {
  const EigenDecomposition e = eigen_symmetric(a);
  return e.eigenvalues.back();
}

double min_eigenvalue(const Matrix& a) {
  const EigenDecomposition e = eigen_symmetric(a);
  return e.eigenvalues.front();
}

double spectral_norm(const Matrix& a) {
  const Matrix ata = multiply_at_b(a, a);
  return std::sqrt(std::max(0.0, max_eigenvalue(ata)));
}

}  // namespace rcr::num
