// Scalar reference kernels.  These define the bit-level contract every
// vector path is tested against; the loops mirror the pre-SIMD call-site
// code exactly (same operation order, same skip conditions).  Compiled with
// -ffp-contract=off (see CMakeLists) so an -mfma build cannot change the
// reference roundings.
#include <algorithm>
#include <cmath>

#include "simd_internal.hpp"

namespace rcr::rt::simd::detail {

void scalar_add(const double* a, const double* b, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void scalar_sub(const double* a, const double* b, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void scalar_mul(const double* a, const double* b, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void scalar_scale(const double* a, double s, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void scalar_axpy(double s, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += s * x[i];
}

void scalar_rotate_pair(double* x, double* y, double c, double s,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

double scalar_dot_seq(double init, const double* a, const double* b,
                      std::size_t n) {
  double acc = init;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double scalar_absdot_seq(double init, const double* a, const double* b,
                         std::size_t n) {
  double acc = init;
  for (std::size_t i = 0; i < n; ++i) acc += std::abs(a[i]) * b[i];
  return acc;
}

double scalar_choose_dot_seq(double init, const double* w, const double* pos,
                             const double* neg, std::size_t n) {
  double acc = init;
  for (std::size_t i = 0; i < n; ++i)
    acc += w[i] * (w[i] >= 0.0 ? pos[i] : neg[i]);
  return acc;
}

double scalar_masked_dot_seq(double init, const double* w, const double* a,
                             std::size_t n, bool nonneg) {
  double acc = init;
  for (std::size_t i = 0; i < n; ++i)
    if ((w[i] >= 0.0) == nonneg) acc += w[i] * a[i];
  return acc;
}

void scalar_choose_mul(const double* w, const double* pos, const double* neg,
                       double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = w[i] * (w[i] >= 0.0 ? pos[i] : neg[i]);
}

void scalar_butterfly(std::complex<double>* lo, std::complex<double>* hi,
                      const std::complex<double>* tw, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::complex<double> u = lo[k];
    const std::complex<double> v = hi[k] * tw[k];
    lo[k] = u + v;
    hi[k] = u - v;
  }
}

double scalar_boxqp_x_seq(double rho, const double* z, const double* u,
                          const double* q, const double* d, double* x,
                          std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = (rho * (z[i] - u[i]) - q[i]) / d[i];
    sum += x[i];
  }
  return sum;
}

ResidualSums scalar_boxqp_zu_seq(double gamma, const double* d,
                                 const double* x, const double* lo,
                                 const double* hi, const double* z, double* u,
                                 double* z_out, std::size_t n) {
  ResidualSums sums;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i] - gamma / d[i];
    const double zi = std::clamp(xi + u[i], lo[i], hi[i]);
    const double pd = xi - zi;
    u[i] += pd;
    z_out[i] = zi;
    sums.primal2 += pd * pd;
    const double dd = zi - z[i];
    sums.dual2 += dd * dd;
  }
  return sums;
}

const Kernels kScalarTable = {
    scalar_add,        scalar_sub,
    scalar_mul,        scalar_scale,
    scalar_axpy,       scalar_rotate_pair,
    scalar_dot_seq,    scalar_absdot_seq,
    scalar_choose_dot_seq, scalar_masked_dot_seq,
    scalar_choose_mul, scalar_butterfly,
    scalar_boxqp_x_seq, scalar_boxqp_zu_seq,
};

}  // namespace rcr::rt::simd::detail
