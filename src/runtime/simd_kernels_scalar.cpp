// Scalar reference kernels.  These define the bit-level contract every
// vector path is tested against; the loops mirror the pre-SIMD call-site
// code exactly (same operation order, same skip conditions).  Compiled with
// -ffp-contract=off (see CMakeLists) so an -mfma build cannot change the
// reference roundings.
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

const Kernels kScalarTable = {
    scalar_add,        scalar_sub,
    scalar_mul,        scalar_scale,
    scalar_axpy,       scalar_rotate_pair,
    scalar_dot_seq,    scalar_absdot_seq,
    scalar_choose_dot_seq, scalar_masked_dot_seq,
    scalar_choose_mul, scalar_butterfly,
};

}  // namespace rcr::rt::simd::detail
