// NEON kernels (aarch64).  float64x2 is baseline on aarch64, so no runtime
// feature check is needed.  Only the highest-traffic kernels are overridden;
// the rest of the table falls back to the scalar reference per-kernel.
// Same rules as the AVX2 TU: explicit mul+add (no vfma), -ffp-contract=off,
// *_seq reductions spill lanes and add in scalar program order.
#include "simd_internal.hpp"

#if RCR_SIMD_HAVE_NEON

#include <arm_neon.h>

namespace rcr::rt::simd::detail {
namespace {

void neon_add(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(out + i, vaddq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void neon_sub(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(out + i, vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void neon_mul(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(out + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void neon_scale(const double* a, double s, double* out, std::size_t n) {
  const float64x2_t vs = vdupq_n_f64(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(out + i, vmulq_f64(vld1q_f64(a + i), vs));
  for (; i < n; ++i) out[i] = a[i] * s;
}

void neon_axpy(double s, const double* x, double* y, std::size_t n) {
  const float64x2_t vs = vdupq_n_f64(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t p = vmulq_f64(vs, vld1q_f64(x + i));
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), p));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

void neon_rotate_pair(double* x, double* y, double c, double s,
                      std::size_t n) {
  const float64x2_t vc = vdupq_n_f64(c);
  const float64x2_t vs = vdupq_n_f64(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t xi = vld1q_f64(x + i);
    const float64x2_t yi = vld1q_f64(y + i);
    vst1q_f64(x + i, vsubq_f64(vmulq_f64(vc, xi), vmulq_f64(vs, yi)));
    vst1q_f64(y + i, vaddq_f64(vmulq_f64(vs, xi), vmulq_f64(vc, yi)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

double neon_dot_seq(double init, const double* a, const double* b,
                    std::size_t n) {
  double acc = init;
  double tmp[2];
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(tmp, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    acc += tmp[0];
    acc += tmp[1];
  }
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace

const Kernels kNeonTable = {
    neon_add,          neon_sub,
    neon_mul,          neon_scale,
    neon_axpy,         neon_rotate_pair,
    neon_dot_seq,      scalar_absdot_seq,
    scalar_choose_dot_seq, scalar_masked_dot_seq,
    scalar_choose_mul, scalar_butterfly,
    scalar_boxqp_x,    scalar_boxqp_zu,
    scalar_best_gain_row, scalar_log2_buckets,
};

}  // namespace rcr::rt::simd::detail

#endif  // RCR_SIMD_HAVE_NEON
