// Internal linkage surface between the per-ISA kernel translation units and
// the dispatcher.  The scalar implementations are exported individually (not
// just as a table) so the vector TUs can fall back per-kernel: a path only
// overrides the entries it actually accelerates.
//
// Every kernel TU in src/runtime is compiled with -ffp-contract=off so a
// global -mfma build cannot contract the scalar reference loops (or vector
// tails) into FMA and silently break the bit-exactness contract between
// paths.
#pragma once

#include <bit>
#include <complex>
#include <cstddef>
#include <cstdint>

#include "rcr/rt/simd.hpp"

namespace rcr::rt::simd::detail {

void scalar_add(const double* a, const double* b, double* out, std::size_t n);
void scalar_sub(const double* a, const double* b, double* out, std::size_t n);
void scalar_mul(const double* a, const double* b, double* out, std::size_t n);
void scalar_scale(const double* a, double s, double* out, std::size_t n);
void scalar_axpy(double s, const double* x, double* y, std::size_t n);
void scalar_rotate_pair(double* x, double* y, double c, double s,
                        std::size_t n);
double scalar_dot_seq(double init, const double* a, const double* b,
                      std::size_t n);
double scalar_absdot_seq(double init, const double* a, const double* b,
                         std::size_t n);
double scalar_choose_dot_seq(double init, const double* w, const double* pos,
                             const double* neg, std::size_t n);
double scalar_masked_dot_seq(double init, const double* w, const double* a,
                             std::size_t n, bool nonneg);
void scalar_choose_mul(const double* w, const double* pos, const double* neg,
                       double* out, std::size_t n);
void scalar_butterfly(std::complex<double>* lo, std::complex<double>* hi,
                      const std::complex<double>* tw, std::size_t n);
SweepSums scalar_boxqp_x(double rho, const double* z, const double* u,
                         const double* q, const double* inv_d, double* x,
                         const double* primal_terms, const double* dual_terms,
                         std::size_t n);
void scalar_boxqp_zu(double gamma, const double* inv_d, const double* x,
                     const double* lo, const double* hi, const double* z,
                     double* u, double* z_out, double* primal_terms,
                     double* dual_terms, std::size_t n);
bool scalar_best_gain_scan(const double* gain, std::size_t users,
                           std::size_t n, std::size_t* owner, double* best);
double scalar_power_qp_coeffs(const double* gain, std::size_t n, double p0,
                              double* curv, double* slope);
double scalar_dpr1_inverse(const double* p_diag, double c, double rho,
                           double ridge, double* d, double* inv_d,
                           std::size_t n);
double scalar_box_start(const double* lo, const double* hi, const double* z0,
                        const double* q, double* z, std::size_t n);
ObjectiveSums scalar_box_objective(const double* p_diag, double c,
                                   const double* q, const double* z,
                                   std::size_t n);
double scalar_scaled_rate(double scale, double* power, const double* gain,
                          std::size_t n);

/// The best-gain scan of columns [i0, i1) of a users x stride row-major
/// gain matrix (Kernels::best_gain_scan's reference; the vector paths'
/// tail).  Returns true when some scanned gain is < 0.
bool best_gain_columns(const double* gain, std::size_t users,
                       std::size_t stride, std::size_t i0, std::size_t i1,
                       std::size_t* owner, double* best);
bool scalar_log2_buckets(const double* gain, std::size_t n,
                         double inv_quantum, std::int64_t* bucket);

/// The box-QP sweep's lane count and the one order its lanes combine in.
inline constexpr std::size_t kSweepLanes = 4;
inline double combine_lanes(const double (&lane)[kSweepLanes]) {
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

/// The sweep's lane order for a kernel's n terms: lane j adds term(i) for
/// i = j mod 4 below the last multiple of 4, ascending from 0.0, the lanes
/// combine as (l0 + l1) + (l2 + l3), and the tail terms then add in
/// ascending order.  The scalar references sum through this.
template <typename Term>
double lane_sum(std::size_t n, Term term) {
  double lane[kSweepLanes] = {};
  std::size_t i = 0;
  for (; i + kSweepLanes <= n; i += kSweepLanes)
    for (std::size_t j = 0; j < kSweepLanes; ++j) lane[j] += term(i + j);
  double sum = combine_lanes(lane);
  for (; i < n; ++i) sum += term(i);
  return sum;
}

/// log2_bucket's centre table: log2 c_j and 1 / c_j for the 256 centres.
inline constexpr int kLog2TableBits = 8;
inline constexpr std::size_t kLog2TableSize = std::size_t{1} << kLog2TableBits;
extern const double* const kLog2Centre;
extern const double* const kLog2InvCentre;
/// log2_bucket's series coefficients and fixed-point constants.
inline constexpr double kLog2C1 = 1.4426950408889634074;  // 1 / ln 2
inline constexpr double kLog2C2 = -kLog2C1 / 2.0;
inline constexpr double kLog2C3 = kLog2C1 / 3.0;
/// rate_log2's two further series coefficients, C_k = (-1)^(k+1) / (k ln 2),
/// and its tables over the 257 centres c_j = 1 + j / 256: log2 c_j and
/// 1 / c_j.  kLog2C1 = 1 / ln 2 is also the Taylor coefficients' constant.
inline constexpr double kLog2C4 = -kLog2C1 / 4.0;
inline constexpr double kLog2C5 = kLog2C1 / 5.0;
inline constexpr int kRateTableBits = 8;
inline constexpr std::size_t kRateTableSize =
    (std::size_t{1} << kRateTableBits) + 1;
extern const double* const kRateLog2Centre;
extern const double* const kRateInvCentre;
inline constexpr double kLog2FixedMagic = 0x1.8p28;
inline constexpr int kLog2FracBits = 24;
inline constexpr std::uint64_t kLog2FracMask =
    (std::uint64_t{1} << kLog2FracBits) - 1;
inline constexpr std::uint64_t kLog2FixedHalf = std::uint64_t{1} << 23;
/// The grid value's integer part for a zero quotient.
inline constexpr std::int64_t kLog2FixedOffset = static_cast<std::int64_t>(
    std::bit_cast<std::uint64_t>(kLog2FixedMagic) >> kLog2FracBits);

extern const Kernels kScalarTable;
#if RCR_SIMD_HAVE_AVX2
extern const Kernels kAvx2Table;
#endif
#if RCR_SIMD_HAVE_NEON
extern const Kernels kNeonTable;
#endif

}  // namespace rcr::rt::simd::detail
