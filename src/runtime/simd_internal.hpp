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
void scalar_best_gain_row(const double* row, std::size_t n, double user,
                          double* best, double* owner, double* lowest);
bool scalar_log2_buckets(const double* gain, std::size_t n,
                         double inv_quantum, std::int64_t* bucket);

/// The box-QP sweep's lane count and the one order its lanes combine in.
inline constexpr std::size_t kSweepLanes = 4;
inline double combine_lanes(const double (&lane)[kSweepLanes]) {
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
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
