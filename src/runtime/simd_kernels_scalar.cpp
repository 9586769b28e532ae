// Scalar reference kernels.  These define the bit-level contract every
// vector path is tested against; the loops mirror the pre-SIMD call-site
// code exactly (same operation order, same skip conditions).  Compiled with
// -ffp-contract=off (see CMakeLists) so an -mfma build cannot change the
// reference roundings.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

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

// gcc vectorizes this complex product into vfmaddsub under a global -mfma,
// -ffp-contract=off notwithstanding; unvectorized, it rounds each product
// and sum as the vector paths do.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
void scalar_butterfly(std::complex<double>* lo, std::complex<double>* hi,
                      const std::complex<double>* tw, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::complex<double> u = lo[k];
    const std::complex<double> v = hi[k] * tw[k];
    lo[k] = u + v;
    hi[k] = u - v;
  }
}

SweepSums scalar_boxqp_x(double rho, const double* z, const double* u,
                         const double* q, const double* inv_d, double* x,
                         const double* primal_terms, const double* dual_terms,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    x[i] = (rho * (z[i] - u[i]) - q[i]) * inv_d[i];
  // Lane j of each sum takes the indices i = j mod 4 below the tail.  The
  // sums run as a second loop: fused with the x loop, gcc's vectorizer
  // shuffles the lanes across registers and the pass ran slower than with
  // one ascending chain.
  double sx[kSweepLanes] = {};
  double sp[kSweepLanes] = {};
  double sd[kSweepLanes] = {};
  std::size_t i = 0;
  for (; i + kSweepLanes <= n; i += kSweepLanes)
    for (std::size_t j = 0; j < kSweepLanes; ++j) {
      sx[j] += x[i + j];
      sp[j] += primal_terms[i + j];
      sd[j] += dual_terms[i + j];
    }
  SweepSums sums{combine_lanes(sx), combine_lanes(sp), combine_lanes(sd)};
  for (; i < n; ++i) {
    sums.x += x[i];
    sums.primal2 += primal_terms[i];
    sums.dual2 += dual_terms[i];
  }
  return sums;
}

void scalar_boxqp_zu(double gamma, const double* inv_d, const double* x,
                     const double* lo, const double* hi, const double* z,
                     double* u, double* z_out, double* primal_terms,
                     double* dual_terms, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i] - gamma * inv_d[i];
    const double zi = std::clamp(xi + u[i], lo[i], hi[i]);
    const double pd = xi - zi;
    u[i] += pd;
    z_out[i] = zi;
    primal_terms[i] = pd * pd;
    const double dd = zi - z[i];
    dual_terms[i] = dd * dd;
  }
}

namespace {

struct Log2Centres {
  std::array<double, kLog2TableSize> log2_c;
  std::array<double, kLog2TableSize> inv_c;
};

Log2Centres make_log2_centres() {
  Log2Centres t;
  for (std::size_t j = 0; j < kLog2TableSize; ++j) {
    const double c = 1.0 + (static_cast<double>(j) + 0.5) /
                               static_cast<double>(kLog2TableSize);
    t.log2_c[j] = std::log2(c);
    t.inv_c[j] = 1.0 / c;
  }
  return t;
}

const Log2Centres kCentres = make_log2_centres();

struct RateCentres {
  std::array<double, kRateTableSize> log2_c;
  std::array<double, kRateTableSize> inv_c;
};

RateCentres make_rate_centres() {
  RateCentres t;
  for (std::size_t j = 0; j < kRateTableSize; ++j) {
    const double c = 1.0 + static_cast<double>(j) * 0x1p-8;
    t.log2_c[j] = std::log2(c);
    t.inv_c[j] = 1.0 / c;
  }
  return t;
}

const RateCentres kRateCentres = make_rate_centres();

}  // namespace

const double* const kLog2Centre = kCentres.log2_c.data();
const double* const kLog2InvCentre = kCentres.inv_c.data();
const double* const kRateLog2Centre = kRateCentres.log2_c.data();
const double* const kRateInvCentre = kRateCentres.inv_c.data();

bool best_gain_columns(const double* gain, std::size_t users,
                       std::size_t stride, std::size_t i0, std::size_t i1,
                       std::size_t* owner, double* best) {
  bool negative = false;
  for (std::size_t i = i0; i < i1; ++i) {
    best[i] = gain[i];
    owner[i] = 0;
    negative |= gain[i] < 0.0;
  }
  for (std::size_t u = 1; u < users; ++u) {
    const double* row = gain + u * stride;
    for (std::size_t i = i0; i < i1; ++i) {
      const double v = row[i];
      if (v > best[i]) {
        best[i] = v;
        owner[i] = u;
      }
      negative |= v < 0.0;
    }
  }
  return negative;
}

bool scalar_best_gain_scan(const double* gain, std::size_t users,
                           std::size_t n, std::size_t* owner, double* best) {
  return best_gain_columns(gain, users, n, 0, n, owner, best);
}

double scalar_power_qp_coeffs(const double* gain, std::size_t n, double p0,
                              double* curv, double* slope) {
  double max_curv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double g = gain[i];
    const double denom = 1.0 + g * p0;
    curv[i] = g * g * kLog2C1 / (denom * denom);
    slope[i] = -g * kLog2C1 / denom;
    if (curv[i] > max_curv) max_curv = curv[i];
  }
  return max_curv;
}

double scalar_dpr1_inverse(const double* p_diag, double c, double rho,
                           double ridge, double* d, double* inv_d,
                           std::size_t n) {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = p_diag[i] - c + rho + ridge;
    ok &= d[i] > 0.0 && d[i] < std::numeric_limits<double>::infinity();
    inv_d[i] = 1.0 / d[i];
  }
  const double sum = lane_sum(n, [&](std::size_t i) { return inv_d[i]; });
  return ok ? sum : std::numeric_limits<double>::quiet_NaN();
}

double scalar_box_start(const double* lo, const double* hi, const double* z0,
                        const double* q, double* z, std::size_t n) {
  bool ok = true;
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ok &= !(lo[i] > hi[i]);
    // std::clamp's result, written so an inverted box (rejected by the
    // return value) never reaches std::clamp's precondition.
    const double v = z0 != nullptr ? z0[i] : 0.0;
    const double t = v < lo[i] ? lo[i] : v;
    z[i] = hi[i] < t ? hi[i] : t;
    norm = std::max(norm, std::abs(q[i]));
  }
  return ok ? norm : -1.0;
}

ObjectiveSums scalar_box_objective(const double* p_diag, double c,
                                   const double* q, const double* z,
                                   std::size_t n) {
  ObjectiveSums sums;
  sums.quad =
      lane_sum(n, [&](std::size_t i) { return (p_diag[i] - c) * z[i] * z[i]; });
  sums.total = lane_sum(n, [&](std::size_t i) { return z[i]; });
  sums.lin = lane_sum(n, [&](std::size_t i) { return q[i] * z[i]; });
  return sums;
}

double scalar_scaled_rate(double scale, double* power, const double* gain,
                          std::size_t n) {
  return lane_sum(n, [&](std::size_t i) {
    const double p = power[i] * scale;
    power[i] = p;
    return p != 0.0 ? rate_log2(1.0 + p * gain[i]) : 0.0;
  });
}

bool scalar_log2_buckets(const double* gain, std::size_t n,
                         double inv_quantum, std::int64_t* bucket) {
  bool settled = true;
  for (std::size_t i = 0; i < n; ++i) {
    bucket[i] = log2_bucket(gain[i], inv_quantum);
    settled &= bucket[i] != kLog2BucketSlow;
  }
  return settled;
}

const Kernels kScalarTable = {
    scalar_add,        scalar_sub,
    scalar_mul,        scalar_scale,
    scalar_axpy,       scalar_rotate_pair,
    scalar_dot_seq,    scalar_absdot_seq,
    scalar_choose_dot_seq, scalar_masked_dot_seq,
    scalar_choose_mul, scalar_butterfly,
    scalar_boxqp_x,    scalar_boxqp_zu,
    scalar_best_gain_scan, scalar_power_qp_coeffs,
    scalar_dpr1_inverse, scalar_box_start,
    scalar_box_objective, scalar_scaled_rate,
    scalar_log2_buckets,
};

}  // namespace rcr::rt::simd::detail

namespace rcr::rt::simd {

double rate_log2(double x) {
  using namespace detail;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  // One unsigned test catches zero, subnormals, +inf, NaN and the sign bit.
  const std::uint64_t biased = bits >> 52;
  if (biased - 1 >= 0x7FE) return std::log2(x);
  const std::uint64_t mant = bits & 0x000FFFFFFFFFFFFFull;
  // The mantissa's top 8 bits, rounded: j in 0..256.
  const std::uint64_t j = (mant + (std::uint64_t{1} << 43)) >> 44;
  const double m = std::bit_cast<double>(mant | 0x3FF0000000000000ull);
  const double c = 1.0 + static_cast<double>(j) * 0x1p-8;
  const double r = (m - c) * kRateInvCentre[j];
  const double head =
      static_cast<double>(static_cast<int>(biased) - 1023) +
      kRateLog2Centre[j];
  const double series =
      r * (kLog2C1 + r * (kLog2C2 + r * (kLog2C3 + r * (kLog2C4 +
                                                        r * kLog2C5))));
  return head + series;
}

std::int64_t log2_bucket(double gain, double inv_quantum) {
  using namespace detail;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(gain);
  // One unsigned test catches zero, subnormals, +inf, NaN and the sign bit.
  const std::uint64_t biased = bits >> 52;
  if (biased - 1 >= 0x7FE) return kLog2BucketSlow;
  const std::size_t j =
      (bits >> (52 - kLog2TableBits)) & (kLog2TableSize - 1);
  const double m = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFull) |
                                         0x3FF0000000000000ull);
  const double r = m * kLog2InvCentre[j] - 1.0;
  const double head =
      static_cast<double>(static_cast<int>(biased) - 1023) + kLog2Centre[j];
  const double series = r * (kLog2C1 + r * (kLog2C2 + r * kLog2C3));
  const std::uint64_t fixed =
      std::bit_cast<std::uint64_t>((head + series) * inv_quantum +
                                   kLog2FixedMagic) +
      kLog2FixedHalf;
  if ((fixed & kLog2FracMask) - 2 >= kLog2FracMask - 3)
    return kLog2BucketSlow;
  return static_cast<std::int64_t>(fixed >> kLog2FracBits) - kLog2FixedOffset;
}

}  // namespace rcr::rt::simd
