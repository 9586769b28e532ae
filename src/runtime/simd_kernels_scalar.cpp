// Scalar reference kernels.  These define the bit-level contract every
// vector path is tested against; the loops mirror the pre-SIMD call-site
// code exactly (same operation order, same skip conditions).  Compiled with
// -ffp-contract=off (see CMakeLists) so an -mfma build cannot change the
// reference roundings.
#include <algorithm>
#include <array>
#include <bit>
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

}  // namespace

const double* const kLog2Centre = kCentres.log2_c.data();
const double* const kLog2InvCentre = kCentres.inv_c.data();

void scalar_best_gain_row(const double* row, std::size_t n, double user,
                          double* best, double* owner, double* lowest) {
  // The owner update o + m (user - o) with m in {0, 1} is exact on small
  // integers and branch-free, so this loop vectorizes at the base ISA.
  for (std::size_t i = 0; i < n; ++i) {
    const double v = row[i];
    const double b = best[i];
    const double o = owner[i];
    const double m = v > b ? 1.0 : 0.0;
    best[i] = v > b ? v : b;
    owner[i] = o + m * (user - o);
    const double l = lowest[i];
    lowest[i] = v < l ? v : l;
  }
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
    scalar_best_gain_row, scalar_log2_buckets,
};

}  // namespace rcr::rt::simd::detail

namespace rcr::rt::simd {

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
