// AVX2 kernels.  Compiled with -mavx2 -ffp-contract=off and only on
// x86-64; the dispatcher additionally checks __builtin_cpu_supports("avx2")
// at runtime before handing this table out.
//
// No FMA intrinsics anywhere: every multiply-add is an explicit
// _mm256_mul_pd / _mm256_add_pd pair so each kernel performs exactly the
// roundings of its scalar reference, keeping the bit-exact class honest and
// the runtime guard down to a single feature bit.
//
// The *_seq reductions vectorize only the products; the per-lane additions
// are spilled and accumulated in scalar program order (a serial dependence
// chain the compiler may not reorder), which is what makes them
// bit-exact rather than merely close.
#include "simd_internal.hpp"

#if RCR_SIMD_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>

namespace rcr::rt::simd::detail {
namespace {

inline __m256d abs_pd(__m256d v) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  return _mm256_andnot_pd(sign, v);
}

void avx2_add(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void avx2_sub(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void avx2_mul(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void avx2_scale(const double* a, double s, double* out, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), vs));
  for (; i < n; ++i) out[i] = a[i] * s;
}

void avx2_axpy(double s, const double* x, double* y, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_mul_pd(vs, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), p));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

void avx2_rotate_pair(double* x, double* y, double c, double s,
                      std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    const __m256d yi = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(
        x + i, _mm256_sub_pd(_mm256_mul_pd(vc, xi), _mm256_mul_pd(vs, yi)));
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_mul_pd(vs, xi), _mm256_mul_pd(vc, yi)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

double avx2_dot_seq(double init, const double* a, const double* b,
                    std::size_t n) {
  double acc = init;
  double tmp[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        tmp, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc += tmp[0];
    acc += tmp[1];
    acc += tmp[2];
    acc += tmp[3];
  }
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double avx2_absdot_seq(double init, const double* a, const double* b,
                       std::size_t n) {
  double acc = init;
  double tmp[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(tmp, _mm256_mul_pd(abs_pd(_mm256_loadu_pd(a + i)),
                                        _mm256_loadu_pd(b + i)));
    acc += tmp[0];
    acc += tmp[1];
    acc += tmp[2];
    acc += tmp[3];
  }
  for (; i < n; ++i) {
    const double ai = a[i];
    acc += (ai < 0.0 ? -ai : ai) * b[i];
  }
  return acc;
}

double avx2_choose_dot_seq(double init, const double* w, const double* pos,
                           const double* neg, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  double acc = init;
  double tmp[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d mask = _mm256_cmp_pd(wv, zero, _CMP_GE_OQ);
    const __m256d sel = _mm256_blendv_pd(_mm256_loadu_pd(neg + i),
                                         _mm256_loadu_pd(pos + i), mask);
    _mm256_storeu_pd(tmp, _mm256_mul_pd(wv, sel));
    acc += tmp[0];
    acc += tmp[1];
    acc += tmp[2];
    acc += tmp[3];
  }
  for (; i < n; ++i) acc += w[i] * (w[i] >= 0.0 ? pos[i] : neg[i]);
  return acc;
}

double avx2_masked_dot_seq(double init, const double* w, const double* a,
                           std::size_t n, bool nonneg) {
  // Non-matching lanes are skipped, never added as zero: adding +0.0 could
  // flip a -0.0 accumulator, which the scalar reference would preserve.
  const __m256d zero = _mm256_setzero_pd();
  const int want = nonneg ? 1 : 0;
  double acc = init;
  double tmp[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const int bits =
        _mm256_movemask_pd(_mm256_cmp_pd(wv, zero, _CMP_GE_OQ));
    _mm256_storeu_pd(tmp, _mm256_mul_pd(wv, _mm256_loadu_pd(a + i)));
    if (((bits >> 0) & 1) == want) acc += tmp[0];
    if (((bits >> 1) & 1) == want) acc += tmp[1];
    if (((bits >> 2) & 1) == want) acc += tmp[2];
    if (((bits >> 3) & 1) == want) acc += tmp[3];
  }
  for (; i < n; ++i)
    if ((w[i] >= 0.0) == nonneg) acc += w[i] * a[i];
  return acc;
}

void avx2_choose_mul(const double* w, const double* pos, const double* neg,
                     double* out, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d mask = _mm256_cmp_pd(wv, zero, _CMP_GE_OQ);
    const __m256d sel = _mm256_blendv_pd(_mm256_loadu_pd(neg + i),
                                         _mm256_loadu_pd(pos + i), mask);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(wv, sel));
  }
  for (; i < n; ++i) out[i] = w[i] * (w[i] >= 0.0 ? pos[i] : neg[i]);
}

void avx2_butterfly(std::complex<double>* lo, std::complex<double>* hi,
                    const std::complex<double>* tw, std::size_t n) {
  // Two complex values per 256-bit vector.  v = hi*tw via the naive
  // (re*re - im*im, re*im + im*re) formula: identical products and sums to
  // libstdc++'s finite-data fast path, so bit-exact on finite inputs.
  auto* plo = reinterpret_cast<double*>(lo);
  auto* phi = reinterpret_cast<double*>(hi);
  const auto* ptw = reinterpret_cast<const double*>(tw);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d h = _mm256_loadu_pd(phi + 2 * k);
    const __m256d t = _mm256_loadu_pd(ptw + 2 * k);
    const __m256d hre = _mm256_movedup_pd(h);          // [hr0 hr0 hr1 hr1]
    const __m256d him = _mm256_permute_pd(h, 0xF);     // [hi0 hi0 hi1 hi1]
    const __m256d tsw = _mm256_permute_pd(t, 0x5);     // [ti0 tr0 ti1 tr1]
    // addsub: even lanes hr*tr - hi*ti, odd lanes hr*ti + hi*tr.
    const __m256d v = _mm256_addsub_pd(_mm256_mul_pd(hre, t),
                                       _mm256_mul_pd(him, tsw));
    const __m256d u = _mm256_loadu_pd(plo + 2 * k);
    _mm256_storeu_pd(plo + 2 * k, _mm256_add_pd(u, v));
    _mm256_storeu_pd(phi + 2 * k, _mm256_sub_pd(u, v));
  }
  if (k < n) {
    // The odd last pair, the same way on one 128-bit vector.  A
    // std::complex product here would be vectorized into vfmaddsub by a
    // global -mfma build, -ffp-contract=off notwithstanding.
    const __m128d h = _mm_loadu_pd(phi + 2 * k);
    const __m128d t = _mm_loadu_pd(ptw + 2 * k);
    const __m128d v = _mm_addsub_pd(
        _mm_mul_pd(_mm_movedup_pd(h), t),
        _mm_mul_pd(_mm_unpackhi_pd(h, h), _mm_shuffle_pd(t, t, 1)));
    const __m128d u = _mm_loadu_pd(plo + 2 * k);
    _mm_storeu_pd(plo + 2 * k, _mm_add_pd(u, v));
    _mm_storeu_pd(phi + 2 * k, _mm_sub_pd(u, v));
  }
}

SweepSums avx2_boxqp_x(double rho, const double* z, const double* u,
                       const double* q, const double* inv_d, double* x,
                       const double* primal_terms, const double* dual_terms,
                       std::size_t n) {
  // One accumulator register per sum: its lane j is the scalar reference's
  // lane j (indices i = j mod 4), added in the same ascending order.
  static_assert(kSweepLanes == 4);
  const __m256d vr = _mm256_set1_pd(rho);
  __m256d ax = _mm256_setzero_pd();
  __m256d ap = _mm256_setzero_pd();
  __m256d ad = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_sub_pd(
        _mm256_mul_pd(vr, _mm256_sub_pd(_mm256_loadu_pd(z + i),
                                        _mm256_loadu_pd(u + i))),
        _mm256_loadu_pd(q + i));
    const __m256d xi = _mm256_mul_pd(r, _mm256_loadu_pd(inv_d + i));
    _mm256_storeu_pd(x + i, xi);
    ax = _mm256_add_pd(ax, xi);
    ap = _mm256_add_pd(ap, _mm256_loadu_pd(primal_terms + i));
    ad = _mm256_add_pd(ad, _mm256_loadu_pd(dual_terms + i));
  }
  double lx[kSweepLanes], lp[kSweepLanes], ld[kSweepLanes];
  _mm256_storeu_pd(lx, ax);
  _mm256_storeu_pd(lp, ap);
  _mm256_storeu_pd(ld, ad);
  SweepSums sums{combine_lanes(lx), combine_lanes(lp), combine_lanes(ld)};
  for (; i < n; ++i) {
    x[i] = (rho * (z[i] - u[i]) - q[i]) * inv_d[i];
    sums.x += x[i];
    sums.primal2 += primal_terms[i];
    sums.dual2 += dual_terms[i];
  }
  return sums;
}

void avx2_boxqp_zu(double gamma, const double* inv_d, const double* x,
                   const double* lo, const double* hi, const double* z,
                   double* u, double* z_out, double* primal_terms,
                   double* dual_terms, std::size_t n) {
  // std::clamp(v, lo, hi) is min(max(v, lo), hi) = (hi < m ? hi : m) with
  // m = (v < lo ? lo : v).  Ordered less-than compares are false on NaN, so
  // the blends keep a NaN v, exactly as the scalar reference does.
  const __m256d vg = _mm256_set1_pd(gamma);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xi = _mm256_sub_pd(
        _mm256_loadu_pd(x + i), _mm256_mul_pd(vg, _mm256_loadu_pd(inv_d + i)));
    const __m256d ui = _mm256_loadu_pd(u + i);
    const __m256d v = _mm256_add_pd(xi, ui);
    const __m256d lov = _mm256_loadu_pd(lo + i);
    const __m256d hiv = _mm256_loadu_pd(hi + i);
    const __m256d m =
        _mm256_blendv_pd(v, lov, _mm256_cmp_pd(v, lov, _CMP_LT_OQ));
    const __m256d zi =
        _mm256_blendv_pd(m, hiv, _mm256_cmp_pd(hiv, m, _CMP_LT_OQ));
    const __m256d pd = _mm256_sub_pd(xi, zi);
    _mm256_storeu_pd(u + i, _mm256_add_pd(ui, pd));
    _mm256_storeu_pd(z_out + i, zi);
    const __m256d dd = _mm256_sub_pd(zi, _mm256_loadu_pd(z + i));
    _mm256_storeu_pd(primal_terms + i, _mm256_mul_pd(pd, pd));
    _mm256_storeu_pd(dual_terms + i, _mm256_mul_pd(dd, dd));
  }
  scalar_boxqp_zu(gamma, inv_d + i, x + i, lo + i, hi + i, z + i, u + i,
                  z_out + i, primal_terms + i, dual_terms + i, n - i);
}

void avx2_best_gain_row(const double* row, std::size_t n, double user,
                        double* best, double* owner, double* lowest) {
  // Ordered compares are false on NaN, so a NaN gain selects nothing.
  const __m256d vu = _mm256_set1_pd(user);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(row + i);
    const __m256d b = _mm256_loadu_pd(best + i);
    const __m256d l = _mm256_loadu_pd(lowest + i);
    const __m256d better = _mm256_cmp_pd(v, b, _CMP_GT_OQ);
    _mm256_storeu_pd(best + i, _mm256_blendv_pd(b, v, better));
    _mm256_storeu_pd(owner + i,
                     _mm256_blendv_pd(_mm256_loadu_pd(owner + i), vu, better));
    _mm256_storeu_pd(lowest + i,
                     _mm256_blendv_pd(l, v, _mm256_cmp_pd(v, l, _CMP_LT_OQ)));
  }
  scalar_best_gain_row(row + i, n - i, user, best + i, owner + i, lowest + i);
}

bool avx2_log2_buckets(const double* gain, std::size_t n, double inv_quantum,
                       std::int64_t* bucket) {
  // log2_bucket four gains at a time.  The centre lookups are scalar loads
  // (hardware gathers are slower than four loads on some cores).  The
  // exponent converts
  // exactly through the 2^52 trick: the double with bits 0x433... | biased
  // is 2^52 + biased, and subtracting 2^52 + 1023 leaves biased - 1023.
  const __m256i mant = _mm256_set1_epi64x(0x000FFFFFFFFFFFFFll);
  const __m256i one = _mm256_set1_epi64x(0x3FF0000000000000ll);
  const __m256i two52 = _mm256_set1_epi64x(0x4330000000000000ll);
  const __m256i top_normal = _mm256_set1_epi64x(0x7FE);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i half = _mm256_set1_epi64x(kLog2FixedHalf);
  const __m256i frac_mask = _mm256_set1_epi64x(kLog2FracMask);
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256i frac_top = _mm256_set1_epi64x(kLog2FracMask - 2);
  const __m256i offset = _mm256_set1_epi64x(kLog2FixedOffset);
  const __m256i slow = _mm256_set1_epi64x(kLog2BucketSlow);
  const __m256d bias = _mm256_set1_pd(0x1p52 + 1023.0);
  const __m256d c1 = _mm256_set1_pd(kLog2C1);
  const __m256d c2 = _mm256_set1_pd(kLog2C2);
  const __m256d c3 = _mm256_set1_pd(kLog2C3);
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d inv_q = _mm256_set1_pd(inv_quantum);
  const __m256d magic = _mm256_set1_pd(kLog2FixedMagic);
  __m256i any_slow = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(gain + i));
    const __m256i biased = _mm256_srli_epi64(bits, 52);
    const __m256d m = _mm256_castsi256_pd(
        _mm256_or_si256(_mm256_and_si256(bits, mant), one));
    // The table indices straight from the gains' bits in memory: a round
    // trip of `j` through a store would stall on store forwarding.
    std::uint64_t idx[4];
    for (std::size_t k = 0; k < 4; ++k)
      idx[k] = (std::bit_cast<std::uint64_t>(gain[i + k]) >>
                (52 - kLog2TableBits)) &
               (kLog2TableSize - 1);
    const __m256d inv_c =
        _mm256_set_pd(kLog2InvCentre[idx[3]], kLog2InvCentre[idx[2]],
                      kLog2InvCentre[idx[1]], kLog2InvCentre[idx[0]]);
    const __m256d log2_c =
        _mm256_set_pd(kLog2Centre[idx[3]], kLog2Centre[idx[2]],
                      kLog2Centre[idx[1]], kLog2Centre[idx[0]]);
    const __m256d r = _mm256_sub_pd(_mm256_mul_pd(m, inv_c), vone);
    const __m256d e = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(biased, two52)), bias);
    const __m256d head = _mm256_add_pd(e, log2_c);
    const __m256d series = _mm256_mul_pd(
        r, _mm256_add_pd(
               c1, _mm256_mul_pd(
                       r, _mm256_add_pd(c2, _mm256_mul_pd(r, c3)))));
    const __m256d y = _mm256_add_pd(
        _mm256_mul_pd(_mm256_add_pd(head, series), inv_q), magic);
    const __m256i fixed = _mm256_add_epi64(_mm256_castpd_si256(y), half);
    const __m256i frac = _mm256_and_si256(fixed, frac_mask);
    // biased - 1 >= 0x7FE unsigned, and (frac - 2) >= mask - 3 unsigned,
    // as signed compares on the small non-negative values.
    const __m256i flag = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpeq_epi64(biased, zero),
                        _mm256_cmpgt_epi64(biased, top_normal)),
        _mm256_or_si256(_mm256_cmpgt_epi64(two, frac),
                        _mm256_cmpgt_epi64(frac, frac_top)));
    const __m256i b =
        _mm256_sub_epi64(_mm256_srli_epi64(fixed, kLog2FracBits), offset);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(bucket + i),
                        _mm256_blendv_epi8(b, slow, flag));
    any_slow = _mm256_or_si256(any_slow, flag);
  }
  bool settled = _mm256_testz_si256(any_slow, any_slow) != 0;
  for (; i < n; ++i) {
    bucket[i] = log2_bucket(gain[i], inv_quantum);
    settled &= bucket[i] != kLog2BucketSlow;
  }
  return settled;
}

}  // namespace

const Kernels kAvx2Table = {
    avx2_add,        avx2_sub,
    avx2_mul,        avx2_scale,
    avx2_axpy,       avx2_rotate_pair,
    avx2_dot_seq,    avx2_absdot_seq,
    avx2_choose_dot_seq, avx2_masked_dot_seq,
    avx2_choose_mul, avx2_butterfly,
    avx2_boxqp_x,    avx2_boxqp_zu,
    avx2_best_gain_row, avx2_log2_buckets,
};

}  // namespace rcr::rt::simd::detail

#endif  // RCR_SIMD_HAVE_AVX2
