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
#include <limits>

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

// The best-gain scan of kBlock * 4 columns from column i: each column's
// best, owner (a 64-bit integer in a double lane) and lowest gain stay in
// registers while every user's row streams past.  max_pd(v, b) is
// v > b ? v : b, and min_pd(v, l) is v < l ? v : l: ordered compares are
// false on NaN, so a NaN gain takes nothing and a NaN best keeps its
// column.  Returns the lowest gains' negative mask.
template <std::size_t kBlock>
inline __m256d best_gain_block(const double* gain, std::size_t users,
                               std::size_t stride, std::size_t i,
                               std::size_t* owner, double* best) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d b[kBlock], o[kBlock], l[kBlock];
  for (std::size_t k = 0; k < kBlock; ++k) {
    b[k] = _mm256_loadu_pd(gain + i + 4 * k);
    o[k] = zero;  // user 0: all-zero bits
    l[k] = _mm256_min_pd(b[k], zero);
  }
  for (std::size_t u = 1; u < users; ++u) {
    const double* row = gain + u * stride + i;
    const __m256d vu =
        _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(u)));
    for (std::size_t k = 0; k < kBlock; ++k) {
      const __m256d v = _mm256_loadu_pd(row + 4 * k);
      o[k] = _mm256_blendv_pd(o[k], vu, _mm256_cmp_pd(v, b[k], _CMP_GT_OQ));
      b[k] = _mm256_max_pd(v, b[k]);
      l[k] = _mm256_min_pd(v, l[k]);
    }
  }
  __m256d negative = zero;
  for (std::size_t k = 0; k < kBlock; ++k) {
    _mm256_storeu_pd(best + i + 4 * k, b[k]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(owner + i + 4 * k),
                        _mm256_castpd_si256(o[k]));
    negative =
        _mm256_or_pd(negative, _mm256_cmp_pd(l[k], zero, _CMP_LT_OQ));
  }
  return negative;
}

bool avx2_best_gain_scan(const double* gain, std::size_t users, std::size_t n,
                         std::size_t* owner, double* best) {
  static_assert(sizeof(std::size_t) == 8);
  __m256d negative = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    negative = _mm256_or_pd(
        negative, best_gain_block<4>(gain, users, n, i, owner, best));
  for (; i + 4 <= n; i += 4)
    negative = _mm256_or_pd(
        negative, best_gain_block<1>(gain, users, n, i, owner, best));
  const bool tail = best_gain_columns(gain, users, n, i, n, owner, best);
  return tail || _mm256_movemask_pd(negative) != 0;
}

double avx2_power_qp_coeffs(const double* gain, std::size_t n, double p0,
                            double* curv, double* slope) {
  // max_pd(c, m) is c > m ? c : m, the scalar update; the maximum of the
  // non-NaN entries is exact in any order.
  const __m256d k = _mm256_set1_pd(kLog2C1);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d vp0 = _mm256_set1_pd(p0);
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d mx = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_loadu_pd(gain + i);
    const __m256d denom = _mm256_add_pd(one, _mm256_mul_pd(g, vp0));
    const __m256d c = _mm256_div_pd(_mm256_mul_pd(_mm256_mul_pd(g, g), k),
                                    _mm256_mul_pd(denom, denom));
    _mm256_storeu_pd(curv + i, c);
    _mm256_storeu_pd(
        slope + i,
        _mm256_div_pd(_mm256_mul_pd(_mm256_xor_pd(g, sign), k), denom));
    mx = _mm256_max_pd(c, mx);
  }
  double lane[4];
  _mm256_storeu_pd(lane, mx);
  double max_curv = 0.0;
  for (double v : lane)
    if (v > max_curv) max_curv = v;
  const double tail =
      scalar_power_qp_coeffs(gain + i, n - i, p0, curv + i, slope + i);
  return tail > max_curv ? tail : max_curv;
}

double avx2_dpr1_inverse(const double* p_diag, double c, double rho,
                         double ridge, double* d, double* inv_d,
                         std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vrho = _mm256_set1_pd(rho);
  const __m256d vridge = _mm256_set1_pd(ridge);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d acc = zero;
  __m256d ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d di = _mm256_add_pd(
        _mm256_add_pd(_mm256_sub_pd(_mm256_loadu_pd(p_diag + i), vc), vrho),
        vridge);
    _mm256_storeu_pd(d + i, di);
    const __m256d inv = _mm256_div_pd(one, di);
    _mm256_storeu_pd(inv_d + i, inv);
    acc = _mm256_add_pd(acc, inv);
    ok = _mm256_and_pd(ok, _mm256_and_pd(_mm256_cmp_pd(di, zero, _CMP_GT_OQ),
                                         _mm256_cmp_pd(di, inf, _CMP_LT_OQ)));
  }
  double lane[kSweepLanes];
  _mm256_storeu_pd(lane, acc);
  double sum = combine_lanes(lane);
  bool all_ok = _mm256_movemask_pd(ok) == 0xF;
  for (; i < n; ++i) {
    d[i] = p_diag[i] - c + rho + ridge;
    all_ok &= d[i] > 0.0 && d[i] < std::numeric_limits<double>::infinity();
    inv_d[i] = 1.0 / d[i];
    sum += inv_d[i];
  }
  return all_ok ? sum : std::numeric_limits<double>::quiet_NaN();
}

double avx2_box_start(const double* lo, const double* hi, const double* z0,
                      const double* q, double* z, std::size_t n) {
  // The clamp as avx2_boxqp_zu blends it; max_pd(a, m) is m < a ? a : m,
  // std::max's update.
  const __m256d zero = _mm256_setzero_pd();
  __m256d bad = zero;
  __m256d norm = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d l = _mm256_loadu_pd(lo + i);
    const __m256d h = _mm256_loadu_pd(hi + i);
    bad = _mm256_or_pd(bad, _mm256_cmp_pd(l, h, _CMP_GT_OQ));
    const __m256d v = z0 != nullptr ? _mm256_loadu_pd(z0 + i) : zero;
    const __m256d t = _mm256_blendv_pd(v, l, _mm256_cmp_pd(v, l, _CMP_LT_OQ));
    _mm256_storeu_pd(z + i,
                     _mm256_blendv_pd(t, h, _mm256_cmp_pd(h, t, _CMP_LT_OQ)));
    norm = _mm256_max_pd(abs_pd(_mm256_loadu_pd(q + i)), norm);
  }
  double lane[4];
  _mm256_storeu_pd(lane, norm);
  double m = 0.0;
  for (double v : lane) m = std::max(m, v);
  const double tail = scalar_box_start(lo + i, hi + i,
                                       z0 != nullptr ? z0 + i : nullptr,
                                       q + i, z + i, n - i);
  if (_mm256_movemask_pd(bad) != 0 || tail < 0.0) return -1.0;
  return std::max(m, tail);
}

ObjectiveSums avx2_box_objective(const double* p_diag, double c,
                                 const double* q, const double* z,
                                 std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  __m256d aq = _mm256_setzero_pd();
  __m256d at = _mm256_setzero_pd();
  __m256d al = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d zi = _mm256_loadu_pd(z + i);
    aq = _mm256_add_pd(
        aq, _mm256_mul_pd(
                _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(p_diag + i), vc),
                              zi),
                zi));
    at = _mm256_add_pd(at, zi);
    al = _mm256_add_pd(al, _mm256_mul_pd(_mm256_loadu_pd(q + i), zi));
  }
  double lq[kSweepLanes], lt[kSweepLanes], ll[kSweepLanes];
  _mm256_storeu_pd(lq, aq);
  _mm256_storeu_pd(lt, at);
  _mm256_storeu_pd(ll, al);
  ObjectiveSums sums{combine_lanes(lq), combine_lanes(lt), combine_lanes(ll)};
  for (; i < n; ++i) {
    sums.quad += (p_diag[i] - c) * z[i] * z[i];
    sums.total += z[i];
    sums.lin += q[i] * z[i];
  }
  return sums;
}

double avx2_scaled_rate(double scale, double* power, const double* gain,
                        std::size_t n) {
  // rate_log2 four lanes at a time.  The exponent and the centre index
  // convert exactly through the 2^52 trick (see avx2_log2_buckets); a lane
  // whose argument rate_log2 hands to std::log2 is redone by rate_log2
  // itself, so every lane is the scalar function's bits.
  const __m256i mant_mask = _mm256_set1_epi64x(0x000FFFFFFFFFFFFFll);
  const __m256i one_bits = _mm256_set1_epi64x(0x3FF0000000000000ll);
  const __m256i two52 = _mm256_set1_epi64x(0x4330000000000000ll);
  const __m256i round = _mm256_set1_epi64x(1ll << 43);
  const __m256i top_normal = _mm256_set1_epi64x(0x7FE);
  const __m256i izero = _mm256_setzero_si256();
  const __m256d bias = _mm256_set1_pd(0x1p52 + 1023.0);
  const __m256d vtwo52 = _mm256_set1_pd(0x1p52);
  const __m256d step = _mm256_set1_pd(0x1p-8);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d c1 = _mm256_set1_pd(kLog2C1);
  const __m256d c2 = _mm256_set1_pd(kLog2C2);
  const __m256d c3 = _mm256_set1_pd(kLog2C3);
  const __m256d c4 = _mm256_set1_pd(kLog2C4);
  const __m256d c5 = _mm256_set1_pd(kLog2C5);
  __m256d acc = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_mul_pd(_mm256_loadu_pd(power + i), vscale);
    _mm256_storeu_pd(power + i, p);
    const __m256d x =
        _mm256_add_pd(one, _mm256_mul_pd(p, _mm256_loadu_pd(gain + i)));
    const __m256d powered = _mm256_cmp_pd(p, zero, _CMP_NEQ_UQ);
    const __m256i bits = _mm256_castpd_si256(x);
    const __m256i biased = _mm256_srli_epi64(bits, 52);
    const __m256i mant = _mm256_and_si256(bits, mant_mask);
    const __m256i j = _mm256_srli_epi64(_mm256_add_epi64(mant, round), 44);
    const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(mant, one_bits));
    const __m256d jd = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(j, two52)), vtwo52);
    const __m256d c = _mm256_add_pd(one, _mm256_mul_pd(jd, step));
    const __m256d inv_c = _mm256_i64gather_pd(kRateInvCentre, j, 8);
    const __m256d log2_c = _mm256_i64gather_pd(kRateLog2Centre, j, 8);
    const __m256d r = _mm256_mul_pd(_mm256_sub_pd(m, c), inv_c);
    const __m256d e = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(biased, two52)), bias);
    const __m256d series = _mm256_mul_pd(
        r,
        _mm256_add_pd(
            c1, _mm256_mul_pd(
                    r, _mm256_add_pd(
                           c2, _mm256_mul_pd(
                                   r, _mm256_add_pd(
                                          c3, _mm256_mul_pd(
                                                  r, _mm256_add_pd(
                                                         c4, _mm256_mul_pd(
                                                                 r, c5)))))))));
    __m256d y = _mm256_add_pd(_mm256_add_pd(e, log2_c), series);
    const __m256i special = _mm256_or_si256(
        _mm256_cmpeq_epi64(biased, izero),
        _mm256_cmpgt_epi64(biased, top_normal));
    const int redo = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_castsi256_pd(special), powered));
    if (redo != 0) {
      double xs[4], ys[4];
      _mm256_storeu_pd(xs, x);
      _mm256_storeu_pd(ys, y);
      for (int k = 0; k < 4; ++k)
        if ((redo >> k) & 1) ys[k] = rate_log2(xs[k]);
      y = _mm256_loadu_pd(ys);
    }
    acc = _mm256_add_pd(acc, _mm256_and_pd(y, powered));
  }
  double lane[kSweepLanes];
  _mm256_storeu_pd(lane, acc);
  double sum = combine_lanes(lane);
  for (; i < n; ++i) {
    const double p = power[i] * scale;
    power[i] = p;
    sum += p != 0.0 ? rate_log2(1.0 + p * gain[i]) : 0.0;
  }
  return sum;
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
    avx2_best_gain_scan, avx2_power_qp_coeffs,
    avx2_dpr1_inverse,  avx2_box_start,
    avx2_box_objective, avx2_scaled_rate,
    avx2_log2_buckets,
};

}  // namespace rcr::rt::simd::detail

#endif  // RCR_SIMD_HAVE_AVX2
