// Differential tests for the rcr::rt::simd kernel layer against the scalar
// reference table (src/runtime/simd_kernels_scalar.cpp).
//
// The layer's contract: every kernel -- elementwise ops, axpy,
// rotate_pair, the *_seq reductions (SIMD products, scalar-ordered lane
// adds), butterfly, choose_mul -- is BIT-IDENTICAL to scalar on every
// dispatch path, so the default build never changes results.
//
// On scalar-only builds active() IS the scalar table and the comparisons
// are trivially true; on AVX2/NEON builds they pin the vector kernels to
// the reference.  Lengths cover 0, sub-vector tails, exact multiples, and
// off-by-one around the 4/8-lane widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "rcr/numerics/matrix.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/simd.hpp"
#include "rcr/signal/fft.hpp"
#include "rcr/testkit/ulp.hpp"

namespace simd = rcr::rt::simd;
namespace num = rcr::num;
namespace tk = rcr::testkit;
using rcr::Vec;

namespace {

constexpr std::size_t kLens[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                                 15, 16, 17, 31, 32, 33, 64, 100};

Vec rand_vec(std::size_t n, num::Rng& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.normal();
  // Signed zeros are part of the bit-identity contract (masked_dot_seq must
  // not launder -0.0 through a +0.0 add).
  if (n > 2) {
    v[0] = -0.0;
    v[n / 2] = 0.0;
  }
  return v;
}

void expect_vec_bits(const Vec& a, const Vec& b, std::size_t len) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(tk::same_bits(a[i], b[i]))
        << "len=" << len << " index " << i << ": " << a[i] << " vs " << b[i];
}

}  // namespace

TEST(SimdKernels, ElementwiseOpsMatchScalarBitExact) {
  const simd::Kernels& A = simd::active();
  const simd::Kernels& S = simd::scalar_kernels();
  num::Rng rng(101);
  for (std::size_t len : kLens) {
    const Vec a = rand_vec(len, rng);
    const Vec b = rand_vec(len, rng);
    Vec va(len, 0.0), vs(len, 0.0);
    A.add(a.data(), b.data(), va.data(), len);
    S.add(a.data(), b.data(), vs.data(), len);
    expect_vec_bits(va, vs, len);
    A.sub(a.data(), b.data(), va.data(), len);
    S.sub(a.data(), b.data(), vs.data(), len);
    expect_vec_bits(va, vs, len);
    A.mul(a.data(), b.data(), va.data(), len);
    S.mul(a.data(), b.data(), vs.data(), len);
    expect_vec_bits(va, vs, len);
    A.scale(a.data(), -1.75, va.data(), len);
    S.scale(a.data(), -1.75, vs.data(), len);
    expect_vec_bits(va, vs, len);
  }
}

TEST(SimdKernels, AxpyAndRotatePairMatchScalarBitExact) {
  const simd::Kernels& A = simd::active();
  const simd::Kernels& S = simd::scalar_kernels();
  num::Rng rng(102);
  for (std::size_t len : kLens) {
    const Vec x = rand_vec(len, rng);
    Vec ya = rand_vec(len, rng);
    Vec ys = ya;
    A.axpy(0.731, x.data(), ya.data(), len);
    S.axpy(0.731, x.data(), ys.data(), len);
    expect_vec_bits(ya, ys, len);

    Vec xa = rand_vec(len, rng), xs = xa;
    Vec ra = rand_vec(len, rng), rs = ra;
    const double c = 0.8, s = 0.6;
    A.rotate_pair(xa.data(), ra.data(), c, s, len);
    S.rotate_pair(xs.data(), rs.data(), c, s, len);
    expect_vec_bits(xa, xs, len);
    expect_vec_bits(ra, rs, len);
  }
}

TEST(SimdKernels, SequentialReductionsMatchScalarBitExact) {
  const simd::Kernels& A = simd::active();
  const simd::Kernels& S = simd::scalar_kernels();
  num::Rng rng(103);
  for (std::size_t len : kLens) {
    const Vec a = rand_vec(len, rng);
    const Vec b = rand_vec(len, rng);
    const Vec w = rand_vec(len, rng);
    ASSERT_TRUE(tk::same_bits(A.dot_seq(0.5, a.data(), b.data(), len),
                              S.dot_seq(0.5, a.data(), b.data(), len)))
        << "dot_seq len=" << len;
    ASSERT_TRUE(tk::same_bits(A.absdot_seq(0.0, a.data(), b.data(), len),
                              S.absdot_seq(0.0, a.data(), b.data(), len)))
        << "absdot_seq len=" << len;
    ASSERT_TRUE(tk::same_bits(
        A.choose_dot_seq(-0.25, w.data(), a.data(), b.data(), len),
        S.choose_dot_seq(-0.25, w.data(), a.data(), b.data(), len)))
        << "choose_dot_seq len=" << len;
    for (bool nonneg : {true, false}) {
      ASSERT_TRUE(
          tk::same_bits(A.masked_dot_seq(-0.0, w.data(), a.data(), len, nonneg),
                        S.masked_dot_seq(-0.0, w.data(), a.data(), len, nonneg)))
          << "masked_dot_seq len=" << len << " nonneg=" << nonneg;
    }
  }
}

TEST(SimdKernels, ChooseMulMatchesScalarBitExact) {
  const simd::Kernels& A = simd::active();
  const simd::Kernels& S = simd::scalar_kernels();
  num::Rng rng(104);
  for (std::size_t len : kLens) {
    const Vec w = rand_vec(len, rng);
    const Vec pos = rand_vec(len, rng);
    const Vec neg = rand_vec(len, rng);
    Vec oa(len, 0.0), os(len, 0.0);
    A.choose_mul(w.data(), pos.data(), neg.data(), oa.data(), len);
    S.choose_mul(w.data(), pos.data(), neg.data(), os.data(), len);
    expect_vec_bits(oa, os, len);
  }
}

TEST(SimdKernels, ButterflyMatchesScalarBitExact) {
  const simd::Kernels& A = simd::active();
  const simd::Kernels& S = simd::scalar_kernels();
  num::Rng rng(105);
  using C = std::complex<double>;
  for (std::size_t len : kLens) {
    std::vector<C> lo(len), hi(len), tw(len);
    for (std::size_t i = 0; i < len; ++i) {
      lo[i] = {rng.normal(), rng.normal()};
      hi[i] = {rng.normal(), rng.normal()};
      tw[i] = {rng.normal(), rng.normal()};
    }
    auto lo_a = lo, hi_a = hi, lo_s = lo, hi_s = hi;
    A.butterfly(lo_a.data(), hi_a.data(), tw.data(), len);
    S.butterfly(lo_s.data(), hi_s.data(), tw.data(), len);
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_TRUE(tk::same_bits(lo_a[i].real(), lo_s[i].real()) &&
                  tk::same_bits(lo_a[i].imag(), lo_s[i].imag()) &&
                  tk::same_bits(hi_a[i].real(), hi_s[i].real()) &&
                  tk::same_bits(hi_a[i].imag(), hi_s[i].imag()))
          << "butterfly len=" << len << " index " << i;
    }
  }
}

// The box-QP sweep's inputs for one case: pass 1 reads z, u, q, inv_d;
// pass 2 reads the x pass 1 wrote (or the case's own x), lo, hi and z.
struct SweepCase {
  Vec z, u, q, inv_d, lo, hi, x;
  double gamma = 0.0;
};

/// A random case with x + u landing at, inside and beyond both bounds, and
/// signed zeros at the bounds and in the iterates.
SweepCase sweep_case(std::size_t n, num::Rng& rng) {
  SweepCase c;
  c.z = rng.normal_vec(n);
  c.u = rng.normal_vec(n);
  c.q = rng.normal_vec(n);
  c.x = rng.normal_vec(n);
  c.inv_d.resize(n);
  c.lo.resize(n);
  c.hi.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.inv_d[i] = 1.0 / (0.05 + 2.0 * rng.uniform());
    c.lo[i] = -0.2 - rng.uniform();
    c.hi[i] = 0.2 + rng.uniform();
    switch (i % 6) {
      case 0:  // exactly at lo (u = 0, and gamma = 0 in the exact cases)
        c.u[i] = 0.0;
        c.x[i] = c.lo[i];
        break;
      case 1:  // exactly at hi
        c.u[i] = 0.0;
        c.x[i] = c.hi[i];
        break;
      case 2:  // far beyond lo
        c.x[i] = c.lo[i] - 10.0;
        break;
      case 3:  // far beyond hi
        c.x[i] = c.hi[i] + 10.0;
        break;
      case 4:  // -0.0 against a +0.0 bound
        c.u[i] = -0.0;
        c.x[i] = -0.0;
        c.lo[i] = 0.0;
        c.z[i] = -0.0;
        break;
      default:  // +0.0 against a -0.0 bound
        c.u[i] = 0.0;
        c.x[i] = 0.0;
        c.hi[i] = -0.0;
        c.lo[i] = -1.0;
        break;
    }
  }
  return c;
}

struct SweepOut {
  Vec x, u, z_out, primal_terms, dual_terms;
  simd::SweepSums pass1;  ///< Pass 1's x-sum, and the sums of c's terms.
  simd::SweepSums sums;   ///< The sums of pass 2's residual terms.
};

/// Pass 1 into a scratch x (its sums kept, with the case's own residual
/// terms alongside), then pass 2 on the case's own x so the crafted bound
/// hits reach the projection unchanged, then the sums of pass 2's terms.
SweepOut run_sweep(const simd::Kernels& k, const SweepCase& c) {
  const std::size_t n = c.z.size();
  SweepOut o;
  o.x.assign(n, 0.0);
  o.u = c.u;
  o.z_out.assign(n, 0.0);
  o.primal_terms.assign(n, 0.0);
  o.dual_terms.assign(n, 0.0);
  o.pass1 = k.boxqp_x(0.7, c.z.data(), c.u.data(), c.q.data(),
                      c.inv_d.data(), o.x.data(), c.q.data(), c.inv_d.data(),
                      n);
  k.boxqp_zu(c.gamma, c.inv_d.data(), c.x.data(), c.lo.data(), c.hi.data(),
             c.z.data(), o.u.data(), o.z_out.data(), o.primal_terms.data(),
             o.dual_terms.data(), n);
  Vec scratch(n, 0.0);
  o.sums = k.boxqp_x(0.7, c.z.data(), c.u.data(), c.q.data(), c.inv_d.data(),
                     scratch.data(), o.primal_terms.data(),
                     o.dual_terms.data(), n);
  return o;
}

/// SweepSums' order, written out: lane j adds the entries i = j mod 4
/// below the last multiple of 4 from 0.0, the lanes combine as
/// (l0 + l1) + (l2 + l3), then the tail adds in ascending order.
double lane_sum(const Vec& v) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= v.size(); i += 4)
    for (std::size_t j = 0; j < 4; ++j) lane[j] += v[i + j];
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < v.size(); ++i) sum += v[i];
  return sum;
}

TEST(SimdKernels, BoxQpSweepMatchesScalarBitExact) {
  num::Rng rng(109);
  for (std::size_t len : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 12u, 48u, 49u}) {
    for (const double gamma : {0.0, 0.37, -1.9}) {
      for (const bool nan_x0 : {false, true}) {
        SCOPED_TRACE("len=" + std::to_string(len) +
                     " gamma=" + std::to_string(gamma) +
                     " nan_x0=" + std::to_string(nan_x0));
        SweepCase c = sweep_case(len, rng);
        c.gamma = gamma;
        if (nan_x0) c.x[0] = std::numeric_limits<double>::quiet_NaN();
        const SweepOut active = run_sweep(simd::active(), c);
        SweepOut scalar;
        {
          simd::ForceScalarGuard guard;
          scalar = run_sweep(simd::active(), c);
        }
        expect_vec_bits(active.x, scalar.x, len);
        expect_vec_bits(active.u, scalar.u, len);
        expect_vec_bits(active.z_out, scalar.z_out, len);
        expect_vec_bits(active.primal_terms, scalar.primal_terms, len);
        expect_vec_bits(active.dual_terms, scalar.dual_terms, len);
        EXPECT_TRUE(tk::same_bits(active.pass1.x, scalar.pass1.x));
        EXPECT_TRUE(tk::same_bits(active.pass1.primal2, scalar.pass1.primal2));
        EXPECT_TRUE(tk::same_bits(active.pass1.dual2, scalar.pass1.dual2));
        EXPECT_TRUE(tk::same_bits(active.sums.primal2, scalar.sums.primal2));
        EXPECT_TRUE(tk::same_bits(active.sums.dual2, scalar.sums.dual2));
        // Every sum runs in the four-lane order, and pass 1 multiplies by
        // the reciprocal diagonal.
        EXPECT_TRUE(tk::same_bits(scalar.pass1.x, lane_sum(scalar.x)));
        EXPECT_TRUE(tk::same_bits(scalar.pass1.primal2, lane_sum(c.q)));
        EXPECT_TRUE(tk::same_bits(scalar.pass1.dual2, lane_sum(c.inv_d)));
        EXPECT_TRUE(
            tk::same_bits(scalar.sums.primal2, lane_sum(scalar.primal_terms)));
        EXPECT_TRUE(
            tk::same_bits(scalar.sums.dual2, lane_sum(scalar.dual_terms)));
        for (std::size_t i = 0; i < len; ++i)
          EXPECT_TRUE(tk::same_bits(
              scalar.x[i], (0.7 * (c.z[i] - c.u[i]) - c.q[i]) * c.inv_d[i]))
              << "index " << i;
        // The projection is std::clamp's: a NaN passes through, and with
        // gamma = 0 the crafted entries land exactly on their bounds.
        for (std::size_t i = 0; i < len; ++i) {
          const double v = c.x[i] - c.gamma * c.inv_d[i] + c.u[i];
          EXPECT_TRUE(tk::same_bits(scalar.z_out[i],
                                    std::clamp(v, c.lo[i], c.hi[i])))
              << "index " << i;
        }
        if (nan_x0) {
          EXPECT_TRUE(std::isnan(active.z_out[0]));
          EXPECT_TRUE(std::isnan(active.sums.primal2));
        }
        if (gamma == 0.0 && len > 1) {
          EXPECT_EQ(active.z_out[1], c.hi[1]);
          if (!nan_x0) {
            EXPECT_EQ(active.z_out[0], c.lo[0]);
          }
        }
      }
    }
  }
}

TEST(SimdKernels, Log2BucketsMatchScalarReference) {
  num::Rng rng(127);
  const double q = 0.05;
  const double inv_q = 1.0 / q;
  Vec gains;
  for (int i = 0; i < 700; ++i) gains.push_back(std::exp2(6.0 * rng.normal()));
  for (double g : {0.0, -0.0, -1.5, 4.9e-324, 2.2e-308, 1.7976931348623157e308,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::min()})
    gains.push_back(g);
  // Quotients on a bucket midpoint and a few 2^-24 grid steps to either
  // side, so both guard bands of the fixed-point fraction are reached.
  for (int k = -40; k < 40; ++k)
    for (int step = -3; step <= 3; ++step)
      gains.push_back(std::exp2((k + 0.5 + step * 0x1p-24) * q));
  for (std::size_t len : {0u, 1u, 3u, 4u, 5u, 8u, 13u, 64u, 600u}) {
    for (std::size_t start : {0u, 1u, 3u}) {
      if (start + len > gains.size()) continue;
      SCOPED_TRACE("len=" + std::to_string(len) + " start=" +
                   std::to_string(start));
      std::vector<std::int64_t> a(len, 7), s(len, 7);
      const bool settled_a =
          simd::active().log2_buckets(gains.data() + start, len, inv_q, a.data());
      bool settled = true;
      for (std::size_t i = 0; i < len; ++i) {
        s[i] = simd::log2_bucket(gains[start + i], inv_q);
        settled &= s[i] != simd::kLog2BucketSlow;
      }
      EXPECT_EQ(settled_a, settled);
      for (std::size_t i = 0; i < len; ++i) ASSERT_EQ(a[i], s[i]) << i;
    }
  }
  std::vector<std::int64_t> all(gains.size());
  const bool settled = simd::active().log2_buckets(gains.data(), gains.size(),
                                                   inv_q, all.data());
  EXPECT_FALSE(settled);
  std::size_t slow = 0;
  for (std::size_t i = 0; i < gains.size(); ++i) {
    const double g = gains[i];
    ASSERT_EQ(all[i], simd::log2_bucket(g, inv_q)) << "gain " << g;
    if (all[i] == simd::kLog2BucketSlow) {
      ++slow;
      continue;
    }
    // A settled bucket is the reference's.
    ASSERT_GT(g, 0.0);
    ASSERT_EQ(all[i], std::llround(std::log2(g) / q)) << "gain " << g;
  }
  // The eight non-normal or non-positive specials and the 80 midpoints all
  // fall back, with some of their near neighbours; random gains rarely do.
  EXPECT_GE(slow, 8u + 80u);
  EXPECT_LE(slow, 8u + 80u * 7u + 5u);
}

TEST(SimdKernels, ForceScalarGuardSwitchesDispatch) {
  EXPECT_FALSE(simd::force_scalar_active());
  {
    simd::ForceScalarGuard guard;
    EXPECT_TRUE(simd::force_scalar_active());
    EXPECT_EQ(&simd::active(), &simd::scalar_kernels());
    {
      simd::ForceScalarGuard nested;
      EXPECT_TRUE(simd::force_scalar_active());
    }
    EXPECT_TRUE(simd::force_scalar_active());
  }
  EXPECT_FALSE(simd::force_scalar_active());
  EXPECT_STREQ(simd::path_name(),
               simd::active_path() == simd::Path::kAvx2
                   ? "avx2"
                   : (simd::active_path() == simd::Path::kNeon ? "neon"
                                                               : "scalar"));
}

// The matrix kernels ride only lane-independent / sequential SIMD
// primitives, so whole-matrix results are bit-identical between the
// vectorized and forced-scalar paths...
TEST(SimdKernels, MatmulSimdVsForcedScalarBitIdentical) {
  num::Rng rng(108);
  const std::size_t n = 37;  // odd: exercises every tail path
  num::Matrix a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  num::Matrix c_simd, c_scalar, g_simd, g_scalar;
  Vec x(n);
  for (auto& v : x) v = rng.normal();
  Vec y_simd, y_scalar;
  num::multiply_into(a, b, c_simd);
  num::multiply_at_b_into(a, b, g_simd);
  num::matvec_into(a, x, y_simd);
  {
    simd::ForceScalarGuard guard;
    num::multiply_into(a, b, c_scalar);
    num::multiply_at_b_into(a, b, g_scalar);
    num::matvec_into(a, x, y_scalar);
  }
  EXPECT_EQ("", tk::expect_bits(c_simd, c_scalar, "matmul"));
  EXPECT_EQ("", tk::expect_bits(g_simd, g_scalar, "at_b"));
  EXPECT_EQ("", tk::expect_bits(y_simd, y_scalar, "matvec"));
}

// ...and between serial and pooled execution (the RCR_THREADS contract:
// thread count partitions rows, never the accumulation order).
TEST(SimdKernels, VectorizedMatmulSerialParallelBitIdentical) {
  num::Rng rng(109);
  const std::size_t n = 64;
  num::Matrix a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  num::Matrix c_pool, c_serial;
  num::multiply_into(a, b, c_pool);
  {
    rcr::rt::ForceSerialGuard serial;
    num::multiply_into(a, b, c_serial);
  }
  EXPECT_EQ("", tk::expect_bits(c_pool, c_serial, "matmul threads"));
}

TEST(SimdKernels, FftSimdVsForcedScalarBitIdentical) {
  num::Rng rng(110);
  rcr::sig::CVec x(256);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  const rcr::sig::CVec y_simd = rcr::sig::fft(x);
  rcr::sig::CVec y_scalar;
  {
    simd::ForceScalarGuard guard;
    y_scalar = rcr::sig::fft(x);
  }
  EXPECT_EQ("", tk::expect_bits(y_simd, y_scalar, "fft"));
}
