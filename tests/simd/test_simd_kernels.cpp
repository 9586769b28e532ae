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

#include <complex>
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
