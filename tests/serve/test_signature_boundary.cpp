// Quantization boundary semantics for serve::signature.
//
// The log2 gain grid buckets with llround, so each bucket k covers the
// half-open log2 interval ((k - 0.5) q, (k + 0.5) q] with the midpoint
// rounding away from zero.  The documented contract for adjacent gains that
// straddle a bucket midpoint is DISTINCT keys: once two gains sit on
// opposite sides of the midpoint by more than the log/exp round-trip error
// (~1e-12 in the log2 domain), they land in different buckets and therefore
// different signatures.  Gains inside one bucket share the key.  In every
// case the mapping is a pure function of the bits of the gain -- the same
// double always produces the same bucket, so cache keys never flap.
#include "rcr/serve/signature.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>

#include "rcr/numerics/rng.hpp"
#include "rcr/testkit/gen.hpp"

namespace rcr::serve {
namespace {

// Single-user problem: the active-set fingerprint is constant, so signature
// differences isolate the gain quantization.
RraProblem one_user_problem(double gain) {
  RraProblem problem;
  problem.gain = num::Matrix(1, 1);
  problem.gain(0, 0) = gain;
  problem.total_power = 1.0;
  problem.min_rate = Vec{0.0};
  return problem;
}

TEST(SignatureBoundary, GainsWithinOneBucketShareTheKey) {
  const SignatureConfig config;
  const double q = config.gain_log2_quantum;
  // Bucket 10 spans log2 in (10q - q/2, 10q + q/2]; probe well inside it.
  const double lo = std::exp2((10.0 - 0.4) * q);
  const double hi = std::exp2((10.0 + 0.4) * q);
  EXPECT_EQ(quantize_gain(lo, q), 10);
  EXPECT_EQ(quantize_gain(hi, q), 10);
  EXPECT_EQ(problem_signature(one_user_problem(lo), config),
            problem_signature(one_user_problem(hi), config));
}

TEST(SignatureBoundary, GainsStraddlingABucketMidpointGetDistinctKeys) {
  const SignatureConfig config;
  const double q = config.gain_log2_quantum;
  // 1e-9 in the log2 domain: far above the exp2/log2 round-trip error,
  // far below the quantum.  These are "adjacent" at channel-estimation
  // scale (~3e-10 dB apart) yet must separate deterministically.
  const double below = std::exp2((10.5 - 1e-9) * q);
  const double above = std::exp2((10.5 + 1e-9) * q);
  EXPECT_EQ(quantize_gain(below, q), 10);
  EXPECT_EQ(quantize_gain(above, q), 11);
  EXPECT_NE(problem_signature(one_user_problem(below), config),
            problem_signature(one_user_problem(above), config));
}

TEST(SignatureBoundary, AdjacentDoublesAtTheMidpointAreDeterministic) {
  // At one-ULP spacing the log/exp round trip can place both doubles in
  // either bucket -- the contract is only that each maps to ONE bucket,
  // every time, and the pair never lands more than one bucket apart.
  const double q = SignatureConfig{}.gain_log2_quantum;
  const double mid = std::exp2(10.5 * q);
  const double below = std::nextafter(mid, 0.0);
  const double above = std::nextafter(mid, std::numeric_limits<double>::max());
  const std::int64_t bucket_mid = quantize_gain(mid, q);
  const std::int64_t bucket_below = quantize_gain(below, q);
  const std::int64_t bucket_above = quantize_gain(above, q);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(quantize_gain(mid, q), bucket_mid);
    ASSERT_EQ(quantize_gain(below, q), bucket_below);
    ASSERT_EQ(quantize_gain(above, q), bucket_above);
  }
  EXPECT_LE(bucket_below, bucket_above);
  EXPECT_LE(bucket_above - bucket_below, 1);
  EXPECT_TRUE(bucket_mid == 10 || bucket_mid == 11);
}

TEST(SignatureBoundary, NonPositiveGainsMapToTheSentinelBucket) {
  const double q = SignatureConfig{}.gain_log2_quantum;
  const std::int64_t sentinel = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(quantize_gain(0.0, q), sentinel);
  EXPECT_EQ(quantize_gain(-1.0, q), sentinel);
  EXPECT_EQ(quantize_gain(std::numeric_limits<double>::quiet_NaN(), q),
            sentinel);
  // The smallest positive double stays a real (deeply negative) bucket.
  EXPECT_NE(quantize_gain(std::numeric_limits<double>::denorm_min(), q),
            sentinel);
}

TEST(SignatureBoundary, PositiveInfinityHasItsOwnBucket) {
  // llround(log2(+inf) / q) is unspecified (x86-64 returns INT64_MIN, the
  // dead-RB sentinel); +inf gets an explicit bucket of its own instead.
  const SignatureConfig config;
  const double q = config.gain_log2_quantum;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(quantize_gain(inf, q), std::numeric_limits<std::int64_t>::max());
  EXPECT_NE(quantize_gain(inf, q), quantize_gain(0.0, q));
  EXPECT_NE(quantize_gain(inf, q),
            quantize_gain(std::numeric_limits<double>::max(), q));
  // A gain moving between dead and +inf changes the signature.
  EXPECT_NE(problem_signature(one_user_problem(0.0), config),
            problem_signature(one_user_problem(inf), config));
}

TEST(SignatureBoundary, OutOfRangeQuotientsSaturateToTheirOwnBuckets) {
  // With a tiny quantum the quotient leaves the int64 range, where llround
  // is unspecified: it saturates to INT64_MAX - 1 above and INT64_MIN + 1
  // below, apart from the +inf and dead-RB buckets.
  const double q = 1e-300;
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(quantize_gain(2.0, q), max - 1);
  EXPECT_EQ(quantize_gain(std::numeric_limits<double>::max(), q), max - 1);
  EXPECT_EQ(quantize_gain(0.5, q), min + 1);
  EXPECT_EQ(quantize_gain(std::numeric_limits<double>::denorm_min(), q),
            min + 1);
  EXPECT_EQ(quantize_gain(1.0, q), 0);
  EXPECT_EQ(quantize_gain(std::numeric_limits<double>::infinity(), q), max);
  EXPECT_EQ(quantize_gain(0.0, q), min);
  // At q = 2^-62 the quotient is exactly +-2^62 for g = 4^(+-1/2) and
  // +-2^63 for g = 4^(+-1): the former are real buckets, the latter
  // saturate (llround(-2^63) would alias the dead-RB sentinel).
  const double q62 = 0x1p-62;
  EXPECT_EQ(quantize_gain(2.0, q62), std::int64_t{1} << 62);
  EXPECT_EQ(quantize_gain(0.5, q62), -(std::int64_t{1} << 62));
  EXPECT_EQ(quantize_gain(4.0, q62), max - 1);
  EXPECT_EQ(quantize_gain(0.25, q62), min + 1);
}

TEST(SignatureBoundary, TenThousandRandomProblemsDoNotCollide) {
  // Collision sanity over problems whose gains span six orders of
  // magnitude: 10k draws into a 64-bit space should stay collision-free
  // (expected collisions ~ 1e4^2 / 2^65 ~ 3e-12).
  const auto gen_gain = testkit::gen_log_uniform(1e-3, 1e3);
  num::Rng rng(0xb0d1ull);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t users = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    const std::size_t rbs = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    RraProblem problem;
    problem.gain = num::Matrix(users, rbs);
    for (std::size_t u = 0; u < users; ++u)
      for (std::size_t rb = 0; rb < rbs; ++rb)
        problem.gain(u, rb) = gen_gain.sample(rng);
    problem.total_power = rng.uniform(0.5, 4.0);
    problem.min_rate = Vec(users, 0.0);
    for (std::size_t u = 0; u < users; ++u)
      problem.min_rate[u] = rng.uniform(0.0, 0.05);
    seen.insert(problem_signature(problem));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(SignatureBoundary, SignatureIsStableAcrossRepeatedEvaluation) {
  const auto gen_gain = testkit::gen_log_uniform(1e-2, 1e2);
  num::Rng rng(0x51617ull);
  RraProblem problem;
  problem.gain = num::Matrix(3, 5);
  for (std::size_t u = 0; u < 3; ++u)
    for (std::size_t rb = 0; rb < 5; ++rb)
      problem.gain(u, rb) = gen_gain.sample(rng);
  problem.total_power = 2.0;
  problem.min_rate = Vec{0.01, 0.0, 0.02};
  const std::uint64_t first = problem_signature(problem);
  for (int i = 0; i < 50; ++i)
    ASSERT_EQ(problem_signature(problem), first);
}

}  // namespace
}  // namespace rcr::serve
