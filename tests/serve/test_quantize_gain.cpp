// Differential oracle for serve::quantize_gain.
//
// quantize_gain buckets normal gains without calling log2 and defers to the
// reference expression only near a bucket midpoint.  Its contract is exact
// agreement with std::llround(std::log2(g) / q) wherever that expression is
// defined (every positive finite gain, for these quanta), and the explicit
// buckets elsewhere.  The inputs aim at the fast path's weak spots: every
// bucket midpoint in a wide range, +-40 ulps either side, and every quantum
// shape (round, coarse, non-terminating, fine).
#include "rcr/serve/signature.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>

#include "rcr/numerics/rng.hpp"

namespace rcr::serve {
namespace {

constexpr double kQuanta[] = {0.05, 0.01, 0.2, 0.5, 1.0 / 3.0, 1e-3};

/// The reference bucket: llround(log2(g) / q) for positive finite gains
/// (every quotient these quanta produce is in range), the explicit buckets
/// otherwise.
std::int64_t reference(double gain, double q) {
  if (!(gain > 0.0)) return std::numeric_limits<std::int64_t>::min();
  if (std::isinf(gain)) return std::numeric_limits<std::int64_t>::max();
  return std::llround(std::log2(gain) / q);
}

TEST(QuantizeGainDiff, RandomLognormalGainsMatchTheReference) {
  num::Rng rng(0x9a1e5ull);
  std::size_t mismatches = 0;
  std::size_t cases = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double gain = std::exp(rng.normal(0.0, 3.0));
    for (const double q : kQuanta) {
      ++cases;
      if (quantize_gain(gain, q) != reference(gain, q)) {
        if (++mismatches <= 5)
          ADD_FAILURE() << "gain=" << gain << " q=" << q << ": "
                        << quantize_gain(gain, q) << " vs "
                        << reference(gain, q);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
}

TEST(QuantizeGainDiff, FortyUlpsAroundEveryBucketMidpointMatchTheReference) {
  std::size_t mismatches = 0;
  std::size_t cases = 0;
  for (const double q : kQuanta) {
    for (int k = -4000; k < 4000; ++k) {
      // exp2 lands within an ulp or two of the true midpoint; the walk
      // covers it and both sides either way.
      double gain = std::exp2((static_cast<double>(k) + 0.5) * q);
      for (int step = 0; step < 40 && gain > 0.0; ++step)
        gain = std::nextafter(gain, 0.0);
      for (int step = 0; step <= 80; ++step) {
        ++cases;
        if (quantize_gain(gain, q) != reference(gain, q)) {
          if (++mismatches <= 5)
            ADD_FAILURE() << "k=" << k << " step=" << step << " q=" << q
                          << ": " << quantize_gain(gain, q) << " vs "
                          << reference(gain, q);
        }
        gain = std::nextafter(gain, std::numeric_limits<double>::infinity());
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
}

TEST(QuantizeGainDiff, EdgeValuesMatchTheReference) {
  const double edges[] = {0.0,
                          -1.0,
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::denorm_min(),
                          DBL_MIN,
                          std::nextafter(DBL_MIN, 0.0),  // largest subnormal
                          DBL_MAX,
                          1.0,
                          std::numeric_limits<double>::infinity()};
  for (const double q : kQuanta)
    for (const double gain : edges)
      EXPECT_EQ(quantize_gain(gain, q), reference(gain, q))
          << "gain=" << gain << " q=" << q;
}

TEST(QuantizeGainDiff, QuantaBelowTheFastPathStillMatchTheReference) {
  // Fine quanta take the reference expression for every gain.
  num::Rng rng(0x51deull);
  for (const double q : {1e-4, 1e-6}) {
    for (int i = 0; i < 20000; ++i) {
      const double gain = std::exp(rng.normal(0.0, 3.0));
      ASSERT_EQ(quantize_gain(gain, q), reference(gain, q))
          << "gain=" << gain << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace rcr::serve
