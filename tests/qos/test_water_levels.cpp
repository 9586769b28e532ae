// Water levels in rcr::qos: waterfill, the QoS floor powers of
// qos_power_allocation / minimum_power_for_qos, and the residual fill are
// exact solves.  These tests hold them to their optimality conditions over a
// seeded sweep, to the degenerate inputs the service can hand them, and to
// scale invariance: gains x s with budget / s is the same physical problem.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "rcr/numerics/rng.hpp"
#include "rcr/qos/rra.hpp"
#include "rcr/testkit/ulp.hpp"

namespace rcr::qos {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double sum(const Vec& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc;
}

// Gains log-uniform over 1e-6..1e6, about one in six exactly zero.
Vec sweep_gains(std::size_t n, num::Rng& rng) {
  Vec g(n);
  for (double& x : g)
    x = rng.bernoulli(1.0 / 6.0) ? 0.0 : std::pow(10.0, rng.uniform(-6, 6));
  return g;
}

constexpr std::size_t kSweepSizes[] = {1, 2, 12, 48, 192};
constexpr std::uint64_t kSweepSeeds = 12;

TEST(WaterLevels, WaterfillMeetsKktConditionsExactly) {
  for (std::size_t n : kSweepSizes) {
    for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
      SCOPED_TRACE("n " + std::to_string(n) + " seed " + std::to_string(seed));
      num::Rng rng(seed * 1000 + n);
      const Vec g = sweep_gains(n, rng);
      const double budget = std::pow(10.0, rng.uniform(-3, 3));
      const Vec p = waterfill(g, budget);
      ASSERT_EQ(p.size(), n);

      double level = -1.0;
      for (std::size_t i = 0; i < n; ++i)
        if (p[i] > 0.0) level = p[i] + 1.0 / g[i];
      if (level < 0.0) {  // every gain zero: nothing to fill
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(g[i], 0.0);
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_GE(p[i], 0.0);
        if (g[i] == 0.0) {
          EXPECT_EQ(p[i], 0.0) << "rb " << i;
        } else if (p[i] > 0.0) {
          EXPECT_NEAR(p[i] + 1.0 / g[i], level, 1e-14 * level) << "rb " << i;
        } else {
          EXPECT_GE(1.0 / g[i], level * (1.0 - 1e-14)) << "rb " << i;
        }
      }
      EXPECT_LE(testkit::ulp_distance(sum(p), budget), n);
    }
  }
}

// Round-robin assignment with a floor on every user.
Assignment round_robin(std::size_t rbs, std::size_t users) {
  Assignment a(rbs);
  for (std::size_t rb = 0; rb < rbs; ++rb) a[rb] = rb % users;
  return a;
}

TEST(WaterLevels, FloorPowersMeetTheirTargetsExactly) {
  constexpr std::size_t kUsers = 3;
  for (std::size_t n : kSweepSizes) {
    for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
      SCOPED_TRACE("n " + std::to_string(n) + " seed " + std::to_string(seed));
      num::Rng rng(seed * 7919 + n);
      RraProblem p;
      p.gain = Matrix(kUsers, n);
      for (std::size_t u = 0; u < kUsers; ++u) {
        const Vec row = sweep_gains(n, rng);
        for (std::size_t rb = 0; rb < n; ++rb) p.gain(u, rb) = row[rb];
      }
      p.min_rate = Vec(kUsers, 0.0);
      for (double& r : p.min_rate) r = rng.uniform(0.1, 6.0);
      const Assignment a = round_robin(n, kUsers);

      const auto needed = minimum_power_for_qos(p, a);
      bool servable = true;  // every user holds an RB with a positive gain
      for (std::size_t u = 0; u < kUsers; ++u) {
        bool usable = false;
        for (std::size_t rb = 0; rb < n; ++rb)
          usable = usable || (a[rb] == u && p.gain(u, rb) > 0.0);
        servable = servable && usable;
      }
      ASSERT_EQ(needed.has_value(), servable);
      if (!servable) continue;

      // A budget of exactly the floor power leaves no residual to fill, so
      // qos_power_allocation returns the floor powers themselves.
      p.total_power = *needed;
      const auto power = qos_power_allocation(p, a);
      ASSERT_TRUE(power.has_value());
      EXPECT_EQ(sum(*power), *needed);
      const Vec rates = per_user_rates(p, a, *power);
      for (std::size_t u = 0; u < kUsers; ++u)
        EXPECT_NEAR(rates[u], p.min_rate[u], 1e-12 * p.min_rate[u])
            << "user " << u;
    }
  }
}

TEST(WaterLevels, ResidualFillLevelsEveryRbAboveItsFloor) {
  // Phase 2 water-fills the budget left after the floors over
  // 1/g + p_floor: the RBs it tops up share one level, the others sit at or
  // above it.
  RraProblem p;
  num::Rng rng(17);
  p.gain = Matrix(2, 12);
  for (std::size_t u = 0; u < 2; ++u)
    for (std::size_t rb = 0; rb < 12; ++rb)
      p.gain(u, rb) = std::pow(10.0, rng.uniform(-1, 1));
  p.min_rate = {3.0, 0.0};
  const Assignment a = round_robin(12, 2);
  const double floor_power = *minimum_power_for_qos(p, a);
  p.total_power = 3.0 * floor_power;

  RraProblem floors_only = p;
  floors_only.total_power = floor_power;
  const Vec p0 = *qos_power_allocation(floors_only, a);
  const Vec pw = *qos_power_allocation(p, a);
  EXPECT_LE(testkit::ulp_distance(sum(pw), p.total_power), 12u);
  double level = -1.0;
  for (std::size_t rb = 0; rb < 12; ++rb)
    if (pw[rb] > p0[rb]) level = pw[rb] + 1.0 / p.gain(a[rb], rb);
  ASSERT_GT(level, 0.0);
  for (std::size_t rb = 0; rb < 12; ++rb) {
    const double floor = 1.0 / p.gain(a[rb], rb) + p0[rb];
    if (pw[rb] > p0[rb])
      EXPECT_NEAR(pw[rb] + 1.0 / p.gain(a[rb], rb), level, 1e-14 * level);
    else
      EXPECT_GE(floor, level * (1.0 - 1e-14));
  }
}

// The same physical problem at gains x s and budget / s: identical
// feasibility and rates, powers scaled by 1/s.
TEST(WaterLevels, ScaleInvariantAcrossGainScales) {
  RraProblem base;
  num::Rng rng(23);
  base.gain = Matrix(3, 12);
  for (std::size_t u = 0; u < 3; ++u)
    for (std::size_t rb = 0; rb < 12; ++rb)
      base.gain(u, rb) = std::pow(10.0, rng.uniform(-1, 1));
  base.total_power = 4.0;
  base.min_rate = {1.0, 2.0, 0.5};
  const Assignment a = round_robin(12, 3);
  const RraSolution ref = evaluate_assignment(base, a);
  const double ref_floor = *minimum_power_for_qos(base, a);
  ASSERT_TRUE(ref.feasible);

  for (double s : {1e-13, 1e-6, 1.0, 1e6}) {
    SCOPED_TRACE(testing::Message() << "scale " << s);
    RraProblem scaled = base;
    for (double& g : scaled.gain.data()) g *= s;
    scaled.total_power = base.total_power / s;

    ASSERT_TRUE(qos_power_allocation(scaled, a).has_value());
    const auto floor = minimum_power_for_qos(scaled, a);
    ASSERT_TRUE(floor.has_value());
    EXPECT_NEAR(*floor * s, ref_floor, 1e-12 * ref_floor);

    const RraSolution sol = evaluate_assignment(scaled, a);
    EXPECT_EQ(sol.feasible, ref.feasible);
    for (std::size_t u = 0; u < 3; ++u)
      EXPECT_NEAR(sol.user_rate[u], ref.user_rate[u], 1e-12 * ref.user_rate[u])
          << "user " << u;
    for (std::size_t rb = 0; rb < 12; ++rb)
      EXPECT_NEAR(sol.power[rb] * s, ref.power[rb], 1e-12 * base.total_power)
          << "rb " << rb;
  }
}

// Degenerate inputs reach waterfill from the service (the signature
// quantizer gives +inf gains a bucket of their own).
TEST(WaterLevels, WaterfillDegenerateInputs) {
  EXPECT_TRUE(waterfill({}, 1.0).empty());
  EXPECT_EQ(waterfill({0.0, 0.0}, 1.0), Vec({0.0, 0.0}));
  for (double budget : {0.0, -1.0, kNaN})
    EXPECT_EQ(waterfill({1.0, 2.0}, budget), Vec({0.0, 0.0}));

  // A NaN (or negative) gain is skipped like a zero one.
  const Vec with_nan = waterfill({kNaN, 1.0, -2.0, 3.0}, 2.0);
  const Vec without = waterfill({1.0, 3.0}, 2.0);
  EXPECT_EQ(with_nan[0], 0.0);
  EXPECT_EQ(with_nan[2], 0.0);
  EXPECT_NEAR(with_nan[1], without[0], 1e-12);
  EXPECT_NEAR(with_nan[3], without[1], 1e-12);

  // +inf gains have floor 0: they split the budget before any finite gain
  // whose floor the level does not reach.
  const Vec inf = waterfill({kInf, kInf, 0.5}, 1.0);
  EXPECT_NEAR(inf[0], 0.5, 1e-12);
  EXPECT_NEAR(inf[1], 0.5, 1e-12);
  EXPECT_EQ(inf[2], 0.0);
}

RraProblem two_user_problem(double g00, double g01) {
  RraProblem p;
  p.gain = Matrix(2, 3);
  p.gain(0, 0) = g00;
  p.gain(0, 1) = g01;
  p.gain(0, 2) = 0.1;
  p.gain(1, 0) = 0.1;
  p.gain(1, 1) = 0.1;
  p.gain(1, 2) = 2.0;
  p.total_power = 1.0;
  p.min_rate = {2.0, 0.5};
  return p;
}

TEST(WaterLevels, FloorWithoutAPowerAnswerIsInfeasible) {
  const Assignment a = {0, 0, 1};
  for (double bad : {0.0, kNaN}) {
    const RraProblem p = two_user_problem(bad, bad);
    EXPECT_FALSE(minimum_power_for_qos(p, a).has_value());
    EXPECT_FALSE(qos_power_allocation(p, a).has_value());
    const RraSolution sol = evaluate_assignment(p, a);
    EXPECT_FALSE(sol.feasible);
  }
  // A floor whose water level overflows a double has no power answer.
  RraProblem p = two_user_problem(1.0, 0.5);
  p.min_rate = {5000.0, 0.0};
  EXPECT_FALSE(minimum_power_for_qos(p, a).has_value());
  EXPECT_FALSE(qos_power_allocation(p, a).has_value());
}

TEST(WaterLevels, InfiniteGainMeetsItsFloorAtNoCost) {
  RraProblem p = two_user_problem(kInf, 0.5);
  const Assignment a = {0, 0, 1};
  p.min_rate = {2.0, 0.0};
  const auto needed = minimum_power_for_qos(p, a);
  ASSERT_TRUE(needed.has_value());
  EXPECT_LE(*needed, 1e-50);

  p.min_rate = {2.0, 0.5};
  const RraSolution sol = evaluate_assignment(p, a);
  EXPECT_TRUE(sol.feasible);
  EXPECT_EQ(sol.user_rate[0], kInf);
  EXPECT_EQ(sol.sum_rate, kInf);
  EXPECT_NEAR(sum(sol.power), 1.0, 1e-12);
}

}  // namespace
}  // namespace rcr::qos
