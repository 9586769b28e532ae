#include <gtest/gtest.h>

#include <limits>

#include "rcr/qos/rra.hpp"

namespace rcr::qos {
namespace {

RraProblem problem_with_floors(std::uint64_t seed, std::size_t users,
                               std::size_t rbs, double min_rate) {
  ChannelConfig cfg;
  cfg.num_users = users;
  cfg.num_rbs = rbs;
  cfg.seed = seed;
  RraProblem p;
  p.gain = make_channel(cfg).gain;
  p.total_power = 1.0;
  p.min_rate = Vec(users, min_rate);
  return p;
}

TEST(MinPower, UnservedConstrainedUserIsInfeasible) {
  const RraProblem p = problem_with_floors(1, 2, 4, 0.5);
  EXPECT_FALSE(minimum_power_for_qos(p, {0, 0, 0, 0}).has_value());
}

TEST(MinPower, ZeroFloorsNeedZeroPower) {
  const RraProblem p = problem_with_floors(2, 2, 4, 0.0);
  const auto power = minimum_power_for_qos(p, {0, 1, 0, 1});
  ASSERT_TRUE(power.has_value());
  EXPECT_DOUBLE_EQ(*power, 0.0);
}

TEST(MinPower, MonotoneInQosFloor) {
  const Assignment a = {0, 1, 0, 1};
  double prev = 0.0;
  for (double floor : {0.2, 0.5, 1.0, 2.0}) {
    const RraProblem p = problem_with_floors(3, 2, 4, floor);
    const auto power = minimum_power_for_qos(p, a);
    ASSERT_TRUE(power.has_value()) << "floor " << floor;
    EXPECT_GT(*power, prev);
    prev = *power;
  }
}

TEST(MinPower, AchievedPowerActuallyMeetsFloors) {
  // Re-run the QoS power allocation with exactly the minimal budget: it must
  // be feasible (up to the bisection tolerance).
  RraProblem p = problem_with_floors(4, 3, 6, 0.6);
  const Assignment a = {0, 1, 2, 0, 1, 2};
  const auto power = minimum_power_for_qos(p, a);
  ASSERT_TRUE(power.has_value());
  p.total_power = *power * (1.0 + 1e-6);
  EXPECT_TRUE(qos_power_allocation(p, a).has_value());
  // And strictly below it, infeasible.
  p.total_power = *power * 0.9;
  EXPECT_FALSE(qos_power_allocation(p, a).has_value());
}

TEST(MinPower, ExactMatchesBruteForceOnTinyInstance) {
  const RraProblem p = problem_with_floors(5, 2, 4, 0.5);
  const MinPowerSolution exact = solve_min_power_exact(p);
  ASSERT_TRUE(exact.feasible);
  double best = 1e300;
  for (std::size_t mask = 0; mask < 16; ++mask) {
    Assignment a(4);
    for (std::size_t rb = 0; rb < 4; ++rb) a[rb] = (mask >> rb) & 1u;
    const auto power = minimum_power_for_qos(p, a);
    if (power) best = std::min(best, *power);
  }
  EXPECT_NEAR(exact.power, best, 1e-9);
}

TEST(MinPower, GreedyNeverBeatsExact) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RraProblem p = problem_with_floors(seed, 3, 6, 0.4);
    const MinPowerSolution exact = solve_min_power_exact(p);
    const MinPowerSolution greedy = solve_min_power_greedy(p);
    ASSERT_TRUE(exact.feasible) << "seed " << seed;
    if (greedy.feasible) {
      EXPECT_GE(greedy.power, exact.power - 1e-9) << "seed " << seed;
    }
  }
}

TEST(MinPower, GreedyServesEveryUser) {
  const RraProblem p = problem_with_floors(7, 3, 7, 0.3);
  const MinPowerSolution greedy = solve_min_power_greedy(p);
  EXPECT_TRUE(greedy.feasible);
  std::vector<bool> served(3, false);
  for (std::size_t u : greedy.assignment) served[u] = true;
  for (bool s : served) EXPECT_TRUE(s);
}

// validate() admits NaN gains, so a column that is NaN for every user is a
// valid problem no round-robin pick can take; the greedy must still end
// with every RB assigned (the all-NaN column to user 0).
TEST(MinPower, GreedyAssignsAnAllNanColumn) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RraProblem p;
  p.gain = Matrix(2, 2, 0.0);
  p.gain(0, 0) = 0.8;
  p.gain(1, 0) = 0.5;
  p.gain(0, 1) = nan;
  p.gain(1, 1) = nan;
  p.total_power = 1.0;
  p.min_rate = Vec(2, 0.0);
  ASSERT_NO_THROW(p.validate());
  const MinPowerSolution sol = solve_min_power_greedy(p);
  ASSERT_EQ(sol.assignment.size(), 2u);
  EXPECT_EQ(sol.assignment[0], 0u);
  EXPECT_EQ(sol.assignment[1], 0u);
}

TEST(MinPower, GreedyAssignsALeadingAllNanColumn) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RraProblem p = problem_with_floors(9, 3, 4, 0.0);
  for (std::size_t u = 0; u < 3; ++u) p.gain(u, 0) = nan;
  ASSERT_NO_THROW(p.validate());
  const MinPowerSolution sol = solve_min_power_greedy(p);
  ASSERT_EQ(sol.assignment.size(), 4u);
  EXPECT_EQ(sol.assignment[0], 0u);
  for (std::size_t u : sol.assignment) EXPECT_LT(u, 3u);
}

TEST(MinPower, AdmissionDecisionConsistentWithSumRateSolver) {
  // If min power exceeds the budget, the sum-rate solver must also find the
  // problem infeasible under any assignment it returns.
  RraProblem p = problem_with_floors(8, 3, 5, 3.0);  // harsh floors
  const MinPowerSolution mp = solve_min_power_exact(p);
  if (mp.feasible && mp.power > p.total_power) {
    const RraSolution sr = solve_exact(p);
    EXPECT_FALSE(sr.feasible);
  }
}

}  // namespace
}  // namespace rcr::qos
