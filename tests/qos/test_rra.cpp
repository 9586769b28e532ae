#include "rcr/qos/rra.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace rcr::qos {
namespace {

RraProblem small_problem(std::uint64_t seed = 1, std::size_t users = 3,
                         std::size_t rbs = 5, double min_rate = 0.0) {
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

TEST(RraProblem, ValidationErrors) {
  RraProblem p = small_problem();
  EXPECT_NO_THROW(p.validate());
  p.total_power = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.total_power = 1.0;
  p.min_rate.pop_back();
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Waterfill, BudgetFullySpent) {
  const Vec gains = {1.0, 2.0, 10.0};
  const Vec p = waterfill(gains, 3.0);
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 3.0, 1e-6);
  for (double v : p) EXPECT_GE(v, 0.0);
}

TEST(Waterfill, StrongerChannelsGetAtLeastAsMuchPower) {
  const Vec gains = {0.5, 2.0, 8.0};
  const Vec p = waterfill(gains, 2.0);
  EXPECT_LE(p[0], p[1] + 1e-9);
  EXPECT_LE(p[1], p[2] + 1e-9);
}

TEST(Waterfill, EqualWaterLevelOnActiveChannels) {
  // KKT condition: mu = p_i + 1/g_i equal across channels with p_i > 0.
  const Vec gains = {1.0, 3.0, 7.0};
  const Vec p = waterfill(gains, 5.0);
  Vec levels;
  for (std::size_t i = 0; i < 3; ++i)
    if (p[i] > 1e-9) levels.push_back(p[i] + 1.0 / gains[i]);
  for (std::size_t i = 1; i < levels.size(); ++i)
    EXPECT_NEAR(levels[i], levels[0], 1e-6);
}

TEST(Waterfill, WeakChannelShutOffUnderTightBudget) {
  const Vec gains = {0.001, 100.0};
  const Vec p = waterfill(gains, 0.01);
  EXPECT_NEAR(p[0], 0.0, 1e-9);
  EXPECT_NEAR(p[1], 0.01, 1e-6);
}

TEST(Waterfill, ZeroGainsGetNoPower) {
  const Vec p = waterfill({0.0, 1.0}, 1.0);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_NEAR(p[1], 1.0, 1e-6);
}

TEST(QosPower, MeetsMinRates) {
  const RraProblem p = small_problem(2, 2, 4, 0.8);
  const Assignment a = {0, 1, 0, 1};
  const auto power = qos_power_allocation(p, a);
  ASSERT_TRUE(power.has_value());
  const RraSolution sol = evaluate_assignment(p, a);
  EXPECT_TRUE(sol.feasible);
  for (std::size_t u = 0; u < 2; ++u)
    EXPECT_GE(sol.user_rate[u], 0.8 - 1e-9);
}

TEST(QosPower, InfeasibleWhenUserUnserved) {
  const RraProblem p = small_problem(3, 2, 4, 0.5);
  const Assignment all_to_user0 = {0, 0, 0, 0};
  EXPECT_FALSE(qos_power_allocation(p, all_to_user0).has_value());
}

TEST(QosPower, InfeasibleWhenRatesExceedBudget) {
  RraProblem p = small_problem(4, 2, 4, 0.0);
  p.min_rate = Vec(2, 100.0);  // absurd requirement
  const Assignment a = {0, 1, 0, 1};
  EXPECT_FALSE(qos_power_allocation(p, a).has_value());
}

TEST(EvaluateAssignment, PowerBudgetRespected) {
  const RraProblem p = small_problem(5, 3, 6, 0.3);
  const Assignment a = {0, 1, 2, 0, 1, 2};
  const RraSolution sol = evaluate_assignment(p, a);
  double total = 0.0;
  for (double v : sol.power) total += v;
  EXPECT_LE(total, p.total_power + 1e-6);
  // Sum rate equals the sum of user rates.
  double sum = 0.0;
  for (double r : sol.user_rate) sum += r;
  EXPECT_NEAR(sum, sol.sum_rate, 1e-9);
}

TEST(SolveExact, MatchesBruteForceOnTinyInstance) {
  const RraProblem p = small_problem(6, 2, 4, 0.0);
  const RraSolution exact = solve_exact(p);
  // Brute force.
  double best = -1.0;
  for (std::size_t mask = 0; mask < 16; ++mask) {
    Assignment a(4);
    for (std::size_t rb = 0; rb < 4; ++rb) a[rb] = (mask >> rb) & 1u;
    best = std::max(best, evaluate_assignment(p, a).sum_rate);
  }
  EXPECT_NEAR(exact.sum_rate, best, 1e-9);
  EXPECT_TRUE(exact.feasible);
}

TEST(SolveExact, PrefersFeasibleOverHigherRateInfeasible) {
  // With binding QoS floors, the exact solver must return a feasible
  // solution whenever one exists.
  const RraProblem p = small_problem(7, 3, 6, 0.6);
  const RraSolution sol = solve_exact(p);
  EXPECT_TRUE(sol.feasible);
}

TEST(RelaxationBound, UpperBoundsExact) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RraProblem p = small_problem(seed, 3, 5, 0.2);
    const RraSolution exact = solve_exact(p);
    EXPECT_GE(relaxation_upper_bound(p), exact.sum_rate - 1e-9)
        << "seed " << seed;
  }
}

TEST(SolveGreedy, NeverBeatsExact) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RraProblem p = small_problem(seed, 3, 5, 0.0);
    EXPECT_LE(solve_greedy(p).sum_rate, solve_exact(p).sum_rate + 1e-9)
        << "seed " << seed;
  }
}

TEST(SolveGreedy, MaxGainAssignmentWithoutQos) {
  const RraProblem p = small_problem(8, 3, 5, 0.0);
  const RraSolution sol = solve_greedy(p);
  for (std::size_t rb = 0; rb < 5; ++rb) {
    for (std::size_t u = 0; u < 3; ++u)
      EXPECT_LE(p.gain(u, rb), p.gain(sol.assignment[rb], rb) + 1e-15);
  }
}

TEST(SolveGreedy, RepairImprovesFeasibility) {
  // With QoS floors the repaired greedy should be feasible on most seeds.
  std::size_t feasible = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RraProblem p = small_problem(seed, 3, 6, 0.4);
    if (solve_greedy(p).feasible) ++feasible;
  }
  EXPECT_GE(feasible, 6u);
}

TEST(SolvePso, FindsNearOptimalSolutions) {
  double total_gap = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const RraProblem p = small_problem(seed, 3, 5, 0.2);
    const RraSolution exact = solve_exact(p);
    RraPsoOptions opts;
    opts.seed = seed;
    const RraSolution pso = solve_pso(p, opts);
    EXPECT_LE(pso.sum_rate, exact.sum_rate + 1e-9);
    total_gap += (exact.sum_rate - pso.sum_rate) / exact.sum_rate;
  }
  EXPECT_LT(total_gap / 4.0, 0.10);  // within 10% of optimal on average
}

TEST(SolvePso, MoreQosCompliantThanGreedyAtNearOptimalRate) {
  // Under binding QoS floors, max-gain greedy posts high raw rates by
  // *violating* the per-user minima; the PSO's penalized search stays
  // feasible and tracks the exact feasible optimum.
  std::size_t pso_feasible = 0;
  std::size_t greedy_feasible = 0;
  double worst_gap = 0.0;
  for (std::uint64_t seed = 10; seed <= 15; ++seed) {
    const RraProblem p = small_problem(seed, 4, 6, 0.3);
    RraPsoOptions opts;
    opts.seed = seed;
    opts.swarm_size = 40;
    opts.max_iterations = 250;
    const RraSolution pso = solve_pso(p, opts);
    const RraSolution greedy = solve_greedy(p);
    if (greedy.feasible) ++greedy_feasible;
    if (pso.feasible) {
      ++pso_feasible;
      const RraSolution exact = solve_exact(p);
      worst_gap = std::max(
          worst_gap, (exact.sum_rate - pso.sum_rate) / exact.sum_rate);
    }
  }
  EXPECT_GT(pso_feasible, greedy_feasible);
  EXPECT_GE(pso_feasible, 4u);
  EXPECT_LT(worst_gap, 0.10);
}

TEST(SolveExact, NodeBudgetReported) {
  const RraProblem p = small_problem(9, 2, 4, 0.0);
  const RraSolution sol = solve_exact(p, 1000);
  EXPECT_GT(sol.nodes_explored, 0u);
  EXPECT_LE(sol.nodes_explored, 1000u);
}

// The column scan best_gain_assignment ran before its row pass: validate(),
// then per RB a strict > against the best user so far.
Assignment column_scan(const RraProblem& problem) {
  problem.validate();
  Assignment assignment(problem.num_rbs(), 0);
  for (std::size_t rb = 0; rb < problem.num_rbs(); ++rb) {
    std::size_t best = 0;
    for (std::size_t u = 1; u < problem.num_users(); ++u)
      if (problem.gain(u, rb) > problem.gain(best, rb)) best = u;
    assignment[rb] = best;
  }
  return assignment;
}

/// Both forms of the row pass against the column scan: the same picks, or
/// the same exception with the same message.
void expect_matches_column_scan(const RraProblem& problem) {
  std::string column_error;
  Assignment expected;
  try {
    expected = column_scan(problem);
  } catch (const std::invalid_argument& e) {
    column_error = e.what();
  }
  Assignment reused(3, 99);  // a stale buffer of the wrong length
  try {
    EXPECT_EQ(best_gain_assignment(problem), expected);
    best_gain_assignment(problem, reused);
    EXPECT_EQ(reused, expected);
    EXPECT_TRUE(column_error.empty()) << "the row pass did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), column_error);
  }
}

TEST(BestGainAssignment, RowPassMatchesColumnScan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::uint64_t seed : {1u, 2u, 3u})
    for (std::size_t users : {1u, 2u, 5u, 16u})
      for (std::size_t rbs : {1u, 3u, 48u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " users=" +
                     std::to_string(users) + " rbs=" + std::to_string(rbs));
        RraProblem p = small_problem(seed, users, rbs);
        expect_matches_column_scan(p);
        if (users > 1) {
          // Ties: every user equal on RB 0, users 0 and last equal on RB 1
          // as the best, a -0.0 / +0.0 tie on the last RB.
          for (std::size_t u = 0; u < users; ++u) p.gain(u, 0) = 0.5;
          if (rbs > 1) {
            p.gain(0, 1) = 9.0;
            p.gain(users - 1, 1) = 9.0;
          }
          p.gain(0, rbs - 1) = -0.0;
          for (std::size_t u = 1; u < users; ++u) p.gain(u, rbs - 1) = 0.0;
          expect_matches_column_scan(p);
          // A NaN in user k never wins; a NaN in user 0 is never beaten.
          p.gain(users - 1, 0) = nan;
          p.gain(0, rbs - 1) = nan;
          expect_matches_column_scan(p);
        }
      }
}

TEST(BestGainAssignment, RowPassKeepsValidationErrors) {
  RraProblem p = small_problem(4, 3, 6);
  p.gain(2, 4) = -1e-3;  // a negative gain anywhere, past a NaN too
  p.gain(0, 4) = std::numeric_limits<double>::quiet_NaN();
  expect_matches_column_scan(p);
  p.gain(2, 4) = -0.0;  // -0.0 is not negative
  expect_matches_column_scan(p);
  p.total_power = 0.0;
  expect_matches_column_scan(p);
  p.total_power = 1.0;
  p.min_rate.pop_back();
  expect_matches_column_scan(p);
  RraProblem empty;
  empty.total_power = 1.0;
  expect_matches_column_scan(empty);
}

}  // namespace
}  // namespace rcr::qos
