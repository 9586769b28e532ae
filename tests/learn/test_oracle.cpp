// Differential-oracle battery fencing the learned warm-start head
// (ISSUE satellite 1; extends the PR-8 warm-rejection counter tests).
//
// Over 1k+ seeded serving problems the suite bounds the learned head three
// ways against the exact solver:
//  - feasibility: every projected prediction is inside the box, dual
//    finite -- 100%, no tolerance games;
//  - optimality gap: the predicted primal's objective is within a fixed
//    normalized bound of the exact solver's, and never meaningfully below
//    it (the exact solve is the reference, not a competitor);
//  - contract: ADMM warm-started from an accepted learned state converges
//    to the same answer as a cold solve (bounded by the solver tolerance),
//    and a *corrupted* learned state is rejected bit-for-bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "rcr/learn/artifact.hpp"
#include "rcr/learn/project.hpp"
#include "rcr/learn/train.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/serve/workload.hpp"

namespace rcr::learn {
namespace {

const char* kGoldenPath = RCR_GOLDEN_DIR "/learn_warm_v1.txt";

/// Normalized objective-gap bound for the raw prediction (before the exact
/// solver runs).  The chain stays sound for any value -- this pins model
/// quality so a regression in training shows up as a test failure.
constexpr double kGapBound = 0.05;

WarmStartPredictor golden() {
  const robust::Result<WarmStartPredictor> loaded =
      load_predictor(kGoldenPath);
  EXPECT_TRUE(loaded.status.ok()) << loaded.status.to_string();
  return loaded.value;
}

std::vector<PowerQpData> oracle_dataset() {
  serve::WorkloadConfig wc;
  wc.num_cells = 16;
  wc.seed = 90210;  // disjoint from the training workload's seed
  return serve::sample_power_qps(wc, 64);  // 16 x 64 = 1024 problems
}

opt::AdmmResult exact_solve(const PowerQpData& data,
                            opt::AdmmWarmState* warm = nullptr) {
  const std::size_t n = data.n;
  num::Matrix p(n, n, 2.0 * data.lambda);
  for (std::size_t i = 0; i < n; ++i) p(i, i) += data.curv[i];
  opt::AdmmOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 20000;
  const opt::BoxQpFactor factor = opt::prefactor_box_qp(p, options.rho);
  return opt::admm_box_qp(p, factor, data.slope, data.lo, data.hi, options,
                          warm);
}

TEST(LearnOracle, ThousandProblemFeasibilityAndGapSweep) {
  const WarmStartPredictor predictor = golden();
  ASSERT_TRUE(predictor.shape_ok());
  const std::vector<PowerQpData> dataset = oracle_dataset();
  ASSERT_GE(dataset.size(), 1000u);

  std::size_t feasible = 0;
  double worst_gap = 0.0;
  Vec z, u, scratch;
  for (const PowerQpData& data : dataset) {
    const PowerQp qp = data.view();
    z.resize(qp.n);
    u.resize(qp.n);
    scratch.resize(2 * qp.n);
    predict_warm_start(qp, predictor, 1.0, z.data(), u.data(),
                       scratch.data());
    bool ok = box_feasible(z, data.lo, data.hi);
    for (double x : u) ok = ok && std::isfinite(x);
    feasible += ok ? 1 : 0;

    const opt::AdmmResult exact = exact_solve(data);
    ASSERT_TRUE(exact.status.usable());
    const double f_pred = qp_objective(qp, z.data());
    const double f_star = qp_objective(qp, exact.x.data());
    const double gap = (f_pred - f_star) / (1.0 + std::abs(f_star));
    EXPECT_GE(gap, -1e-8) << "prediction below the exact optimum";
    worst_gap = std::max(worst_gap, gap);
  }
  // 100% feasible, no exceptions: the projection is part of the predictor.
  EXPECT_EQ(feasible, dataset.size());
  EXPECT_LE(worst_gap, kGapBound);
}

TEST(LearnOracle, WarmStartedExactMatchesColdExactAfterAcceptance) {
  const WarmStartPredictor predictor = golden();
  const std::vector<PowerQpData> dataset = oracle_dataset();
  std::size_t accepted = 0;
  Vec z, u, scratch;
  for (std::size_t i = 0; i < 128; ++i) {
    const PowerQpData& data = dataset[i];
    const PowerQp qp = data.view();
    z.resize(qp.n);
    u.resize(qp.n);
    scratch.resize(2 * qp.n);
    predict_warm_start(qp, predictor, 1.0, z.data(), u.data(),
                       scratch.data());

    const opt::AdmmResult cold = exact_solve(data);
    opt::AdmmWarmState warm;
    warm.z.assign(z.begin(), z.end());
    warm.u.assign(u.begin(), u.end());
    const opt::AdmmResult warm_result = exact_solve(data, &warm);
    ASSERT_TRUE(warm_result.status.usable());
    ASSERT_EQ(warm_result.warm_use, opt::WarmUse::kAccepted);
    ++accepted;
    // Both runs hit the same fixed point to solver tolerance: the warm
    // start changes the path, never the destination.
    EXPECT_NEAR(warm_result.objective, cold.objective,
                1e-6 * (1.0 + std::abs(cold.objective)));
    for (std::size_t j = 0; j < qp.n; ++j)
      EXPECT_NEAR(warm_result.x[j], cold.x[j], 1e-5)
          << "problem " << i << " coordinate " << j;
    // And the learned start must not cost iterations vs. cold.
    EXPECT_LE(warm_result.iterations, cold.iterations) << "problem " << i;
  }
  EXPECT_EQ(accepted, 128u);
}

TEST(LearnOracle, CorruptedLearnedStateIsRejectedBitForBit) {
  // The PR-8 rejection contract applied to learned states: a corrupt
  // prediction fed to the exact solver leaves the answer bit-identical to
  // a cold solve.
  const std::vector<PowerQpData> dataset = oracle_dataset();
  const PowerQpData& data = dataset[0];
  const opt::AdmmResult cold = exact_solve(data);

  opt::AdmmWarmState corrupt;
  corrupt.z.assign(data.n, 0.0);
  corrupt.u.assign(data.n, 0.0);
  corrupt.z[0] = std::numeric_limits<double>::quiet_NaN();
  const opt::AdmmResult r = exact_solve(data, &corrupt);
  EXPECT_EQ(r.warm_use, opt::WarmUse::kRejected);
  EXPECT_EQ(r.iterations, cold.iterations);
  for (std::size_t i = 0; i < data.n; ++i)
    ASSERT_EQ(std::memcmp(&r.x[i], &cold.x[i], sizeof(double)), 0);
}

}  // namespace
}  // namespace rcr::learn
