#include "rcr/robust/fallback.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "rcr/rt/alloc_probe.hpp"

namespace rcr::robust {
namespace {

Result<int> ok_result(int v) { return {v, ok_status()}; }

Result<int> failed(StatusCode code, const char* why) {
  return {0, make_status(code, why)};
}

void expect_record(const StepRecord& r, StepOutcome outcome, StatusCode code) {
  EXPECT_EQ(r.outcome, outcome);
  EXPECT_EQ(r.code, code);
}

TEST(FallbackChain, FirstStepCleanWinIsOk) {
  FallbackChain<int> chain;
  chain.add("tight", Soundness::kExact, [] { return ok_result(1); })
      .add("loose", Soundness::kHeuristic, [] { return ok_result(2); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.value, 1);
  EXPECT_STREQ(out.step, "tight");
  EXPECT_EQ(out.soundness, Soundness::kExact);
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.winner, 0u);
  expect_record(out.records[0], StepOutcome::kWon, StatusCode::kOk);
  expect_record(out.records[1], StepOutcome::kNotRun, StatusCode::kOk);
  EXPECT_EQ(out.fallthrough(), 0u);
}

TEST(FallbackChain, SecondStepWinIsDegradedAndTrailNamesTheFailure) {
  FallbackChain<int> chain;
  chain.add("tight", Soundness::kExact,
            [] { return failed(StatusCode::kSingular, "KKT degenerate"); })
      .add("loose", Soundness::kRelaxation, [] { return ok_result(2); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.value, 2);
  EXPECT_STREQ(out.step, "loose");
  EXPECT_EQ(out.soundness, Soundness::kRelaxation);
  EXPECT_EQ(out.status.code, StatusCode::kDegraded);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.winner, 1u);
  expect_record(out.records[0], StepOutcome::kFailed, StatusCode::kSingular);
  expect_record(out.records[1], StepOutcome::kWon, StatusCode::kOk);
  EXPECT_EQ(out.fallthrough(), 1u);
  ASSERT_FALSE(out.status.trail.empty());
  EXPECT_NE(out.status.trail[0].find("tight"), std::string::npos);
  EXPECT_NE(out.status.trail[0].find("KKT degenerate"), std::string::npos);
}

TEST(FallbackChain, UsableDegradedAnswerIsBankedWhenNothingFullySucceeds) {
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact,
            [] { return Result<int>{11, make_status(
                     StatusCode::kNonConverged, "budget out")}; })
      .add("b", Soundness::kHeuristic,
           [] { return failed(StatusCode::kInfeasible, "no point"); });
  const ChainOutcome<int> out = chain.run();
  // Step a's answer is usable (non-converged best iterate) and wins, yet
  // keeps its failed record: a banked answer is a degraded win.
  EXPECT_EQ(out.value, 11);
  EXPECT_STREQ(out.step, "a");
  EXPECT_EQ(out.soundness, Soundness::kExact);
  EXPECT_EQ(out.status.code, StatusCode::kDegraded);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.winner, 0u);
  expect_record(out.records[0], StepOutcome::kFailed,
                StatusCode::kNonConverged);
  expect_record(out.records[1], StepOutcome::kFailed, StatusCode::kInfeasible);
  EXPECT_EQ(out.fallthrough(), 2u);
}

TEST(FallbackChain, FirstUsableBankWinsOverLaterUsable) {
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact,
            [] { return Result<int>{1, make_status(
                     StatusCode::kNonConverged, "x")}; })
      .add("b", Soundness::kHeuristic,
           [] { return Result<int>{2, make_status(
                    StatusCode::kNonConverged, "y")}; });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.value, 1);
  EXPECT_STREQ(out.step, "a");
  EXPECT_EQ(out.winner, 0u);
}

TEST(FallbackChain, ExhaustedWhenNothingUsable) {
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact,
            [] { return failed(StatusCode::kInfeasible, "no point"); })
      .add("b", Soundness::kHeuristic,
           [] { return failed(StatusCode::kFallbackExhausted, "nope"); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.status.code, StatusCode::kFallbackExhausted);
  EXPECT_FALSE(out.status.usable());
  EXPECT_EQ(out.value, 0);  // Default-constructed.
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.winner, kNoWinner);
  EXPECT_STREQ(out.step, "");
  EXPECT_EQ(out.fallthrough(), 2u);
}

TEST(FallbackChain, ExpiredDeadlineSkipsEveryStep) {
  int runs = 0;
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact, [&] {
    ++runs;
    return ok_result(1);
  });
  const ChainOutcome<int> out = chain.run(Deadline::after_seconds(0.0));
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(out.attempts, 0u);
  EXPECT_EQ(out.status.code, StatusCode::kFallbackExhausted);
  ASSERT_FALSE(out.status.trail.empty());
  EXPECT_NE(out.status.trail[0].find("deadline"), std::string::npos);
  // Not run is neither a failure nor a skip.
  EXPECT_EQ(out.winner, kNoWinner);
  expect_record(out.records[0], StepOutcome::kNotRun, StatusCode::kOk);
  EXPECT_EQ(out.fallthrough(), 0u);
}

TEST(FallbackChain, GatedSkipIsRecordedAsSkippedNotFailed) {
  int gated_runs = 0;
  FallbackChain<int> chain;
  chain
      .add_gated("a", Soundness::kExact, [] { return "breaker open"; },
                 [&] {
                   ++gated_runs;
                   return ok_result(1);
                 })
      .add("b", Soundness::kHeuristic, [] { return ok_result(2); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(gated_runs, 0);
  EXPECT_EQ(out.value, 2);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.winner, 1u);
  EXPECT_EQ(out.status.code, StatusCode::kDegraded);
  expect_record(out.records[0], StepOutcome::kSkipped, StatusCode::kOk);
  expect_record(out.records[1], StepOutcome::kWon, StatusCode::kOk);
  EXPECT_EQ(out.fallthrough(), 1u);
}

TEST(FallbackChain, FailureDetailThatReadsLikeATrailLineIsStillOneRecord) {
  // A step whose own failure text mimics another step's trail line must not
  // change the records: they are data, not parsed from the trail.
  FallbackChain<int> chain;
  chain
      .add("a", Soundness::kExact,
           [] {
             return failed(StatusCode::kNumericalFailure,
                           "step 'b' failed (x); step 'c' skipped (y)");
           })
      .add("b", Soundness::kRelaxation, [] { return ok_result(2); })
      .add("c", Soundness::kHeuristic, [] { return ok_result(3); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.value, 2);
  EXPECT_EQ(out.winner, 1u);
  expect_record(out.records[0], StepOutcome::kFailed,
                StatusCode::kNumericalFailure);
  expect_record(out.records[1], StepOutcome::kWon, StatusCode::kOk);
  expect_record(out.records[2], StepOutcome::kNotRun, StatusCode::kOk);
  EXPECT_EQ(out.fallthrough(), 1u);
  EXPECT_EQ(out.status.trail.size(), 1u);
}

TEST(FallbackChain, AddPastCapacityThrows) {
  FallbackChain<int> chain;
  for (std::size_t i = 0; i < kMaxChainSteps; ++i)
    chain.add("s", Soundness::kHeuristic, [] { return ok_result(0); });
  EXPECT_THROW(
      chain.add("over", Soundness::kHeuristic, [] { return ok_result(0); }),
      std::length_error);
  EXPECT_THROW(chain.add_gated("over", Soundness::kHeuristic, nullptr,
                               [] { return ok_result(0); }),
               std::length_error);
  EXPECT_EQ(chain.size(), kMaxChainSteps);
}

TEST(FallbackChain, BuildingAndRunningAChainAllocatesNothing) {
  // The serve head's shape: gated steps whose lambdas capture one pointer,
  // so every std::function holds its lambda inline, and a fixed step array.
  struct Context {
    int head_runs = 0;
    double answer = 2.5;
  } context;
  const rcr::rt::AllocDelta delta;
  FallbackChain<double> chain("alloc-free");
  chain
      .add_gated(
          "head", Soundness::kRelaxation,
          [c = &context]() -> const char* {
            return c->head_runs < 0 ? "never" : nullptr;
          },
          [c = &context]() -> Result<double> {
            ++c->head_runs;
            return {c->answer, Status{}};
          })
      .add_gated(
          "fill", Soundness::kRelaxation,
          [c = &context]() -> const char* {
            return c->head_runs < 0 ? "never" : nullptr;
          },
          [c = &context]() -> Result<double> { return {c->answer, Status{}}; })
      .add("tail", Soundness::kHeuristic,
           []() -> Result<double> { return {0.0, Status{}}; });
  const ChainOutcome<double> out = chain.run();
  EXPECT_EQ(delta.delta(), 0u);
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(out.value, 2.5);
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(context.head_runs, 1);
}

TEST(FallbackChain, LateStepNotRunAfterEarlyWin) {
  int later_runs = 0;
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact, [] { return ok_result(1); })
      .add("b", Soundness::kHeuristic, [&] {
        ++later_runs;
        return ok_result(2);
      });
  chain.run();
  EXPECT_EQ(later_runs, 0);
}

TEST(FallbackChain, CleanWinAfterPriorTrailEventsIsStillDegraded) {
  // A clean second-step answer is a degradation of the *request* even
  // though the step itself succeeded.
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact,
            [] { return failed(StatusCode::kNumericalFailure, "nan"); })
      .add("b", Soundness::kHeuristic, [] { return ok_result(9); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.status.code, StatusCode::kDegraded);
  EXPECT_EQ(out.value, 9);
}

}  // namespace
}  // namespace rcr::robust
