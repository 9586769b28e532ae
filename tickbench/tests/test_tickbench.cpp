// Unit tests for the tick benchmark's own helpers and its determinism
// witness.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "bench.hpp"
#include "rcr/rt/thread_pool.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

using rcr::Vec;
using rcr::qos::RraProblem;

RraProblem two_rb_cell(double g0, double g1, double budget) {
  RraProblem p;
  p.gain = rcr::num::Matrix(1, 2);
  p.gain(0, 0) = g0;
  p.gain(0, 1) = g1;
  p.total_power = budget;
  p.min_rate = Vec(1, 0.0);
  return p;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  // 1000 samples: the p99 is 990 and exactly ten samples lie above it.
  const auto p99 = tickbench::percentile(ramp(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);
  // 999 samples leave only nine beyond the p99: refused.
  EXPECT_FALSE(tickbench::percentile(ramp(999), 0.99).has_value());
  // Ties do not count as "beyond".
  EXPECT_FALSE(
      tickbench::percentile(std::vector<double>(5000, 7.0), 0.99).has_value());
  EXPECT_FALSE(tickbench::percentile({}, 0.5).has_value());
}

TEST(Percentile, MedianAndNearestRank) {
  const auto p50 = tickbench::percentile(ramp(101), 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(*p50, 51.0);
  EXPECT_EQ(tickbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(tickbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Percentile, SegmentedUsesOnlyBlocksWithAFullTail) {
  // 2200 samples hold two blocks of 1100 for a p99 (eleven beyond each).
  std::vector<double> v = ramp(2200);
  v[100] = 1e9;  // a burst in the first block moves only its tail
  const double block0 = *tickbench::percentile(
      std::vector<double>(v.begin(), v.begin() + 1100), 0.99);
  const double block1 = *tickbench::percentile(
      std::vector<double>(v.begin() + 1100, v.end()), 0.99);
  const auto mid = tickbench::segmented_percentile(v, 0.99, 10, 0.5);
  ASSERT_TRUE(mid.has_value());
  EXPECT_DOUBLE_EQ(*mid, 0.5 * (block0 + block1));
  const auto low = tickbench::segmented_percentile(v, 0.99, 10, 0.25);
  EXPECT_DOUBLE_EQ(*low, block0 + 0.25 * (block1 - block0));
  // Too few samples for even one block: refused.
  EXPECT_FALSE(
      tickbench::segmented_percentile(ramp(999), 0.99, 10, 0.5).has_value());
  // The median uses all ten blocks.
  EXPECT_TRUE(
      tickbench::segmented_percentile(ramp(1000), 0.5, 10, 0.5).has_value());
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(tickbench::quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_EQ(tickbench::quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(tickbench::quantile({4.0, 1.0, 3.0, 2.0}, 0.75), 3.25);
  EXPECT_EQ(tickbench::quantile({}, 0.5), 0.0);
}

TEST(SegmentedRate, BlocksIgnoreOneStall) {
  std::vector<double> work(100, 1.0), seconds(100, 0.001);
  seconds[5] = 1.0;  // one preempted op
  EXPECT_NEAR(tickbench::segmented_rate(work, seconds, 10, 0.5), 1000.0, 1e-6);
  EXPECT_NEAR(tickbench::segmented_rate(work, seconds, 10, 0.75), 1000.0,
              1e-6);
  EXPECT_NEAR(tickbench::segmented_rate(work, seconds, 1, 0.5),
              100.0 / (99 * 0.001 + 1.0), 1e-9);
}

TEST(Quality, WaterfillIsTheReferenceOnATwoRbCell) {
  // Gains 1 and 1/4, budget 5: the water level is 5, so waterfill gives
  // p = (4, 1), rate log2(5) + log2(1.25).
  const RraProblem cell = two_rb_cell(1.0, 0.25, 5.0);
  const rcr::qos::Assignment assignment = {0, 0};
  const double optimum = std::log2(5.0) + std::log2(1.25);

  const auto exact = tickbench::quality_sample(cell, assignment, {4.0, 1.0});
  EXPECT_NEAR(exact.reference, optimum, 1e-12);
  EXPECT_NEAR(exact.served, optimum, 1e-12);
  EXPECT_NEAR(tickbench::quality_ratio({exact}), 1.0, 1e-12);

  const auto equal = tickbench::quality_sample(cell, assignment, {2.5, 2.5});
  const double equal_rate = std::log2(3.5) + std::log2(1.625);
  EXPECT_NEAR(equal.served, equal_rate, 1e-12);
  EXPECT_NEAR(tickbench::quality_ratio({equal}), equal_rate / optimum, 1e-12);
  // Pooled: the ratio of sums, not the mean of ratios.
  EXPECT_NEAR(tickbench::quality_ratio({exact, equal}),
              (optimum + equal_rate) / (2.0 * optimum), 1e-12);
}

TEST(Feasibility, AcceptsABudgetExactAllocation) {
  const RraProblem cell = two_rb_cell(1.0, 0.5, 4.0);
  EXPECT_EQ(tickbench::check_allocation(cell, {0, 0}, {1.5, 2.5}), "");
  // Within 1e-9 relative of the budget.
  EXPECT_EQ(tickbench::check_allocation(cell, {0, 0}, {1.5, 2.5 + 1e-9}), "");
}

TEST(Feasibility, RejectsCraftedBadAllocations) {
  const RraProblem cell = two_rb_cell(1.0, 0.5, 4.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NE(tickbench::check_allocation(cell, {0, 0}, {nan, 4.0}), "");
  EXPECT_NE(tickbench::check_allocation(cell, {0, 0}, {inf, 0.0}), "");
  EXPECT_NE(tickbench::check_allocation(cell, {0, 0}, {-0.5, 4.5}), "");
  EXPECT_NE(tickbench::check_allocation(cell, {0, 0}, {2.0, 2.1}), "");
  EXPECT_NE(tickbench::check_allocation(cell, {0, 0}, {1.0, 1.0}), "");
  EXPECT_NE(tickbench::check_allocation(cell, {0, 1}, {2.0, 2.0}), "");
  EXPECT_NE(tickbench::check_allocation(cell, {0}, {2.0, 2.0}), "");
  EXPECT_NE(tickbench::check_allocation(cell, {0, 0}, {4.0}), "");
}

TEST(Spans, SelfTimeIsDurationMinusChildren) {
  tickbench::SpanRecorder spans;
  {
    tickbench::SpanRecorder::Scope outer(spans, "outer", 3, 1);
    { tickbench::SpanRecorder::Scope inner(spans, "inner", 3, 1); }
    { tickbench::SpanRecorder::Scope inner(spans, "inner", 3, 1); }
  }
  ASSERT_EQ(spans.records().size(), 3u);
  EXPECT_EQ(spans.records()[0].parent, -1);
  EXPECT_EQ(spans.records()[1].parent, 0);
  EXPECT_EQ(spans.records()[2].parent, 0);
  const auto outer = spans.layer("outer");
  const auto inner = spans.layer("inner");
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 2u);
  EXPECT_DOUBLE_EQ(outer.self_ns, outer.total_ns - inner.total_ns);
  EXPECT_DOUBLE_EQ(inner.self_ns, inner.total_ns);
}

TEST(Spans, CapKeepsAggregatesButDropsRecords) {
  tickbench::SpanRecorder spans(2);
  for (int i = 0; i < 5; ++i) tickbench::SpanRecorder::Scope s(spans, "x", i, 0);
  EXPECT_EQ(spans.records().size(), 2u);
  EXPECT_EQ(spans.dropped(), 3u);
  EXPECT_EQ(spans.layer("x").calls, 5u);
}

TEST(TraceParse, SumsServeTickSpansPerThread) {
  const std::string json =
      "{\"traceEvents\": [\n"
      "{\"name\": \"serve.tick\", \"cat\": \"rcr\", \"ph\": \"B\", \"ts\": "
      "10.000, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"admm.box_qp\", \"cat\": \"rcr\", \"ph\": \"B\", \"ts\": "
      "11.000, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"admm.box_qp\", \"cat\": \"rcr\", \"ph\": \"E\", \"ts\": "
      "12.000, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"serve.tick\", \"cat\": \"rcr\", \"ph\": \"E\", \"ts\": "
      "14.500, \"pid\": 1, \"tid\": 0, \"args\": {\"cells\": 2}},\n"
      "{\"name\": \"serve.tick\", \"cat\": \"rcr\", \"ph\": \"B\", \"ts\": "
      "20.000, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"serve.tick\", \"cat\": \"rcr\", \"ph\": \"E\", \"ts\": "
      "21.000, \"pid\": 1, \"tid\": 0}\n"
      "]}";
  EXPECT_NEAR(tickbench::serve_tick_span_ns(json), 5500.0, 1e-6);
}

TEST(Determinism, WideRefreshHashesMatchAcrossThreadsAndRuns) {
  auto w = tickbench::make_workload("wide-refresh", 7);
  ASSERT_TRUE(w.has_value());
  w->shape.num_cells = 6;  // a short run: a few cells, a dozen ticks
  rcr::rt::set_global_threads(1);
  const std::vector<std::uint64_t> serial = tickbench::tick_hashes(*w, 12);
  const std::vector<std::uint64_t> again = tickbench::tick_hashes(*w, 12);
  rcr::rt::set_global_threads(2);
  const std::vector<std::uint64_t> pooled = tickbench::tick_hashes(*w, 12);
  EXPECT_EQ(serial, again);
  EXPECT_EQ(serial, pooled);

  auto other = tickbench::make_workload("wide-refresh", 8);
  other->shape.num_cells = 6;
  EXPECT_NE(tickbench::tick_hashes(*other, 12), serial);
}

TEST(Workloads, EveryNameBuildsAndUnknownIsRefused) {
  for (const char* name :
       {"narrow-cached", "wide-refresh", "overload-storm", "conformance-fleet"})
    EXPECT_TRUE(tickbench::make_workload(name, 1).has_value()) << name;
  EXPECT_FALSE(tickbench::make_workload("nope", 1).has_value());
}

}  // namespace
