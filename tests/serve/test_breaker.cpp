// Per-solver circuit breakers: trip threshold, deterministic tick-count
// backoff with half-open probes, and the service integration where a
// serve.breaker.trip storm opens the ADMM breaker and the chain skips it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rcr/obs/obs.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/serve/overload.hpp"
#include "rcr/serve/service.hpp"

namespace rcr::serve {
namespace {

// The literal ticks and windows below are written against these values.
static_assert(kBreakerFailureThreshold == 3);
static_assert(kBreakerOpenTicks == 8);
static_assert(kBreakerMaxOpenTicks == 64);

// Feed the failures that open a closed breaker, all at `tick`.
void trip(CircuitBreaker& brk, std::uint64_t tick) {
  for (std::size_t i = 0; i < kBreakerFailureThreshold; ++i)
    brk.record_failure(tick);
}

TEST(CircuitBreaker, StaysClosedBelowTheFailureThreshold) {
  CircuitBreaker brk;
  for (std::uint64_t t = 0; t + 1 < kBreakerFailureThreshold; ++t)
    brk.record_failure(t);
  EXPECT_FALSE(brk.blocked(kBreakerFailureThreshold));
  EXPECT_EQ(brk.trips, 0u);
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  CircuitBreaker brk;
  brk.record_failure(0);
  brk.record_failure(1);
  brk.record_success();
  brk.record_failure(3);
  brk.record_failure(4);
  EXPECT_FALSE(brk.blocked(5)) << "streak should have reset at tick 2";
  EXPECT_EQ(brk.trips, 0u);
}

TEST(CircuitBreaker, TripsOpenForOpenTicksThenProbes) {
  CircuitBreaker brk;
  brk.record_failure(5);
  brk.record_failure(5);
  EXPECT_EQ(brk.trips, 0u);
  brk.record_failure(5);  // third consecutive failure trips
  EXPECT_EQ(brk.trips, 1u);
  EXPECT_EQ(brk.open_until, 5 + 1 + kBreakerOpenTicks);
  EXPECT_TRUE(brk.blocked(5 + kBreakerOpenTicks));
  EXPECT_FALSE(brk.blocked(5 + 1 + kBreakerOpenTicks));
  EXPECT_TRUE(brk.awaiting_probe) << "the first run after the window probes";
}

TEST(CircuitBreaker, ProbeSuccessFullyCloses) {
  CircuitBreaker brk;
  trip(brk, 5);
  brk.record_success();  // half-open probe came back clean
  EXPECT_FALSE(brk.blocked(5 + 1 + kBreakerOpenTicks));
  EXPECT_FALSE(brk.awaiting_probe);
  EXPECT_EQ(brk.backoff, 0u) << "a clean probe resets the backoff";
  // Closed again: a single failure does not re-open it.
  brk.record_failure(20);
  EXPECT_FALSE(brk.blocked(21));
}

TEST(CircuitBreaker, ProbeFailureDoublesTheBackoffUpToTheCap) {
  CircuitBreaker brk;
  trip(brk, 5);
  EXPECT_EQ(brk.backoff, 8u);
  std::uint64_t tick = brk.open_until;  // each probe runs once the window ends
  brk.record_failure(tick);  // probe failed: 8 -> 16
  EXPECT_EQ(brk.backoff, 16u);
  EXPECT_EQ(brk.open_until, tick + 1 + 16u);
  const std::size_t expected[] = {32, 64, 64, 64};  // capped at 64
  for (std::size_t want : expected) {
    tick = brk.open_until;
    brk.record_failure(tick);
    EXPECT_EQ(brk.backoff, want);
    EXPECT_EQ(brk.open_until, tick + 1 + want);
  }
  EXPECT_EQ(brk.trips, 6u);
}

WorkloadConfig breaker_workload() {
  WorkloadConfig wc;
  wc.num_cells = 3;
  wc.num_rbs = 6;
  wc.min_users = 2;
  wc.peak_users = 3;
  wc.period_ticks = 16;
  wc.coherence_ticks = 1;
  wc.seed = 4321;
  return wc;
}

ServiceConfig breaker_service_config() {
  ServiceConfig sc;
  sc.cache_enabled = false;
  sc.breaker.enabled = true;
  return sc;
}

TEST(Breaker, TripStormOpensTheAdmmBreakerAndTheChainSkipsIt) {
  const WorkloadConfig wc = breaker_workload();
  const ServiceConfig sc = breaker_service_config();

  robust::faults::ScopedFaults scope(
      "seed=11,rate=1,sites=serve.breaker.trip");
  obs::ScopedMetrics metrics;
  DiurnalWorkload wl(wc);
  AllocationService service(sc, wc.num_cells);

  std::size_t cell_ticks = 0;
  for (std::size_t t = 0; t < 8; ++t) {
    wl.advance(t);
    service.tick(t, wl);
    for (std::size_t c = 0; c < wc.num_cells; ++c, ++cell_ticks) {
      const CellAllocation& a = service.allocation(c);
      // The ADMM step never wins under the storm: it fails or is skipped,
      // and water-filling answers.
      EXPECT_EQ(a.served, Served::kWaterfill) << "cell " << c << " tick " << t;
      EXPECT_EQ(robust::fallthrough(a.records), 1u);
    }
  }
  // The trip site fires every time the ADMM step runs (rate=1); fewer
  // firings than cell-ticks means the open breaker skipped the step.
  EXPECT_LT(robust::faults::injection_count("serve.breaker.trip"), cell_ticks)
      << "breaker never opened under a rate=1 storm";

  double skipped = 0.0, opened = 0.0;
  for (const obs::MetricSample& s : obs::metrics_snapshot()) {
    if (s.name == "rcr.fallback.skipped") skipped += s.value;
    if (s.name == "rcr.breaker.opened") opened += s.value;
  }
  EXPECT_GT(skipped, 0.0);
  EXPECT_GT(opened, 0.0);
}

TEST(Breaker, RecoversAfterTheStormLifts) {
  const WorkloadConfig wc = breaker_workload();
  const ServiceConfig sc = breaker_service_config();
  DiurnalWorkload wl(wc);
  AllocationService service(sc, wc.num_cells);

  {
    robust::faults::ScopedFaults scope(
        "seed=11,rate=1,sites=serve.breaker.trip");
    for (std::size_t t = 0; t < 4; ++t) {
      wl.advance(t);
      service.tick(t, wl);
    }
  }
  // Storm over: after the open window drains (the breakers tripped at tick
  // 2 and stay open through tick 2 + kBreakerOpenTicks), probes succeed and
  // the ADMM head serves again.
  bool admm_back = false;
  for (std::size_t t = 4; t < 4 + 2 * kBreakerOpenTicks; ++t) {
    wl.advance(t);
    service.tick(t, wl);
    for (std::size_t c = 0; c < wc.num_cells; ++c)
      if (service.allocation(c).step == "admm") admm_back = true;
  }
  EXPECT_TRUE(admm_back) << "breaker never re-closed after the storm";
}

TEST(Breaker, DecisionsBitExactSerialVsParallel) {
  const WorkloadConfig wc = breaker_workload();
  const ServiceConfig sc = breaker_service_config();

  const auto run = [&]() {
    robust::faults::ScopedFaults scope(
        "seed=11,rate=0.6,sites=serve.breaker.trip");
    DiurnalWorkload wl(wc);
    AllocationService service(sc, wc.num_cells);
    std::vector<std::string> trace;
    // Long enough for trips, probes and re-opened windows.
    for (std::size_t t = 0; t < 32; ++t) {
      wl.advance(t);
      const TickReport r = service.tick(t, wl);
      trace.push_back(std::to_string(r.solution_hash));
      for (std::size_t c = 0; c < wc.num_cells; ++c)
        trace.push_back(service.allocation(c).step);
    }
    return trace;
  };

  std::vector<std::string> serial_trace;
  {
    rt::ForceSerialGuard serial;
    serial_trace = run();
  }
  EXPECT_EQ(serial_trace, run());
}

}  // namespace
}  // namespace rcr::serve
