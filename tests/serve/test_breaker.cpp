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

BreakerConfig breaker_config() {
  BreakerConfig bc;
  bc.enabled = true;
  bc.failure_threshold = 3;
  bc.open_ticks = 4;
  bc.max_open_ticks = 16;
  return bc;
}

TEST(CircuitBreaker, StaysClosedBelowTheFailureThreshold) {
  const BreakerConfig bc = breaker_config();
  CircuitBreaker brk;
  brk.record_failure(bc, 0);
  brk.record_failure(bc, 1);
  EXPECT_FALSE(brk.blocked(2));
  EXPECT_EQ(brk.trips, 0u);
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  const BreakerConfig bc = breaker_config();
  CircuitBreaker brk;
  brk.record_failure(bc, 0);
  brk.record_failure(bc, 1);
  brk.record_success(bc, 2);
  brk.record_failure(bc, 3);
  brk.record_failure(bc, 4);
  EXPECT_FALSE(brk.blocked(5)) << "streak should have reset at tick 2";
}

TEST(CircuitBreaker, TripsOpenForOpenTicksThenProbes) {
  const BreakerConfig bc = breaker_config();
  CircuitBreaker brk;
  brk.record_failure(bc, 5);
  brk.record_failure(bc, 5);
  brk.record_failure(bc, 5);  // third consecutive failure trips
  EXPECT_EQ(brk.trips, 1u);
  EXPECT_EQ(brk.open_until, 5 + 1 + bc.open_ticks);
  EXPECT_TRUE(brk.blocked(9));
  EXPECT_FALSE(brk.blocked(10));
  EXPECT_TRUE(brk.probing(10));
}

TEST(CircuitBreaker, ProbeSuccessFullyCloses) {
  const BreakerConfig bc = breaker_config();
  CircuitBreaker brk;
  for (int i = 0; i < 3; ++i) brk.record_failure(bc, 5);
  brk.record_success(bc, 10);  // half-open probe came back clean
  EXPECT_FALSE(brk.blocked(11));
  EXPECT_FALSE(brk.probing(11));
  EXPECT_EQ(brk.backoff, 0u) << "a clean probe resets the backoff";
}

TEST(CircuitBreaker, ProbeFailureDoublesTheBackoffUpToTheCap) {
  const BreakerConfig bc = breaker_config();
  CircuitBreaker brk;
  for (int i = 0; i < 3; ++i) brk.record_failure(bc, 5);
  EXPECT_EQ(brk.backoff, 4u);
  brk.record_failure(bc, 10);  // probe failed: 4 -> 8
  EXPECT_EQ(brk.backoff, 8u);
  EXPECT_EQ(brk.open_until, 10 + 1 + 8u);
  brk.record_failure(bc, 19);  // 8 -> 16
  EXPECT_EQ(brk.backoff, 16u);
  brk.record_failure(bc, 36);  // capped at max_open_ticks
  EXPECT_EQ(brk.backoff, 16u);
  EXPECT_EQ(brk.trips, 4u);
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
  sc.breaker = breaker_config();
  sc.breaker.failure_threshold = 2;
  sc.breaker.open_ticks = 3;
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
      EXPECT_TRUE(a.status.usable()) << "cell " << c << " tick " << t;
      // The ADMM step never wins under the storm: it fails or is skipped,
      // and water-filling answers.
      EXPECT_EQ(a.served, Served::kWaterfill);
      EXPECT_EQ(a.fallthrough, 1u);
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
  // Storm over: after the open window drains, probes succeed and the ADMM
  // head serves again.
  bool admm_back = false;
  for (std::size_t t = 4; t < 14; ++t) {
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
    for (std::size_t t = 0; t < 10; ++t) {
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
