// Solve-output watchdog: NaN-poisoned answers are quarantined and served
// from the last-known-good snapshot, corrupted results never enter the
// warm cache, and quarantined cells recover after the window drains.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "rcr/obs/obs.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/serve/overload.hpp"
#include "rcr/serve/service.hpp"
#include "served_records.hpp"

namespace rcr::serve {
namespace {

WorkloadConfig watchdog_workload() {
  WorkloadConfig wc;
  wc.num_cells = 3;
  wc.num_rbs = 6;
  wc.min_users = 2;
  wc.peak_users = 3;
  wc.period_ticks = 16;
  wc.coherence_ticks = 4;
  wc.seed = 555;
  return wc;
}

ServiceConfig watchdog_config() {
  ServiceConfig sc;
  sc.watchdog.enabled = true;
  sc.watchdog.quarantine_ticks = 2;
  return sc;
}

bool all_finite(const CellAllocation& alloc) {
  if (!std::isfinite(alloc.sum_rate)) return false;
  for (double p : alloc.power)
    if (!std::isfinite(p)) return false;
  return true;
}

TEST(Watchdog, CorruptStormQuarantinesEveryCellYetServesFinite) {
  const WorkloadConfig wc = watchdog_workload();
  ServiceConfig sc = watchdog_config();
  sc.cache_enabled = false;

  robust::faults::ScopedFaults scope(
      "seed=3,rate=1,sites=serve.solve.corrupt");
  obs::ScopedMetrics metrics;
  DiurnalWorkload wl(wc);
  AllocationService service(sc, wc.num_cells);

  std::size_t quarantine_steps = 0;
  for (std::size_t t = 0; t < 6; ++t) {
    wl.advance(t);
    const TickReport r = service.tick(t, wl);
    EXPECT_EQ(r.quarantined + r.admitted, wc.num_cells) << "tick " << t;
    for (std::size_t c = 0; c < wc.num_cells; ++c) {
      const CellAllocation& a = service.allocation(c);
      EXPECT_TRUE(all_finite(a))
          << "cell " << c << " tick " << t << " leaked a NaN";
      if (a.served == Served::kQuarantine) ++quarantine_steps;
      expect_records_match_served(a);
    }
  }
  EXPECT_GT(quarantine_steps, 0u);

  double trips = 0.0, quarantined = 0.0;
  for (const obs::MetricSample& s : obs::metrics_snapshot()) {
    if (s.name == "rcr.watchdog.trips") trips += s.value;
    if (s.name == "rcr.serve.quarantined") quarantined += s.value;
  }
  EXPECT_GT(trips, 0.0);
  EXPECT_GT(quarantined, 0.0);
}

TEST(Watchdog, CorruptedAnswersNeverEnterTheCache) {
  const WorkloadConfig wc = watchdog_workload();
  ServiceConfig sc = watchdog_config();
  sc.cache_enabled = true;

  robust::faults::ScopedFaults scope(
      "seed=3,rate=1,sites=serve.solve.corrupt");
  DiurnalWorkload wl(wc);
  AllocationService service(sc, wc.num_cells);
  std::size_t cache_hits = 0;
  for (std::size_t t = 0; t < 6; ++t) {
    wl.advance(t);
    cache_hits += service.tick(t, wl).cache_hits;
    for (std::size_t c = 0; c < wc.num_cells; ++c)
      EXPECT_TRUE(all_finite(service.allocation(c)));
  }
  EXPECT_EQ(cache_hits, 0u)
      << "a NaN-poisoned allocation was served from the cache";
}

TEST(Watchdog, QuarantinedCellsRecoverAfterTheWindow) {
  const WorkloadConfig wc = watchdog_workload();
  ServiceConfig sc = watchdog_config();
  sc.cache_enabled = false;

  DiurnalWorkload wl(wc);
  AllocationService service(sc, wc.num_cells);
  {
    // One poisoned tick, then the storm lifts.
    robust::faults::ScopedFaults scope(
        "seed=3,rate=1,sites=serve.solve.corrupt");
    wl.advance(0);
    const TickReport r = service.tick(0, wl);
    EXPECT_EQ(r.quarantined, wc.num_cells);
  }
  // Quarantine holds for quarantine_ticks, then clean solves resume.
  for (std::size_t t = 1; t <= sc.watchdog.quarantine_ticks; ++t) {
    wl.advance(t);
    service.tick(t, wl);
    for (std::size_t c = 0; c < wc.num_cells; ++c)
      EXPECT_EQ(service.allocation(c).step, "quarantine")
          << "cell " << c << " tick " << t;
  }
  const std::size_t after = sc.watchdog.quarantine_ticks + 1;
  wl.advance(after);
  const TickReport r = service.tick(after, wl);
  EXPECT_EQ(r.quarantined, 0u);
  for (std::size_t c = 0; c < wc.num_cells; ++c) {
    EXPECT_NE(service.allocation(c).step, "quarantine") << "cell " << c;
    EXPECT_TRUE(all_finite(service.allocation(c)));
  }
}

TEST(Watchdog, NanGainCellIsServedByWaterfillAndNeverQuarantined) {
  // Water-filling gives the NaN-gain RB no power, and an unpowered RB adds
  // nothing to the sum rate, so the answer is finite and the watchdog has
  // nothing to catch.
  RraProblem problem;
  problem.gain = Matrix(1, 4);
  problem.gain(0, 0) = 0.8;
  problem.gain(0, 1) = std::numeric_limits<double>::quiet_NaN();
  problem.gain(0, 2) = 1.5;
  problem.gain(0, 3) = 0.3;
  problem.total_power = 1.0;
  problem.min_rate = {0.0};
  ServiceConfig sc = watchdog_config();
  sc.cache_enabled = false;  // every tick reaches the chain
  obs::ScopedMetrics metrics;
  AllocationService service(sc, 1);
  for (std::size_t t = 0; t < 6; ++t) {
    const TickReport report = service.tick(
        t, [&](std::size_t) -> const RraProblem& { return problem; });
    const CellAllocation& a = service.allocation(0);
    EXPECT_EQ(a.served, Served::kWaterfill) << "tick " << t;
    EXPECT_TRUE(all_finite(a)) << "tick " << t;
    EXPECT_EQ(a.power[1], 0.0);
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_TRUE(std::isfinite(report.sum_rate));
  }
  double trips = 0.0;
  for (const obs::MetricSample& s : obs::metrics_snapshot())
    if (s.name == "rcr.watchdog.trips") trips += s.value;
  EXPECT_EQ(trips, 0.0);
}

TEST(Watchdog, InfGainCellIsCachedAndNeverQuarantined) {
  // Water-filling powers the +inf-gain RB, so the answer rates +inf with
  // every power finite: a sound answer, which the watchdog passes and the
  // cache keeps, so every tick after the first is a hit.
  RraProblem problem;
  problem.gain = Matrix(1, 4);
  problem.gain(0, 0) = 0.8;
  problem.gain(0, 1) = std::numeric_limits<double>::infinity();
  problem.gain(0, 2) = 1.5;
  problem.gain(0, 3) = 0.3;
  problem.total_power = 1.0;
  problem.min_rate = {0.0};
  ServiceConfig sc = watchdog_config();
  sc.cache_enabled = true;
  obs::ScopedMetrics metrics;
  AllocationService service(sc, 1);
  for (std::size_t t = 0; t < 6; ++t) {
    const TickReport report = service.tick(
        t, [&](std::size_t) -> const RraProblem& { return problem; });
    const CellAllocation& a = service.allocation(0);
    EXPECT_EQ(a.served, t == 0 ? Served::kWaterfill : Served::kCache)
        << "tick " << t;
    EXPECT_EQ(report.quarantined, 0u) << "tick " << t;
    EXPECT_EQ(report.cache_hits, t == 0 ? 0u : 1u) << "tick " << t;
    ASSERT_EQ(a.power.size(), 4u);
    for (double p : a.power) EXPECT_TRUE(std::isfinite(p)) << "tick " << t;
    EXPECT_GT(a.power[1], 0.0);
    EXPECT_EQ(a.sum_rate, std::numeric_limits<double>::infinity());
  }
  double trips = 0.0;
  for (const obs::MetricSample& s : obs::metrics_snapshot())
    if (s.name == "rcr.watchdog.trips") trips += s.value;
  EXPECT_EQ(trips, 0.0);
}

TEST(Watchdog, DisabledWatchdogMeansTheSiteNeverFires) {
  const WorkloadConfig wc = watchdog_workload();
  ServiceConfig sc;  // watchdog off: serve.solve.corrupt must be inert
  sc.cache_enabled = false;

  robust::faults::ScopedFaults scope(
      "seed=3,rate=1,sites=serve.solve.corrupt");
  DiurnalWorkload wl(wc);
  AllocationService service(sc, wc.num_cells);
  for (std::size_t t = 0; t < 3; ++t) {
    wl.advance(t);
    const TickReport r = service.tick(t, wl);
    EXPECT_EQ(r.quarantined, 0u);
    for (std::size_t c = 0; c < wc.num_cells; ++c)
      EXPECT_TRUE(all_finite(service.allocation(c)));
  }
  EXPECT_EQ(robust::faults::injection_count("serve.solve.corrupt"), 0u);
}

TEST(Watchdog, QuarantineBitExactSerialVsParallel) {
  const WorkloadConfig wc = watchdog_workload();
  ServiceConfig sc = watchdog_config();
  sc.cache_enabled = false;

  const auto run = [&]() {
    robust::faults::ScopedFaults scope(
        "seed=3,rate=0.5,sites=serve.solve.corrupt");
    DiurnalWorkload wl(wc);
    AllocationService service(sc, wc.num_cells);
    std::vector<std::string> trace;
    for (std::size_t t = 0; t < 10; ++t) {
      wl.advance(t);
      const TickReport r = service.tick(t, wl);
      trace.push_back(std::to_string(r.solution_hash) + ":" +
                      std::to_string(r.quarantined));
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
