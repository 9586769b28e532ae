// Chaos suite for the allocation service (`ctest -L chaos`): seeded fault
// storms over the serve.* injection sites must leave every cell with an
// answer that its step records explain, and the
// rcr.fallback.depth{chain=serve.cell} gauge must agree with the records of
// the chain run that set it.
//
// The serve.* sites are keyed by the per-cell tick stamp, so the injection
// stream is a pure function of (seed, site, stamp) -- bit-identical across
// thread counts.  Failures print the RCR_FAULTS replay spec.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "rcr/obs/metrics.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/serve/service.hpp"
#include "served_records.hpp"

namespace rcr::serve {
namespace {

namespace faults = robust::faults;

#define RCR_CHAOS_TRACE() SCOPED_TRACE("replay: RCR_FAULTS=\"" + \
                                       faults::replay_spec() + "\"")

WorkloadConfig chaos_workload() {
  WorkloadConfig wc;
  wc.num_cells = 4;
  wc.num_rbs = 6;
  wc.min_users = 2;
  wc.peak_users = 4;
  wc.period_ticks = 16;
  wc.coherence_ticks = 4;
  wc.seed = 77;
  return wc;
}

// Every cell must answer: full-size allocation, finite power on the budget,
// and a step drawn from the service's published set that agrees with its
// typed record and its chain step records.
void expect_cell_answers(const AllocationService& service,
                         const DiurnalWorkload& wl) {
  for (std::size_t c = 0; c < service.num_cells(); ++c) {
    const CellAllocation& a = service.allocation(c);
    SCOPED_TRACE("cell " + std::to_string(c) + " step '" + a.step + "'");
    ASSERT_EQ(a.assignment.size(), wl.cell(c).num_rbs());
    ASSERT_EQ(a.power.size(), wl.cell(c).num_rbs());
    double total = 0.0;
    for (double p : a.power) {
      EXPECT_TRUE(std::isfinite(p));
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, wl.cell(c).total_power, 1e-9);
    EXPECT_TRUE(std::isfinite(a.sum_rate));
    EXPECT_TRUE(a.step == "cache" || a.step == "admm" ||
                a.step == "waterfill" || a.step == "equal-power" ||
                a.step == "deadline-fill")
        << a.step;
    EXPECT_EQ(a.step, to_string(a.served));
    expect_records_match_served(a);
  }
}

// Chain steps that executed on the run that produced `a`: its winner and
// every step that failed before it.
std::size_t executed_steps(const CellAllocation& a) {
  std::size_t n = 0;
  for (const robust::StepRecord& r : a.records)
    if (r.outcome == robust::StepOutcome::kFailed ||
        r.outcome == robust::StepOutcome::kWon)
      ++n;
  return n;
}

double fallback_depth_gauge() {
  for (const obs::MetricSample& s : obs::metrics_snapshot())
    if (s.name == "rcr.fallback.depth" && s.label_value == "serve.cell")
      return s.value;
  return -1.0;
}

TEST(ServeChaos, TotalOutageStormStillAnswersEveryCell) {
  // rate=1 over serve.*: the cache never hits, the ADMM head and the
  // water-filling middle both fail on every cell -- the whole fleet rides
  // the equal-power floor, and every cell still answers.
  faults::ScopedFaults scope("seed=20260809,rate=1,sites=serve.*");
  RCR_CHAOS_TRACE();
  const WorkloadConfig wc = chaos_workload();
  DiurnalWorkload wl(wc);
  AllocationService service(ServiceConfig{}, wc.num_cells);
  for (std::size_t t = 0; t < 6; ++t) {
    wl.advance(t);
    const TickReport report = service.tick(t, wl);
    EXPECT_EQ(report.cells, wc.num_cells);
    EXPECT_EQ(report.degraded, wc.num_cells);
    EXPECT_EQ(report.cache_hits, 0u);
    expect_cell_answers(service, wl);
    for (std::size_t c = 0; c < wc.num_cells; ++c) {
      const CellAllocation& a = service.allocation(c);
      EXPECT_EQ(a.served, Served::kEqualPower);
      for (std::size_t step = 0; step < 2; ++step) {
        EXPECT_EQ(a.records[step].outcome, robust::StepOutcome::kFailed);
        EXPECT_EQ(a.records[step].code,
                  robust::StatusCode::kNumericalFailure);
      }
    }
  }
}

TEST(ServeChaos, FractionalStormNeverDropsACell) {
  faults::ScopedFaults scope("seed=20260809,rate=0.3,sites=serve.*");
  RCR_CHAOS_TRACE();
  const WorkloadConfig wc = chaos_workload();
  DiurnalWorkload wl(wc);
  AllocationService service(ServiceConfig{}, wc.num_cells);
  std::size_t degraded = 0;
  for (std::size_t t = 0; t < 12; ++t) {
    wl.advance(t);
    degraded += service.tick(t, wl).degraded;
    expect_cell_answers(service, wl);
  }
  EXPECT_GT(degraded, 0u) << "rate=0.3 over 48 cell-ticks never degraded";
}

TEST(ServeChaos, InjectionsActuallyFireAtEveryServeSite) {
  // The head sites can be targeted alone.  serve.waterfill.outage only
  // guards the waterfill *step*, which never runs while the ADMM head
  // succeeds -- so it is exercised under the serve.* storm, where the
  // injected head outage pushes every cell into the waterfill step.
  for (const char* site : {"serve.admm.outage", "serve.cache.drop"}) {
    faults::ScopedFaults scope(std::string("seed=1,rate=1,sites=") + site);
    RCR_CHAOS_TRACE();
    const WorkloadConfig wc = chaos_workload();
    DiurnalWorkload wl(wc);
    AllocationService service(ServiceConfig{}, wc.num_cells);
    for (std::size_t t = 0; t < 2; ++t) {
      wl.advance(t);
      service.tick(t, wl);
    }
    EXPECT_GT(faults::injection_count(site), 0u) << site;
  }
  {
    faults::ScopedFaults scope("seed=1,rate=1,sites=serve.*");
    RCR_CHAOS_TRACE();
    const WorkloadConfig wc = chaos_workload();
    DiurnalWorkload wl(wc);
    AllocationService service(ServiceConfig{}, wc.num_cells);
    for (std::size_t t = 0; t < 2; ++t) {
      wl.advance(t);
      service.tick(t, wl);
    }
    EXPECT_GT(faults::injection_count("serve.waterfill.outage"), 0u);
  }
}

TEST(ServeChaos, FallbackDepthGaugeMatchesTheStepRecords) {
  // The gauge holds the depth of the most recent serve.cell chain run.
  // Under a serial tick with the cache disabled, that is cell N-1's chain:
  // depth = the steps its records show executed (failed or won).
  rt::ForceSerialGuard serial;
  obs::ScopedMetrics metrics;
  const WorkloadConfig wc = chaos_workload();

  {  // Clean ticks: the ADMM head answers everywhere, depth stays 1.
    DiurnalWorkload wl(wc);
    ServiceConfig sc;
    sc.cache_enabled = false;
    AllocationService service(sc, wc.num_cells);
    for (std::size_t t = 0; t < 3; ++t) {
      wl.advance(t);
      service.tick(t, wl);
      const CellAllocation& last = service.allocation(wc.num_cells - 1);
      EXPECT_EQ(last.served, Served::kAdmm);
      EXPECT_EQ(executed_steps(last), 1u);
      EXPECT_EQ(fallback_depth_gauge(), 1.0);
    }
  }

  {  // Fault storm: depth must track the last cell's records tick by tick.
    faults::ScopedFaults scope("seed=20260809,rate=0.5,sites=serve.*");
    RCR_CHAOS_TRACE();
    DiurnalWorkload wl(wc);
    ServiceConfig sc;
    sc.cache_enabled = false;
    AllocationService service(sc, wc.num_cells);
    bool saw_depth_beyond_head = false;
    for (std::size_t t = 0; t < 8; ++t) {
      wl.advance(t);
      service.tick(t, wl);
      const CellAllocation& last = service.allocation(wc.num_cells - 1);
      const double expected = static_cast<double>(executed_steps(last));
      EXPECT_EQ(fallback_depth_gauge(), expected)
          << "tick " << t << ": served " << last.step;
      if (expected > 1.0) saw_depth_beyond_head = true;
    }
    EXPECT_TRUE(saw_depth_beyond_head)
        << "storm never pushed the last cell past the chain head";
  }
}

TEST(ServeChaos, KeyedInjectionKeepsTicksBitExactSerialVsParallel) {
  // serve.* sites key on the cell-tick stamp, so a fault storm must not
  // break the service's cross-thread determinism witness.
  const WorkloadConfig wc = chaos_workload();
  const char* spec = "seed=20260809,rate=0.5,sites=serve.*";

  std::vector<std::uint64_t> serial_hashes, parallel_hashes;
  {
    rt::ForceSerialGuard serial;
    faults::ScopedFaults scope(spec);
    RCR_CHAOS_TRACE();
    DiurnalWorkload wl(wc);
    AllocationService service(ServiceConfig{}, wc.num_cells);
    for (std::size_t t = 0; t < 8; ++t) {
      wl.advance(t);
      serial_hashes.push_back(service.tick(t, wl).solution_hash);
    }
  }
  {
    faults::ScopedFaults scope(spec);
    RCR_CHAOS_TRACE();
    DiurnalWorkload wl(wc);
    AllocationService service(ServiceConfig{}, wc.num_cells);
    for (std::size_t t = 0; t < 8; ++t) {
      wl.advance(t);
      parallel_hashes.push_back(service.tick(t, wl).solution_hash);
    }
  }
  EXPECT_EQ(serial_hashes, parallel_hashes);
}

}  // namespace
}  // namespace rcr::serve
