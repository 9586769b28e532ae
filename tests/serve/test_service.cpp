// AllocationService tick-loop semantics: workload determinism, cache
// behavior over coherence intervals, warm-start iteration savings,
// bit-exactness across thread counts, and deadline degradation.
#include "rcr/serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "rcr/obs/obs.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/thread_pool.hpp"

namespace rcr::serve {
namespace {

WorkloadConfig small_workload() {
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

TEST(DiurnalWorkload, DeterministicAcrossInstances) {
  const WorkloadConfig wc = small_workload();
  DiurnalWorkload a(wc), b(wc);
  for (std::size_t t = 0; t < 12; ++t) {
    a.advance(t);
    b.advance(t);
    for (std::size_t c = 0; c < a.num_cells(); ++c) {
      ASSERT_EQ(a.cell(c).num_users(), b.cell(c).num_users());
      for (std::size_t u = 0; u < a.cell(c).num_users(); ++u)
        for (std::size_t rb = 0; rb < a.cell(c).num_rbs(); ++rb)
          ASSERT_EQ(a.cell(c).gain(u, rb), b.cell(c).gain(u, rb));
    }
  }
}

TEST(DiurnalWorkload, ProblemHoldsStillInsideCoherenceInterval) {
  WorkloadConfig wc = small_workload();
  wc.min_users = 3;
  wc.peak_users = 3;  // flat population: only fading can change a problem
  DiurnalWorkload wl(wc);
  std::size_t unchanged_ticks = 0;
  for (std::size_t t = 1; t < 16; ++t) {
    wl.advance(t);
    for (std::size_t c = 0; c < wl.num_cells(); ++c)
      if (!wl.changed(c)) ++unchanged_ticks;
  }
  // coherence_ticks = 4: each cell refreshes on 1 tick in 4.
  EXPECT_GT(unchanged_ticks, 0u);
}

TEST(DiurnalWorkload, TargetTracksDiurnalCurve) {
  const WorkloadConfig wc = small_workload();
  DiurnalWorkload wl(wc);
  std::size_t lo = wc.peak_users, hi = wc.min_users;
  for (std::size_t t = 0; t < wc.period_ticks; ++t) {
    const std::size_t target = wl.target_users(0, t);
    lo = std::min(lo, target);
    hi = std::max(hi, target);
  }
  EXPECT_EQ(lo, wc.min_users);
  EXPECT_EQ(hi, wc.peak_users);
}

TEST(DiurnalWorkload, NonConsecutiveTickThrows) {
  DiurnalWorkload wl(small_workload());
  wl.advance(1);
  EXPECT_THROW(wl.advance(5), std::invalid_argument);
}

TEST(AllocationService, EveryCellGetsABudgetFeasibleAllocation) {
  const WorkloadConfig wc = small_workload();
  DiurnalWorkload wl(wc);
  ServiceConfig sc;
  AllocationService service(sc, wc.num_cells);
  for (std::size_t t = 0; t < 8; ++t) {
    wl.advance(t);
    const TickReport report = service.tick(t, wl);
    EXPECT_EQ(report.cells, wc.num_cells);
    for (std::size_t c = 0; c < wc.num_cells; ++c) {
      const CellAllocation& a = service.allocation(c);
      ASSERT_EQ(a.power.size(), wc.num_rbs);
      ASSERT_EQ(a.assignment.size(), wc.num_rbs);
      double total = 0.0;
      for (double p : a.power) {
        EXPECT_GE(p, 0.0);
        total += p;
      }
      EXPECT_LE(total, wc.total_power * (1.0 + 1e-9));
      EXPECT_GT(a.sum_rate, 0.0);
    }
  }
}

TEST(AllocationService, CacheHitsOnUnchangedProblems) {
  WorkloadConfig wc = small_workload();
  wc.min_users = 3;
  wc.peak_users = 3;
  wc.coherence_ticks = 4;
  DiurnalWorkload wl(wc);
  ServiceConfig sc;
  AllocationService service(sc, wc.num_cells);

  std::size_t hits = 0;
  for (std::size_t t = 0; t < 12; ++t) {
    wl.advance(t);
    hits += service.tick(t, wl).cache_hits;
  }
  // Flat population + 4-tick coherence: roughly 3 of every 4 cell-ticks are
  // identical problems, and every identical problem must hit.
  EXPECT_GT(hits, 12 * wc.num_cells / 2);
  EXPECT_GT(service.cache_stats().hit_rate(), 0.5);
}

TEST(AllocationService, CacheHitReturnsSameAllocationAsSolve) {
  WorkloadConfig wc = small_workload();
  wc.min_users = 3;
  wc.peak_users = 3;
  DiurnalWorkload wl(wc);
  // Warm start off in both: cold solves of bit-identical problems are
  // bit-identical, so a cached allocation must equal a fresh solve exactly.
  // (With warm start on, the two services' warm states evolve differently --
  // the cached service solves less often -- so allocations agree only to
  // solver tolerance, not bit-for-bit.)
  ServiceConfig with_cache;
  with_cache.warm_start = false;
  ServiceConfig no_cache;
  no_cache.warm_start = false;
  no_cache.cache_enabled = false;
  AllocationService cached(with_cache, wc.num_cells);
  AllocationService uncached(no_cache, wc.num_cells);
  for (std::size_t t = 0; t < 8; ++t) {
    wl.advance(t);
    const TickReport rc = cached.tick(t, wl);
    const TickReport ru = uncached.tick(t, wl);
    EXPECT_EQ(rc.solution_hash, ru.solution_hash)
        << "tick " << t << ": cache changed the allocation";
  }
}

TEST(AllocationService, WarmStartCutsIterations) {
  // Block-fading workload (4-tick coherence): inside a coherence interval a
  // warm solve resumes at its own fixed point and converges in a couple of
  // iterations, and on refresh ticks the AR(1) drift keeps the warm state
  // close.  Cache disabled so every cell-tick actually solves.
  const WorkloadConfig wc = small_workload();
  ServiceConfig warm_cfg;
  warm_cfg.cache_enabled = false;
  ServiceConfig cold_cfg = warm_cfg;
  cold_cfg.warm_start = false;

  std::size_t warm_iters = 0, cold_iters = 0, warm_accepted = 0;
  {
    DiurnalWorkload wl(wc);
    AllocationService service(warm_cfg, wc.num_cells);
    for (std::size_t t = 0; t < 24; ++t) {
      wl.advance(t);
      const TickReport r = service.tick(t, wl);
      if (t > 0) {
        warm_iters += r.total_iterations;
        warm_accepted += r.warm_accepted;
      }
    }
  }
  {
    DiurnalWorkload wl(wc);
    AllocationService service(cold_cfg, wc.num_cells);
    for (std::size_t t = 0; t < 24; ++t) {
      wl.advance(t);
      const TickReport r = service.tick(t, wl);
      if (t > 0) cold_iters += r.total_iterations;
    }
  }
  EXPECT_GT(warm_accepted, 0u);
  // The soak bench's acceptance bar is < 0.5; this fixture measures ~0.41,
  // asserted with headroom.
  EXPECT_LT(static_cast<double>(warm_iters),
            0.6 * static_cast<double>(cold_iters))
      << "warm " << warm_iters << " vs cold " << cold_iters;
}

TEST(AllocationService, SolutionHashBitExactSerialVsParallel) {
  const WorkloadConfig wc = small_workload();
  ServiceConfig sc;

  std::vector<std::uint64_t> serial_hashes, parallel_hashes;
  {
    rt::ForceSerialGuard serial;
    DiurnalWorkload wl(wc);
    AllocationService service(sc, wc.num_cells);
    for (std::size_t t = 0; t < 10; ++t) {
      wl.advance(t);
      serial_hashes.push_back(service.tick(t, wl).solution_hash);
    }
  }
  {
    DiurnalWorkload wl(wc);
    AllocationService service(sc, wc.num_cells);
    for (std::size_t t = 0; t < 10; ++t) {
      wl.advance(t);
      parallel_hashes.push_back(service.tick(t, wl).solution_hash);
    }
  }
  EXPECT_EQ(serial_hashes, parallel_hashes);
}

TEST(AllocationService, CacheEvictionOrderBitExactSerialVsParallel) {
  // Eviction pressure: 8 cells funnel into a single-shard capacity-4 cache,
  // so every tick evicts.  Which entry survives decides later hits, so any
  // schedule dependence in the eviction order (a racing get's stamp refresh
  // vs a racing put's victim scan) shows up as diverging hit counts or
  // solution hashes.  The deferred two-phase protocol makes both runs
  // bit-identical.
  WorkloadConfig wc = small_workload();
  wc.num_cells = 8;
  ServiceConfig sc;
  sc.cache_capacity = 4;
  sc.cache_shards = 1;

  struct TickTrace {
    std::uint64_t hash;
    std::size_t hits;
    bool operator==(const TickTrace&) const = default;
  };
  const auto run = [&]() {
    std::vector<TickTrace> trace;
    DiurnalWorkload wl(wc);
    AllocationService service(sc, wc.num_cells);
    for (std::size_t t = 0; t < 24; ++t) {
      wl.advance(t);
      const TickReport r = service.tick(t, wl);
      trace.push_back(TickTrace{r.solution_hash, r.cache_hits});
    }
    const CacheStats s = service.cache_stats();
    EXPECT_GT(s.evictions, 0u) << "fixture lost its eviction pressure";
    EXPECT_GT(s.hits, 0u);
    trace.push_back(TickTrace{s.evictions, s.hits});
    trace.push_back(TickTrace{s.insertions, s.misses});
    return trace;
  };

  std::vector<TickTrace> serial_trace;
  {
    rt::ForceSerialGuard serial;
    serial_trace = run();
  }
  const std::vector<TickTrace> parallel_trace = run();
  EXPECT_EQ(serial_trace, parallel_trace);
}

TEST(AllocationService, ExpiredDeadlineStillAnswersEveryCell) {
  const WorkloadConfig wc = small_workload();
  DiurnalWorkload wl(wc);
  ServiceConfig sc;
  sc.tick_deadline_s = 1e-9;  // expires before any chain step can run
  sc.cache_enabled = false;
  AllocationService service(sc, wc.num_cells);
  const TickReport report = service.tick(0, wl);
  EXPECT_EQ(report.cells, wc.num_cells);
  for (std::size_t c = 0; c < wc.num_cells; ++c) {
    const CellAllocation& a = service.allocation(c);
    ASSERT_EQ(a.power.size(), wc.num_rbs);
    double total = 0.0;
    for (double p : a.power) total += p;
    // Degraded cells fall back to a full-budget split somewhere along the
    // chain; the answer is always present and budget-feasible.
    EXPECT_LE(total, wc.total_power * (1.0 + 1e-9));
    EXPECT_FALSE(a.step.empty());
  }
}

TEST(AllocationService, RejectsANonPositiveOrNonFiniteQpScale) {
  // budget_penalty and admm_rho scale the head's power QP.  A penalty at or
  // below 0 let the head serve a heuristic equal split labelled `admm`; a
  // non-finite value leaves no factor, and rho <= 0 no proximal step.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double penalty : {0.0, -1e-3, nan, inf}) {
    ServiceConfig sc;
    sc.budget_penalty = penalty;
    EXPECT_THROW(AllocationService(sc, 1), std::invalid_argument)
        << "budget_penalty " << penalty;
  }
  for (double rho : {0.0, -1.0, nan}) {
    ServiceConfig sc;
    sc.admm_rho = rho;
    EXPECT_THROW(AllocationService(sc, 1), std::invalid_argument)
        << "admm_rho " << rho;
  }
}

/// One user on four RBs, RB 1's gain `gain1`.
RraProblem four_rbs(double gain1) {
  RraProblem problem;
  problem.gain = Matrix(1, 4);
  problem.gain(0, 0) = 0.8;
  problem.gain(0, 1) = gain1;
  problem.gain(0, 2) = 1.5;
  problem.gain(0, 3) = 0.3;
  problem.total_power = 1.0;
  problem.min_rate = {0.0};
  return problem;
}

double counter(const char* name) {
  double total = 0.0;
  for (const obs::MetricSample& s : obs::metrics_snapshot())
    if (s.name == name) total += s.value;
  return total;
}

TEST(AllocationService, NonFiniteCurvatureFailsTheHeadBeforeAnyIteration) {
  // A gain whose Taylor curvature is not finite (NaN, +inf, or one so large
  // that g^2 overflows) has no structured factor: the head fails typed
  // without running ADMM, and water-filling answers exactly as it would on
  // its own.
  const RraProblem good = four_rbs(1.1);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 1e200}) {
    SCOPED_TRACE("gain " + std::to_string(bad));
    const RraProblem problem = four_rbs(bad);
    const Vec gains = problem.gain.row(0);
    const Vec expected = qos::waterfill(gains, problem.total_power);
    ServiceConfig sc;
    sc.cache_enabled = false;
    AllocationService service(sc, 1);
    const RraProblem* current = &good;
    const AllocationService::ProblemFn problem_of =
        [&](std::size_t) -> const RraProblem& { return *current; };
    service.tick(0, problem_of);  // leaves a warm state behind
    ASSERT_EQ(service.allocation(0).served, Served::kAdmm);

    obs::ScopedMetrics metrics;
    current = &problem;
    for (std::size_t t = 1; t < 4; ++t) {
      const TickReport report = service.tick(t, problem_of);
      const CellAllocation& a = service.allocation(0);
      EXPECT_EQ(a.served, Served::kWaterfill);
      EXPECT_EQ(a.records[0].outcome, robust::StepOutcome::kFailed);
      EXPECT_EQ(a.records[0].code, robust::StatusCode::kNumericalFailure);
      EXPECT_EQ(a.records[1].outcome, robust::StepOutcome::kWon);
      EXPECT_EQ(robust::fallthrough(a.records), 1u);
      EXPECT_EQ(report.total_iterations, 0u);
      ASSERT_EQ(a.power.size(), expected.size());
      for (std::size_t rb = 0; rb < expected.size(); ++rb)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.power[rb]),
                  std::bit_cast<std::uint64_t>(expected[rb]))
            << "rb " << rb;
    }
    EXPECT_EQ(counter("rcr.admm.solves"), 0.0);
    EXPECT_EQ(counter("rcr.admm.iterations"), 0.0);

    // The failed head dropped the warm state: the next clean solve is cold.
    current = &good;
    service.tick(4, problem_of);
    EXPECT_EQ(service.allocation(0).served, Served::kAdmm);
    EXPECT_EQ(service.allocation(0).warm_use, opt::WarmUse::kCold);
  }
}

/// rcr.serve.cell_outcome{served=`served`}.
double cell_outcomes(Served served) {
  double total = 0.0;
  for (const obs::MetricSample& s : obs::metrics_snapshot())
    if (s.name == "rcr.serve.cell_outcome" &&
        s.label_value == to_string(served))
      total += s.value;
  return total;
}

TEST(AllocationService, ChainsThatFindTheDeadlineGoneFillEveryCell) {
  // The deadline is still live at the tick boundary, so nothing is shed.
  // Reading the problems then outlasts it, and every chain finds it gone
  // before its first step: each cell answers with the equal-power fill.
  const WorkloadConfig wc = small_workload();
  DiurnalWorkload wl(wc);
  wl.advance(0);
  ServiceConfig sc;
  sc.tick_deadline_s = 0.02;
  AllocationService service(sc, wc.num_cells);
  obs::ScopedMetrics metrics;
  const auto wake =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  const TickReport report =
      service.tick(0, [&](std::size_t c) -> const RraProblem& {
        std::this_thread::sleep_until(wake);
        return wl.cell(c);
      });
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.deadline_fills, wc.num_cells);
  EXPECT_EQ(report.degraded, wc.num_cells);
  EXPECT_EQ(counter("rcr.serve.deadline_fills"),
            static_cast<double>(wc.num_cells));
  EXPECT_EQ(cell_outcomes(Served::kDeadlineFill),
            static_cast<double>(wc.num_cells));
  for (std::size_t c = 0; c < wc.num_cells; ++c) {
    const CellAllocation& a = service.allocation(c);
    EXPECT_EQ(a.served, Served::kDeadlineFill) << "cell " << c;
    for (const robust::StepRecord& r : a.records)
      EXPECT_EQ(r.outcome, robust::StepOutcome::kNotRun) << "cell " << c;
    EXPECT_EQ(robust::fallthrough(a.records), 0u);
    ASSERT_EQ(a.power.size(), wc.num_rbs);
    double total = 0.0;
    for (double p : a.power) {
      EXPECT_EQ(p, a.power[0]) << "cell " << c << ": not an equal split";
      total += p;
    }
    EXPECT_LE(total, wc.total_power * (1.0 + 1e-9));
  }
}

TEST(AllocationService, CellOutcomeCounterAddsUpToTheTickReports) {
  // One rcr.serve.cell_outcome increment per cell-tick, labelled by how the
  // cell was served: the labels partition the fleet's cell-ticks the way
  // the tick reports count them.  Admission defers a cell a tick, so
  // snapshot answers count as degraded beside the cache hits.
  const WorkloadConfig wc = small_workload();
  DiurnalWorkload wl(wc);
  ServiceConfig sc;
  sc.admission.enabled = true;
  sc.admission.max_solves_per_tick = wc.num_cells - 1;
  AllocationService service(sc, wc.num_cells);
  obs::ScopedMetrics metrics;
  const std::size_t ticks = 12;
  std::size_t cache_hits = 0, deadline_fills = 0, degraded = 0;
  for (std::size_t t = 0; t < ticks; ++t) {
    wl.advance(t);
    const TickReport report = service.tick(t, wl);
    cache_hits += report.cache_hits;
    deadline_fills += report.deadline_fills;
    degraded += report.degraded;
  }
  EXPECT_GT(cache_hits, 0u);
  EXPECT_GT(degraded, 0u);
  const double total = counter("rcr.serve.cell_outcome");
  EXPECT_EQ(total, static_cast<double>(wc.num_cells * ticks));
  EXPECT_EQ(cell_outcomes(Served::kCache), static_cast<double>(cache_hits));
  EXPECT_EQ(cell_outcomes(Served::kDeadlineFill),
            static_cast<double>(deadline_fills));
  EXPECT_EQ(total - cell_outcomes(Served::kCache) -
                cell_outcomes(Served::kAdmm),
            static_cast<double>(degraded));
}

TEST(AllocationService, FleetSizeMismatchThrows) {
  DiurnalWorkload wl(small_workload());
  ServiceConfig sc;
  AllocationService service(sc, 2);  // workload has 4 cells
  EXPECT_THROW(service.tick(0, wl), std::invalid_argument);
}

}  // namespace
}  // namespace rcr::serve
