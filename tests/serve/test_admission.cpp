// Slice-aware admission control: planner ordering and budget semantics,
// snapshot service for deferred/shed cells, the full-shed expired-deadline
// tick, and bit-exactness of every admission decision across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rcr/obs/obs.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/serve/overload.hpp"
#include "rcr/serve/service.hpp"
#include "served_records.hpp"

namespace rcr::serve {
namespace {

WorkloadConfig admission_workload() {
  WorkloadConfig wc;
  wc.num_cells = 6;
  wc.num_rbs = 6;
  wc.min_users = 2;
  wc.peak_users = 3;
  wc.period_ticks = 16;
  wc.coherence_ticks = 4;
  wc.seed = 99;
  return wc;
}

ServiceConfig admission_config() {
  ServiceConfig sc;
  sc.admission.enabled = true;
  sc.admission.max_solves_per_tick = 3;
  sc.admission.max_stale_ticks = 4;
  // Cell-sliced priorities: U, E, M, U, E, M.
  sc.admission.cell_slices = {qos::ServiceClass::kUrllc,
                              qos::ServiceClass::kEmbb,
                              qos::ServiceClass::kMmtc};
  return sc;
}

TEST(PriorityRank, UrllcOutranksEmbbOutranksMmtc) {
  EXPECT_LT(priority_rank(qos::ServiceClass::kUrllc),
            priority_rank(qos::ServiceClass::kEmbb));
  EXPECT_LT(priority_rank(qos::ServiceClass::kEmbb),
            priority_rank(qos::ServiceClass::kMmtc));
}

TEST(AdmissionPlanner, DisabledAdmitsEverything) {
  std::vector<CellGate> gates(5);
  AdmissionInputs in;
  const AdmissionPlan plan = plan_admission(gates, in);
  EXPECT_EQ(plan.admitted, 5u);
  EXPECT_EQ(plan.deferred + plan.shed + plan.quarantined, 0u);
}

TEST(AdmissionPlanner, BudgetAdmitsByRankThenStaleness) {
  // ranks U(0) E(1) E(1) M(2); the stale eMBB cell beats the fresh one.
  std::vector<CellGate> gates(4);
  gates[0].rank = 0;
  gates[1].rank = 1;
  gates[1].staleness = 0;
  gates[2].rank = 1;
  gates[2].staleness = 3;
  gates[3].rank = 2;
  AdmissionInputs in;
  in.admission_enabled = true;
  in.budget = 2;
  in.max_stale_ticks = 8;
  const AdmissionPlan plan = plan_admission(gates, in);
  EXPECT_EQ(plan.decisions[0], AdmitDecision::kAdmit);
  EXPECT_EQ(plan.decisions[2], AdmitDecision::kAdmit);
  EXPECT_EQ(plan.decisions[1], AdmitDecision::kDefer);
  EXPECT_EQ(plan.decisions[3], AdmitDecision::kDefer);
  EXPECT_EQ(plan.admitted, 2u);
  EXPECT_EQ(plan.deferred, 2u);
}

TEST(AdmissionPlanner, OverStaleDeferralsBecomeSheds) {
  std::vector<CellGate> gates(3);
  gates[0].rank = 0;
  gates[1].rank = 2;
  gates[1].staleness = 4;
  gates[2].rank = 2;
  gates[2].staleness = 1;
  AdmissionInputs in;
  in.admission_enabled = true;
  in.budget = 1;
  in.max_stale_ticks = 4;
  const AdmissionPlan plan = plan_admission(gates, in);
  EXPECT_EQ(plan.decisions[0], AdmitDecision::kAdmit);
  EXPECT_EQ(plan.decisions[1], AdmitDecision::kShed);
  EXPECT_EQ(plan.decisions[2], AdmitDecision::kDefer);
}

TEST(AdmissionPlanner, ShedLowestKeepsOnlyTheTopClassPresent) {
  std::vector<CellGate> gates(4);
  gates[0].rank = 1;
  gates[1].rank = 1;
  gates[2].rank = 2;
  gates[3].rank = 2;
  AdmissionInputs in;
  in.shed_lowest = true;
  in.max_stale_ticks = 100;
  const AdmissionPlan plan = plan_admission(gates, in);
  // No URLLC present: the top rank *present* (eMBB) is admitted.
  EXPECT_EQ(plan.decisions[0], AdmitDecision::kAdmit);
  EXPECT_EQ(plan.decisions[1], AdmitDecision::kAdmit);
  EXPECT_EQ(plan.decisions[2], AdmitDecision::kDefer);
  EXPECT_EQ(plan.decisions[3], AdmitDecision::kDefer);
}

TEST(AdmissionPlanner, FullShedShedsEveryCell) {
  std::vector<CellGate> gates(3);
  AdmissionInputs in;
  in.full_shed = true;
  const AdmissionPlan plan = plan_admission(gates, in);
  EXPECT_EQ(plan.shed, 3u);
  for (const AdmitDecision d : plan.decisions)
    EXPECT_EQ(d, AdmitDecision::kShed);
}

TEST(AdmissionPlanner, QuarantinedCellsNeverConsumeBudget) {
  std::vector<CellGate> gates(3);
  gates[0].quarantined = true;
  AdmissionInputs in;
  in.admission_enabled = true;
  in.budget = 2;
  const AdmissionPlan plan = plan_admission(gates, in);
  EXPECT_EQ(plan.decisions[0], AdmitDecision::kQuarantine);
  EXPECT_EQ(plan.decisions[1], AdmitDecision::kAdmit);
  EXPECT_EQ(plan.decisions[2], AdmitDecision::kAdmit);
  EXPECT_EQ(plan.quarantined, 1u);
  EXPECT_EQ(plan.admitted, 2u);
}

TEST(AdmissionPlanner, InPlacePlanOverwritesEveryFieldOfAReusedPlan) {
  // One plan object across ticks of different shapes and policies reads as
  // a fresh plan each time.
  std::vector<CellGate> budgeted(4);
  budgeted[0].quarantined = true;
  budgeted[2].rank = 2;
  budgeted[3].staleness = 9;
  AdmissionInputs tight;
  tight.admission_enabled = true;
  tight.budget = 1;
  tight.max_stale_ticks = 4;
  AdmissionInputs open;
  AdmissionInputs shed_all;
  shed_all.full_shed = true;
  const std::vector<CellGate> three(3);
  struct Case {
    const std::vector<CellGate>* gates;
    const AdmissionInputs* in;
  };
  const Case cases[] = {{&budgeted, &tight},
                        {&three, &open},
                        {&budgeted, &shed_all},
                        {&three, &tight}};
  AdmissionPlan reused;
  for (int round = 0; round < 2; ++round) {
    for (const Case& c : cases) {
      plan_admission(*c.gates, *c.in, reused);
      const AdmissionPlan fresh = plan_admission(*c.gates, *c.in);
      EXPECT_EQ(reused.decisions, fresh.decisions);
      EXPECT_EQ(reused.injected, fresh.injected);
      EXPECT_EQ(reused.admitted, fresh.admitted);
      EXPECT_EQ(reused.deferred, fresh.deferred);
      EXPECT_EQ(reused.shed, fresh.shed);
      EXPECT_EQ(reused.quarantined, fresh.quarantined);
    }
  }
}

TEST(Admission, BudgetCapsSolvesAndHighPriorityCellsStayFresh) {
  const WorkloadConfig wc = admission_workload();
  DiurnalWorkload wl(wc);
  ServiceConfig sc = admission_config();
  sc.cache_enabled = false;  // every admitted cell actually solves
  AllocationService service(sc, wc.num_cells);

  for (std::size_t t = 0; t < 8; ++t) {
    wl.advance(t);
    const TickReport r = service.tick(t, wl);
    EXPECT_LE(r.solves, sc.admission.max_solves_per_tick) << "tick " << t;
    EXPECT_EQ(r.admitted + r.deferred + r.shed + r.quarantined,
              wc.num_cells);
    // The two URLLC cells (0, 3) fit inside the budget of 3 every tick.
    for (const std::size_t c : {0u, 3u}) {
      const CellAllocation& a = service.allocation(c);
      EXPECT_NE(a.step, "snapshot") << "URLLC cell " << c << " tick " << t;
      EXPECT_NE(a.step, "shed-fill") << "URLLC cell " << c << " tick " << t;
    }
    // Every cell still has a budget-feasible answer.
    for (std::size_t c = 0; c < wc.num_cells; ++c) {
      const CellAllocation& a = service.allocation(c);
      ASSERT_EQ(a.power.size(), wc.num_rbs);
      double total = 0.0;
      for (double p : a.power) {
        EXPECT_GE(p, 0.0);
        total += p;
      }
      EXPECT_LE(total, wc.total_power * (1.0 + 1e-9));
    }
  }
}

TEST(Admission, DeferredCellsRunNoChainStep) {
  const WorkloadConfig wc = admission_workload();
  DiurnalWorkload wl(wc);
  ServiceConfig sc = admission_config();
  sc.cache_enabled = false;
  AllocationService service(sc, wc.num_cells);

  std::size_t stale_served = 0;
  for (std::size_t t = 0; t < 6; ++t) {
    wl.advance(t);
    service.tick(t, wl);
    for (std::size_t c = 0; c < wc.num_cells; ++c) {
      const CellAllocation& a = service.allocation(c);
      SCOPED_TRACE("cell " + std::to_string(c) + " tick " +
                   std::to_string(t));
      if (a.served == Served::kSnapshot) ++stale_served;
      expect_records_match_served(a);
    }
  }
  EXPECT_GT(stale_served, 0u) << "budget of 3 over 6 cells never deferred";
}

TEST(Admission, ExpiredDeadlineAtTickStartIsAFullShedTick) {
  // Satellite: a deadline that is already gone at the tick boundary must
  // shed everything -- no solver invoked, every cell served from snapshot,
  // one rcr.admit.shed per cell, bit-exact serial vs parallel.
  const WorkloadConfig wc = admission_workload();
  ServiceConfig sc = admission_config();
  sc.cache_enabled = false;
  sc.tick_deadline_s = 1e-12;  // gone before the boundary check runs

  const auto run = [&]() {
    obs::ScopedMetrics metrics;
    DiurnalWorkload wl(wc);
    AllocationService service(sc, wc.num_cells);
    std::vector<std::uint64_t> hashes;
    for (std::size_t t = 0; t < 3; ++t) {
      wl.advance(t);
      const TickReport r = service.tick(t, wl);
      EXPECT_EQ(r.solves, 0u) << "tick " << t << ": a solver ran";
      EXPECT_EQ(r.cache_hits, 0u);
      EXPECT_EQ(r.shed, wc.num_cells);
      EXPECT_EQ(r.admitted, 0u);
      for (std::size_t c = 0; c < wc.num_cells; ++c) {
        const CellAllocation& a = service.allocation(c);
        EXPECT_EQ(a.step, "shed-fill") << "cell " << c;
        EXPECT_EQ(a.power.size(), wc.num_rbs);
        double total = 0.0;
        for (double p : a.power) total += p;
        EXPECT_LE(total, wc.total_power * (1.0 + 1e-9));
      }
      hashes.push_back(r.solution_hash);
    }
    // One rcr.admit.shed per cell per tick.
    for (const obs::MetricSample& s : obs::metrics_snapshot()) {
      if (s.name == "rcr.admit.shed") {
        EXPECT_EQ(s.value, static_cast<double>(3 * wc.num_cells));
      }
    }
    return hashes;
  };

  std::vector<std::uint64_t> serial_hashes;
  {
    rt::ForceSerialGuard serial;
    serial_hashes = run();
  }
  const std::vector<std::uint64_t> parallel_hashes = run();
  EXPECT_EQ(serial_hashes, parallel_hashes);
}

TEST(Admission, DecisionsBitExactSerialVsParallel) {
  const WorkloadConfig wc = admission_workload();
  ServiceConfig sc = admission_config();

  const auto run = [&]() {
    DiurnalWorkload wl(wc);
    AllocationService service(sc, wc.num_cells);
    std::vector<std::string> trace;
    for (std::size_t t = 0; t < 10; ++t) {
      wl.advance(t);
      const TickReport r = service.tick(t, wl);
      trace.push_back(std::to_string(r.solution_hash) + ":" +
                      std::to_string(r.admitted) + ":" +
                      std::to_string(r.deferred) + ":" +
                      std::to_string(r.shed));
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
