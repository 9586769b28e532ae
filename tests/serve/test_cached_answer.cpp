// The solution cache keeps a CachedAnswer, not a CellAllocation: the power
// vector, sum_rate, the chain's step records and warm_use.  A hit rebuilds
// its assignment from the tick's best-gain assignment, which the signature
// pins word for word.
//
// The differential test holds every hit on the narrow soak shape to a
// test-side cache of whole CellAllocations keyed by problem_signature; the
// unit tests pin the store/restore round trip, the wrong-length guard and
// an allocation-free hit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/alloc_probe.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/serve/cache.hpp"
#include "rcr/serve/cached_answer.hpp"
#include "rcr/serve/service.hpp"

namespace rcr::serve {
namespace {

using detail::CachedAnswer;
using detail::restore_answer;
using detail::store_answer;

/// bench_serve_soak's shape: 16 cells x 12 RBs, coherence 4 (about 68% of
/// cell-ticks hit the cache).
WorkloadConfig narrow_soak() {
  WorkloadConfig wc;
  wc.num_cells = 16;
  wc.num_rbs = 12;
  wc.min_users = 2;
  wc.peak_users = 8;
  wc.period_ticks = 128;
  wc.coherence_ticks = 4;
  wc.seed = 42;
  return wc;
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_records(const robust::StepRecords& got,
                         const robust::StepRecords& want) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].outcome, want[i].outcome) << "step " << i;
    EXPECT_EQ(got[i].code, want[i].code) << "step " << i;
  }
}

struct DiffCounts {
  std::size_t hits = 0;
  std::size_t cell_ticks = 0;
  std::size_t degraded_hits = 0;  ///< Hits of a run that fell through.
};

/// Serve `ticks` ticks of the narrow soak and hold every kCache answer to
/// a test-side cache of whole allocations, filled from the same tick's
/// fresh answers after its hits are checked (the service's puts commit at
/// the end of the tick).  It never evicts, so it holds the last answer put
/// under each signature, which is what a resident service entry holds.
/// The fleet's problems rotate by one cell a tick, so a hit lands on a cell
/// whose previous answer was another problem's: a field the hit left
/// unwritten would show.
DiffCounts diff_hits_against_full_cache(std::size_t ticks) {
  const WorkloadConfig wc = narrow_soak();
  DiurnalWorkload workload(wc);
  const ServiceConfig config;
  AllocationService service(config, wc.num_cells);
  ShardedLruCache<CellAllocation> reference(1u << 16, 1);
  DiffCounts counts;
  for (std::size_t t = 0; t < ticks; ++t) {
    workload.advance(t);
    const auto problem_of = [&](std::size_t c) -> const RraProblem& {
      return workload.cell((c + t) % wc.num_cells);
    };
    service.tick(t, problem_of);
    std::vector<std::uint64_t> sigs(wc.num_cells);
    for (std::size_t c = 0; c < wc.num_cells; ++c) {
      sigs[c] = problem_signature(problem_of(c), config.signature);
      const CellAllocation& got = service.allocation(c);
      ++counts.cell_ticks;
      if (got.served != Served::kCache) continue;
      ++counts.hits;
      CellAllocation want;
      const std::uint64_t stamp = t * wc.num_cells + c;
      if (!reference.get(sigs[c], stamp, want)) {
        ADD_FAILURE() << "tick " << t << " cell " << c
                      << ": a hit with no answer put";
        continue;
      }
      EXPECT_EQ(got.assignment, want.assignment) << "tick " << t;
      EXPECT_TRUE(same_bits(got.power, want.power)) << "tick " << t;
      EXPECT_TRUE(same_bits(got.sum_rate, want.sum_rate)) << "tick " << t;
      EXPECT_EQ(got.warm_use, want.warm_use) << "tick " << t;
      expect_same_records(got.records, want.records);
      EXPECT_EQ(got.iterations, 0u);
      EXPECT_EQ(got.step, "cache");
      EXPECT_FALSE(got.injected);
      if (robust::fallthrough(got.records) > 0) ++counts.degraded_hits;
    }
    for (std::size_t c = 0; c < wc.num_cells; ++c) {
      const CellAllocation& fresh = service.allocation(c);
      if (fresh.served != Served::kCache)
        reference.put(sigs[c], t * wc.num_cells + c, fresh);
    }
  }
  return counts;
}

TEST(CachedAnswer, NarrowSoakHitsMatchACacheOfWholeAllocations) {
  const DiffCounts counts = diff_hits_against_full_cache(384);
  EXPECT_GT(counts.hits * 100, counts.cell_ticks * 60)
      << counts.hits << " hits of " << counts.cell_ticks;
}

TEST(CachedAnswer, DegradedHitsKeepTheirRecords) {
  // A failing head leaves water-filling to answer, degraded, with the head's
  // failed record, which a hit on the cached answer must return.
  robust::faults::ScopedFaults armed(
      "seed=5,rate=0.3,sites=serve.admm.outage");
  const DiffCounts counts = diff_hits_against_full_cache(128);
  EXPECT_GT(counts.degraded_hits, 0u);
  EXPECT_GT(counts.hits, counts.degraded_hits);
}

CellAllocation sample_answer() {
  CellAllocation a;
  a.assignment = {0, 1, 1, 0};
  a.power = {0.25, 0.5, 0.125, 0.125};
  a.sum_rate = 3.5;
  a.iterations = 17;
  a.warm_use = opt::WarmUse::kAccepted;
  a.served = Served::kWaterfill;
  a.step = to_string(Served::kWaterfill);
  a.records[0] = {robust::StepOutcome::kFailed,
                  robust::StatusCode::kNumericalFailure};
  a.records[1] = {robust::StepOutcome::kWon, robust::StatusCode::kOk};
  return a;
}

TEST(CachedAnswer, StoreAndRestoreRoundTripEveryServedField) {
  const CellAllocation solved = sample_answer();
  CachedAnswer entry;
  store_answer(solved, entry);
  expect_same_records(entry.records, solved.records);

  // A copy (the cache's get and put) is deep.
  const CachedAnswer copy = entry;
  CellAllocation clean_solve = sample_answer();
  clean_solve.power[0] = 0.5;
  clean_solve.records = {};
  clean_solve.records[0] = {robust::StepOutcome::kWon,
                            robust::StatusCode::kOk};
  store_answer(clean_solve, entry);
  EXPECT_EQ(entry.power[0], 0.5);
  EXPECT_EQ(copy.power[0], 0.25);
  EXPECT_EQ(robust::fallthrough(entry.records), 0u);

  CellAllocation hit;
  hit.iterations = 99;
  hit.injected = true;
  ASSERT_TRUE(restore_answer(copy, solved.assignment, hit));
  EXPECT_EQ(hit.assignment, solved.assignment);
  EXPECT_TRUE(same_bits(hit.power, solved.power));
  EXPECT_TRUE(same_bits(hit.sum_rate, solved.sum_rate));
  EXPECT_EQ(hit.iterations, 0u);
  EXPECT_EQ(hit.warm_use, opt::WarmUse::kAccepted);
  EXPECT_EQ(hit.served, Served::kCache);
  EXPECT_EQ(hit.step, "cache");
  expect_same_records(hit.records, solved.records);
  EXPECT_FALSE(hit.injected);

  // Restoring a clean entry over a degraded answer clears its records.
  ASSERT_TRUE(restore_answer(entry, solved.assignment, hit));
  expect_same_records(hit.records, clean_solve.records);
  EXPECT_EQ(robust::fallthrough(hit.records), 0u);
}

TEST(CachedAnswer, RestoreTurnsAPowerVectorOfTheWrongLengthIntoAMiss) {
  // Two problems of different RB counts under one 64-bit signature: the
  // entry cannot be this problem's answer.
  CachedAnswer entry;
  store_answer(sample_answer(), entry);
  CellAllocation out = sample_answer();
  out.served = Served::kAdmm;
  const qos::Assignment longer = {0, 1, 1, 0, 1};
  const qos::Assignment shorter = {0, 1, 1};
  EXPECT_FALSE(restore_answer(entry, longer, out));
  EXPECT_FALSE(restore_answer(entry, shorter, out));
  EXPECT_EQ(out.served, Served::kAdmm) << "a miss leaves the answer alone";
  EXPECT_EQ(out.assignment.size(), 4u);
  EXPECT_TRUE(restore_answer(entry, out.assignment, out));
}

TEST(CachedAnswer, ACacheHitTickAllocatesNothing) {
  // Every cell of a fleet whose problems hold still hits from the second
  // tick on: the hit copies into the cell's entry, then into its answer,
  // both storage the service already owns.
  const WorkloadConfig wc = narrow_soak();
  DiurnalWorkload workload(wc);
  workload.advance(0);
  std::vector<RraProblem> problems;
  for (std::size_t c = 0; c < wc.num_cells; ++c)
    problems.push_back(workload.cell(c));
  const AllocationService::ProblemFn problem_of =
      [&](std::size_t c) -> const RraProblem& { return problems[c]; };
  AllocationService service(ServiceConfig{}, wc.num_cells);
  rt::ForceSerialGuard serial;
  service.tick(0, problem_of);
  for (std::size_t t = 1; t < 4; ++t) {
    const rt::AllocDelta delta;
    const TickReport report = service.tick(t, problem_of);
    EXPECT_EQ(delta.delta(), 0u) << "tick " << t;
    EXPECT_EQ(report.cache_hits, wc.num_cells);
  }
}

}  // namespace
}  // namespace rcr::serve
