// The grouped tick: cells fan out in groups of kSignatureChains, whose
// cache signatures hash together, one chain per cell.
//
// Every piece must reproduce its one-cell form bit for bit: the multi-
// problem signature against problem_signature, and the tick's answers
// across thread counts, chunk sizes and an armed fault spec.  The tick's
// solution hash, four cell chains at a time, must move with every answer
// bit and with nothing else.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/alloc_probe.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/simd.hpp"
#include "rcr/rt/thread_pool.hpp"
#include "rcr/serve/service.hpp"

namespace rcr::serve {
namespace {

/// tickbench's wide-refresh shape: 16 cells x 48 RBs, a fading refresh on
/// every tick, 2 to 16 users.
WorkloadConfig wide_refresh() {
  WorkloadConfig wc;
  wc.num_cells = 16;
  wc.num_rbs = 48;
  wc.min_users = 2;
  wc.peak_users = 16;
  wc.period_ticks = 128;
  wc.coherence_ticks = 1;
  wc.seed = 1;
  return wc;
}

TEST(TickGroups, FnvMatchesKnownVectors) {
  // The published 64-bit FNV-1a vectors from the published offset basis,
  // and chaining through the seed.
  const std::uint64_t basis = 0xcbf29ce484222325ull;
  EXPECT_EQ(fnv1a_bytes("", 0, basis), basis);
  EXPECT_EQ(fnv1a_bytes("a", 1, basis), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a_bytes("foobar", 6, basis), 0x85944171f73967e8ull);
  EXPECT_EQ(fnv1a_bytes("bar", 3, fnv1a_bytes("foo", 3, basis)),
            0x85944171f73967e8ull);
  // The default seed, which the committed fleet report hashes were made
  // with.
  EXPECT_EQ(fnv1a_bytes("", 0), kHashBasis);
  EXPECT_EQ(fnv1a_bytes("foobar", 6), 9870438755804841970ull);
}

TEST(TickGroups, MultiProblemSignaturesMatchOneAtATime) {
  WorkloadConfig wc = wide_refresh();
  wc.num_cells = 9;
  wc.num_rbs = 12;
  DiurnalWorkload workload(wc);
  for (std::size_t t = 0; t <= 40; ++t) workload.advance(t);
  std::vector<RraProblem> problems;
  for (std::size_t c = 0; c < wc.num_cells; ++c)
    problems.push_back(workload.cell(c));
  // Assigned gains off the fast path take the reference: a dead RB (every
  // gain zero), an all-NaN RB, an infinite gain and a subnormal one.
  for (std::size_t u = 0; u < problems[2].num_users(); ++u)
    problems[2].gain(u, 3) = 0.0;
  for (std::size_t u = 0; u < problems[3].num_users(); ++u)
    problems[3].gain(u, 7) = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t u = 0; u < problems[5].num_users(); ++u)
    problems[5].gain(u, 5) = u == 0 ? 4.9e-324 : 0.0;
  problems[4].gain(1, 0) = std::numeric_limits<double>::infinity();
  std::vector<qos::Assignment> assignments;
  for (const RraProblem& p : problems)
    assignments.push_back(qos::best_gain_assignment(p));
  std::size_t mixed_users = 0;
  for (std::size_t c = 1; c < problems.size(); ++c)
    mixed_users += problems[c].num_users() != problems[0].num_users();
  EXPECT_GT(mixed_users, 0u);

  for (const double quantum : {0.05, 1e-4}) {
    SignatureConfig config;
    config.gain_log2_quantum = quantum;
    for (std::size_t count = 1; count <= problems.size(); ++count) {
      std::vector<const RraProblem*> ps;
      std::vector<const qos::Assignment*> as;
      for (std::size_t c = 0; c < count; ++c) {
        ps.push_back(&problems[c]);
        as.push_back(&assignments[c]);
      }
      std::vector<std::uint64_t> sigs(count);
      problem_signatures(ps, as, config, sigs);
      for (std::size_t c = 0; c < count; ++c)
        ASSERT_EQ(sigs[c], problem_signature(problems[c], assignments[c],
                                             config))
            << "count " << count << " problem " << c << " quantum "
            << quantum;
    }
  }
  // Span lengths must agree, and each assignment must cover its RBs.
  std::vector<std::uint64_t> two(2);
  const RraProblem* p0 = &problems[0];
  const qos::Assignment* a0 = &assignments[0];
  EXPECT_THROW(problem_signatures({&p0, 1}, {&a0, 1}, {}, two),
               std::invalid_argument);
  const qos::Assignment short_assignment(3, 0);
  const qos::Assignment* a_short = &short_assignment;
  EXPECT_THROW(problem_signatures({&p0, 1}, {&a_short, 1}, {}, {two.data(), 1}),
               std::invalid_argument);
  // The key reads gain(assignment[rb], rb): every entry must name a user.
  qos::Assignment stray = assignments[0];
  stray.back() = problems[0].num_users();
  EXPECT_THROW(problem_signature(problems[0], stray), std::invalid_argument);
}

TEST(TickGroups, SignaturesSizeTheirWordsFromTheFloorsGiven) {
  // problem_signature does not validate: a floor vector longer than the
  // user count is hashed in full, and so is every assigned gain after it.
  WorkloadConfig wc = wide_refresh();
  wc.num_cells = 5;
  wc.num_rbs = 6;
  DiurnalWorkload workload(wc);
  workload.advance(0);
  std::vector<RraProblem> problems;
  for (std::size_t c = 0; c < wc.num_cells; ++c) {
    problems.push_back(workload.cell(c));
    problems.back().min_rate.resize(problems.back().num_users() + 7, 0.5);
  }
  // best_gain_assignment validates, so it runs on a copy with matching
  // floors.
  std::vector<qos::Assignment> assignments;
  for (const RraProblem& p : problems) {
    RraProblem valid = p;
    valid.min_rate.resize(p.num_users());
    assignments.push_back(qos::best_gain_assignment(valid));
  }
  // The last RB's winner gains more and stays the winner, so problem 3's
  // assignment still holds.
  RraProblem moved = problems[3];
  const std::size_t last_rb = wc.num_rbs - 1;
  double& last_gain = moved.gain(assignments[3][last_rb], last_rb);
  last_gain = 4.0 * last_gain + 1.0;
  std::vector<const RraProblem*> ps;
  std::vector<const qos::Assignment*> as;
  for (std::size_t c = 0; c < problems.size(); ++c) {
    ps.push_back(&problems[c]);
    as.push_back(&assignments[c]);
  }
  std::vector<std::uint64_t> sigs(ps.size());
  problem_signatures(ps, as, {}, sigs);
  for (std::size_t c = 0; c < problems.size(); ++c)
    EXPECT_EQ(sigs[c], problem_signature(problems[c], assignments[c]))
        << "problem " << c;
  EXPECT_NE(problem_signature(moved, assignments[3]), sigs[3]);
}

/// Per-tick witnesses: the solution hash and each cell's iterations, how it
/// was served and what became of its warm state.
std::vector<std::uint64_t> run_ticks(const ServiceConfig& config,
                                     std::size_t ticks) {
  const WorkloadConfig wc = wide_refresh();
  DiurnalWorkload workload(wc);
  AllocationService service(config, wc.num_cells);
  std::vector<std::uint64_t> out;
  for (std::size_t t = 0; t < ticks; ++t) {
    workload.advance(t);
    const TickReport r = service.tick(t, workload);
    out.push_back(r.solution_hash);
    out.push_back(r.total_iterations);
    for (std::size_t c = 0; c < wc.num_cells; ++c) {
      const CellAllocation& a = service.allocation(c);
      out.push_back(a.iterations * 64 + static_cast<std::uint64_t>(a.served) *
                                            4 +
                    static_cast<std::uint64_t>(a.warm_use));
    }
  }
  return out;
}

class ThreadCount {
 public:
  explicit ThreadCount(std::size_t n) : saved_(rt::global_threads()) {
    rt::set_global_threads(n);
  }
  ~ThreadCount() { rt::set_global_threads(saved_); }

 private:
  std::size_t saved_;
};

TEST(TickGroups, AnswersMatchAcrossThreadsChunksAndArmedSpecs) {
  const std::size_t ticks = 24;
  std::vector<std::uint64_t> serial;
  {
    rt::ForceSerialGuard guard;
    serial = run_ticks(ServiceConfig{}, ticks);
  }
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadCount pool(threads);
    for (std::size_t chunk : {1u, 3u, 5u, 16u}) {
      ServiceConfig config;
      config.cells_per_chunk = chunk;
      EXPECT_EQ(run_ticks(config, ticks), serial)
          << "threads " << threads << " cells_per_chunk " << chunk;
    }
  }
  // An armed spec that never fires polls every fault site: the same
  // answers.
  {
    robust::faults::ScopedFaults armed("seed=3,rate=0,sites=serve.*");
    ASSERT_TRUE(robust::faults::enabled());
    EXPECT_EQ(run_ticks(ServiceConfig{}, ticks), serial);
  }
  // A firing serve.* storm: keyed by cell stamp, so identical across pools.
  ServiceConfig stormy;
  stormy.breaker.enabled = true;
  stormy.watchdog.enabled = true;
  std::vector<std::uint64_t> storm_serial;
  {
    robust::faults::ScopedFaults armed("seed=3,rate=0.2,sites=serve.*");
    rt::ForceSerialGuard guard;
    storm_serial = run_ticks(stormy, ticks);
  }
  EXPECT_NE(storm_serial, serial);
  for (std::size_t threads : {2u, 4u}) {
    ThreadCount pool(threads);
    robust::faults::ScopedFaults armed("seed=3,rate=0.2,sites=serve.*");
    EXPECT_EQ(run_ticks(stormy, ticks), storm_serial) << "threads " << threads;
  }
}

/// Every cell's answer after `ticks` ticks of the wide-refresh fleet, and
/// the last tick's solution hash.
std::vector<CellAllocation> last_answers(std::size_t ticks,
                                         std::uint64_t& hash) {
  const WorkloadConfig wc = wide_refresh();
  DiurnalWorkload workload(wc);
  AllocationService service(ServiceConfig{}, wc.num_cells);
  for (std::size_t t = 0; t < ticks; ++t) {
    workload.advance(t);
    hash = service.tick(t, workload).solution_hash;
  }
  std::vector<CellAllocation> answers;
  for (std::size_t c = 0; c < wc.num_cells; ++c)
    answers.push_back(service.allocation(c));
  return answers;
}

TEST(TickGroups, SolutionHashMovesWithEveryAnswerBitAndNothingElse) {
  std::uint64_t reported = 0;
  std::vector<CellAllocation> answers;
  {
    rt::ForceSerialGuard serial;
    answers = last_answers(6, reported);
  }
  const std::uint64_t base = solution_hash(answers);
  EXPECT_EQ(base, reported);
  // A fleet that is not a whole number of four-cell groups hashes its tail
  // chains one at a time.
  EXPECT_NE(solution_hash({answers.data(), 7}), solution_hash(answers));

  std::size_t moves = 0;
  std::size_t probes = 0;
  for (CellAllocation& a : answers) {
    for (double& p : a.power) {
      const double saved = p;
      for (int bit = 0; bit < 64; ++bit) {
        p = std::bit_cast<double>(std::bit_cast<std::uint64_t>(saved) ^
                                  (std::uint64_t{1} << bit));
        moves += solution_hash(answers) != base;
        ++probes;
      }
      p = saved;
    }
    for (std::size_t& user : a.assignment) {
      const std::size_t saved = user;
      user = saved + 1;
      moves += solution_hash(answers) != base;
      user = saved == 0 ? 1 : saved - 1;
      moves += solution_hash(answers) != base;
      probes += 2;
      user = saved;
    }
  }
  EXPECT_EQ(moves, probes);
  // Restored, and blind to what is not the answer.
  EXPECT_EQ(solution_hash(answers), base);
  answers[3].sum_rate += 1.0;
  answers[3].iterations += 5;
  answers[3].served = Served::kCache;
  EXPECT_EQ(solution_hash(answers), base);
}

TEST(TickGroups, SolutionHashHoldsAcrossPoolsAndDispatchPaths) {
  std::uint64_t serial = 0;
  {
    rt::ForceSerialGuard guard;
    last_answers(6, serial);
  }
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadCount pool(threads);
    std::uint64_t hash = 0;
    last_answers(6, hash);
    EXPECT_EQ(hash, serial) << "threads " << threads;
  }
  // Serial ticks run every kernel on this thread, so the guard covers them.
  rt::ForceSerialGuard guard;
  rt::simd::ForceScalarGuard scalar;
  std::uint64_t hash = 0;
  last_answers(6, hash);
  EXPECT_EQ(hash, serial);
}

TEST(TickGroups, SteadyWideRefreshTickAllocationsDoNotRise) {
  // Allocations per steady 16-cell wide-refresh tick, serial: 184.2 with
  // one assignment and signature per cell, 168.2 with the allocation-free
  // assignment and grouped signatures, 0 once the chain, its answer, the
  // cache entry, the cache's staged puts and the plan live in storage the
  // service keeps.
  //
  // The run is the default config, 16 cache shards.  The warm-up fills the
  // 4096-entry cache (16 puts a tick), so every put evicts and hands the
  // victim's storage to the next put; the staged puts come from one pool
  // whatever shard their keys fall on, so it stops growing at the fleet's
  // 16 puts a tick.
  const WorkloadConfig wc = wide_refresh();
  DiurnalWorkload workload(wc);
  const ServiceConfig config;
  AllocationService service(config, wc.num_cells);
  rt::ForceSerialGuard serial;
  const std::size_t warm_up = 400;
  for (std::size_t t = 0; t < warm_up; ++t) {
    workload.advance(t);
    service.tick(t, workload);
  }
  ASSERT_EQ(service.cache_stats().size, config.cache_capacity);
  std::uint64_t allocations = 0;
  const std::size_t measured = 400;
  for (std::size_t t = warm_up; t < warm_up + measured; ++t) {
    workload.advance(t);
    const rt::AllocDelta delta;
    service.tick(t, workload);
    allocations += delta.delta();
  }
  EXPECT_EQ(allocations, 0u);
}

TEST(TickGroups, SteadyOverloadTickSnapshotServesDoNotAllocate) {
  // bench_serve_soak's overload leg: 16 cells x 12 RBs, block fading every
  // 4 ticks, the full configuration plus admission at half the fleet per
  // tick, brownout, breakers and the watchdog.  Every tick serves the cells
  // admission defers from their snapshots, into the answers' own vectors.
  // The warm-up runs until the cache is full, so its puts recycle the
  // storage of the entries they evict, and 1000 ticks on, so the pool of
  // staged puts has met a tick with the whole solve budget's puts.
  WorkloadConfig wc;
  wc.num_cells = 16;
  wc.num_rbs = 12;
  wc.min_users = 2;
  wc.peak_users = 8;
  wc.period_ticks = 128;
  wc.coherence_ticks = 4;
  wc.seed = 42;
  DiurnalWorkload workload(wc);
  ServiceConfig config;
  config.admission.enabled = true;
  config.admission.max_solves_per_tick = wc.num_cells / 2;
  config.admission.cell_slices = {qos::ServiceClass::kUrllc,
                                  qos::ServiceClass::kEmbb,
                                  qos::ServiceClass::kMmtc};
  config.brownout.enabled = true;
  config.breaker.enabled = true;
  config.watchdog.enabled = true;
  AllocationService service(config, wc.num_cells);
  rt::ForceSerialGuard serial;
  std::size_t warm_up = 0;
  for (; service.cache_stats().size < config.cache_capacity && warm_up < 20000;
       ++warm_up) {
    workload.advance(warm_up);
    service.tick(warm_up, workload);
  }
  ASSERT_EQ(service.cache_stats().size, config.cache_capacity);
  for (const std::size_t end = warm_up + 1000; warm_up < end; ++warm_up) {
    workload.advance(warm_up);
    service.tick(warm_up, workload);
  }
  std::uint64_t allocations = 0;
  std::size_t snapshot_serves = 0;
  for (std::size_t t = warm_up; t < warm_up + 384; ++t) {
    workload.advance(t);
    const rt::AllocDelta delta;
    const TickReport report = service.tick(t, workload);
    allocations += delta.delta();
    snapshot_serves += report.deferred + report.shed + report.quarantined;
  }
  EXPECT_GT(snapshot_serves, 0u);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace rcr::serve
