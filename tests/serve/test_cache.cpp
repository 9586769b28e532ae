// ShardedLruCache and problem-signature semantics.
#include "rcr/serve/cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "rcr/rt/alloc_probe.hpp"
#include "rcr/serve/signature.hpp"
#include "rcr/serve/workload.hpp"

namespace rcr::serve {
namespace {

TEST(ShardedLruCache, MissThenHit) {
  ShardedLruCache<int> cache(64, 4);
  int out = 0;
  EXPECT_FALSE(cache.get(1, 0, out));
  cache.put(1, 0, 41);
  EXPECT_TRUE(cache.get(1, 1, out));
  EXPECT_EQ(out, 41);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.size, 1u);
}

TEST(ShardedLruCache, PutOverwritesAndRefreshesStamp) {
  ShardedLruCache<int> cache(64, 1);
  cache.put(5, 0, 1);
  cache.put(5, 3, 2);
  int out = 0;
  ASSERT_TRUE(cache.get(5, 4, out));
  EXPECT_EQ(out, 2);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(ShardedLruCache, EvictsSmallestStampDeterministically) {
  // One shard of capacity 2: inserting a third key evicts the entry with
  // the smallest stamp regardless of insertion order.
  ShardedLruCache<int> cache(2, 1);
  cache.put(10, 5, 1);
  cache.put(20, 3, 2);  // oldest stamp
  cache.put(30, 7, 3);  // evicts key 20
  int out = 0;
  EXPECT_TRUE(cache.get(10, 8, out));
  EXPECT_FALSE(cache.get(20, 9, out));
  EXPECT_TRUE(cache.get(30, 10, out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLruCache, GetRefreshesRecency) {
  ShardedLruCache<int> cache(2, 1);
  cache.put(1, 0, 1);
  cache.put(2, 1, 2);
  int out = 0;
  ASSERT_TRUE(cache.get(1, 2, out));  // key 1 now newer than key 2
  cache.put(3, 3, 3);                 // evicts key 2
  EXPECT_TRUE(cache.get(1, 4, out));
  EXPECT_FALSE(cache.get(2, 5, out));
}

TEST(ShardedLruCache, StampTiesBreakBySmallerKey) {
  ShardedLruCache<int> cache(2, 1);
  cache.put(7, 1, 1);
  cache.put(9, 1, 2);   // same stamp
  cache.put(11, 2, 3);  // tie on stamp 1 -> evict smaller key 7
  int out = 0;
  EXPECT_FALSE(cache.get(7, 3, out));
  EXPECT_TRUE(cache.get(9, 4, out));
}

TEST(ShardedLruCache, DeferredOpsApplyInStampOrderAtFlush) {
  // Committed: {k1@1, k2@2} in a full capacity-2 shard.  In the deferred
  // window a get of k1 (stamp 10) is buffered AFTER a put of k3 (stamp 5)
  // in call order -- but flush applies ops in STAMP order, exactly as a
  // serial run would have issued them: insert k3@5 evicts k1 (min stamp 1),
  // then the k1@10 refresh finds nothing and is a no-op.
  ShardedLruCache<int> cache(2, 1);
  cache.put(1, 1, 11);
  cache.put(2, 2, 22);

  cache.begin_deferred();
  int out = 0;
  ASSERT_TRUE(cache.get(1, 10, out));  // buffered refresh, call order first
  cache.put(3, 5, 33);                 // buffered insert, smaller stamp
  cache.flush();

  EXPECT_FALSE(cache.get(1, 20, out)) << "k1 must be the eviction victim";
  EXPECT_TRUE(cache.get(2, 21, out));
  EXPECT_TRUE(cache.get(3, 22, out));
  EXPECT_EQ(out, 33);
}

TEST(ShardedLruCache, DeferredRefreshBeforeInsertProtectsTheEntry) {
  // Same shape, but the refresh stamp precedes the insert stamp: flush
  // applies k1@3 first, so the insert at stamp 5 evicts k2 (now oldest).
  ShardedLruCache<int> cache(2, 1);
  cache.put(1, 1, 11);
  cache.put(2, 2, 22);

  cache.begin_deferred();
  int out = 0;
  ASSERT_TRUE(cache.get(1, 3, out));
  cache.put(3, 5, 33);
  cache.flush();

  EXPECT_TRUE(cache.get(1, 20, out));
  EXPECT_FALSE(cache.get(2, 21, out)) << "k2 must be the eviction victim";
  EXPECT_TRUE(cache.get(3, 22, out));
}

TEST(ShardedLruCache, DeferredWindowReadsTheCommittedMapOnly) {
  ShardedLruCache<int> cache(4, 1);
  cache.put(1, 0, 11);

  cache.begin_deferred();
  int out = 0;
  cache.put(2, 1, 22);
  // A racing reader must see the frozen pre-window map regardless of
  // schedule: the buffered insert is invisible until flush.
  EXPECT_FALSE(cache.get(2, 2, out));
  EXPECT_TRUE(cache.get(1, 3, out));
  EXPECT_EQ(cache.stats().size, 1u);
  cache.flush();

  EXPECT_TRUE(cache.get(2, 4, out));
  EXPECT_EQ(out, 22);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(ShardedLruCache, FlushOutsideDeferredWindowIsANoOp) {
  ShardedLruCache<int> cache(4, 1);
  cache.put(1, 0, 11);
  cache.flush();
  int out = 0;
  EXPECT_TRUE(cache.get(1, 1, out));
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(ShardedLruCache, SteadyPutAndEvictCycleAllocatesNothing) {
  // A full shard under a stream of new keys, as on a serve tick whose cache
  // never hits: once the buffered-op slots and the map have grown, each put
  // copies into a reused slot and each eviction re-keys the victim's node,
  // in either mode.
  ShardedLruCache<std::vector<double>> cache(4, 1);
  const std::vector<double> value(48, 0.5);
  std::uint64_t key = 0;
  auto tick = [&](bool deferred) {
    if (deferred) cache.begin_deferred();
    for (int i = 0; i < 3; ++i, ++key) cache.put(key, key, value);
    cache.flush();
  };
  for (int t = 0; t < 4; ++t) tick(t % 2 == 0);
  const std::uint64_t evictions = cache.stats().evictions;
  const rt::AllocDelta delta;
  for (int t = 0; t < 8; ++t) tick(t % 2 == 0);
  EXPECT_EQ(delta.delta(), 0u);
  EXPECT_EQ(cache.stats().evictions, evictions + 24);
  EXPECT_EQ(cache.stats().size, 4u);
  std::vector<double> out;
  EXPECT_TRUE(cache.get(key - 1, key, out));
  EXPECT_EQ(out, value);
  EXPECT_FALSE(cache.get(key - 5, key, out));
}

TEST(ShardedLruCache, SteadyWindowsAllocateNothingHoweverKeysFallOnShards) {
  // Sixteen full shards and deferred windows of eight puts on scattered
  // keys: a window may land more puts on one shard than any window before,
  // yet its staged values come from one pool and every shard's buffer was
  // reserved to a whole window's ops, so nothing grows.
  ShardedLruCache<std::vector<double>> cache(64, 16);
  const std::vector<double> value(48, 0.5);
  std::uint64_t state = 1;
  std::uint64_t stamp = 0;
  auto window = [&] {
    cache.begin_deferred();
    for (int i = 0; i < 8; ++i, ++stamp) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      cache.put(state >> 17, stamp, value);
    }
    cache.flush();
  };
  for (int t = 0; t < 100; ++t) window();
  ASSERT_EQ(cache.stats().size, 64u);
  const std::uint64_t evictions = cache.stats().evictions;
  const rt::AllocDelta delta;
  for (int t = 0; t < 400; ++t) window();
  EXPECT_EQ(delta.delta(), 0u);
  EXPECT_EQ(cache.stats().evictions, evictions + 400 * 8);
}

TEST(ShardedLruCache, ShardCountRoundsUpToPowerOfTwo) {
  ShardedLruCache<int> cache(100, 5);
  EXPECT_EQ(cache.num_shards(), 8u);
}

TEST(ShardedLruCache, ConcurrentPutsAndGetsStayConsistent) {
  ShardedLruCache<std::uint64_t> cache(1024, 16);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeysPerThread = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t]() {
      for (std::size_t i = 0; i < kKeysPerThread; ++i) {
        const std::uint64_t key = t * kKeysPerThread + i;
        cache.put(key, key, key * 3);
        std::uint64_t out = 0;
        if (cache.get(key, key + 1, out)) {
          EXPECT_EQ(out, key * 3);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, kThreads * kKeysPerThread);
  EXPECT_LE(s.size, cache.capacity());
}

TEST(ProblemSignature, IdenticalProblemsShareSignature) {
  WorkloadConfig wc;
  wc.num_cells = 1;
  DiurnalWorkload a(wc), b(wc);
  EXPECT_EQ(problem_signature(a.cell(0)), problem_signature(b.cell(0)));
}

TEST(ProblemSignature, SubQuantumPerturbationKeepsSignature) {
  WorkloadConfig wc;
  wc.num_cells = 1;
  DiurnalWorkload wl(wc);
  RraProblem p = wl.cell(0);
  const std::uint64_t before = problem_signature(p);
  // A 0.01% gain change is far below the default 0.05 log2 quantum --
  // except at a bucket boundary, which the fixture gains do not sit on.
  p.gain(0, 0) *= 1.0001;
  EXPECT_EQ(before, problem_signature(p));
}

TEST(ProblemSignature, MaterialChangesChangeSignature) {
  WorkloadConfig wc;
  wc.num_cells = 1;
  DiurnalWorkload wl(wc);
  const RraProblem& base = wl.cell(0);
  const std::uint64_t sig = problem_signature(base);

  // The key reads each RB's assigned gain: double RB 0's winner, which
  // keeps it the winner.
  RraProblem bigger_gain = base;
  bigger_gain.gain(qos::best_gain_assignment(base)[0], 0) *= 2.0;
  EXPECT_NE(sig, problem_signature(bigger_gain));

  RraProblem more_power = base;
  more_power.total_power *= 2.0;
  EXPECT_NE(sig, problem_signature(more_power));

  RraProblem tighter_qos = base;
  tighter_qos.min_rate[0] += 1.0;
  EXPECT_NE(sig, problem_signature(tighter_qos));
}

/// Three users on four RBs; user 2 wins no RB.
RraProblem three_user_problem() {
  RraProblem p;
  p.gain = num::Matrix(3, 4);
  const double g[3][4] = {{2.0, 0.5, 1.5, 0.25},
                          {1.0, 3.0, 0.75, 4.0},
                          {0.5, 0.25, 1.0, 2.0}};
  for (std::size_t u = 0; u < 3; ++u)
    for (std::size_t rb = 0; rb < 4; ++rb) p.gain(u, rb) = g[u][rb];
  p.total_power = 1.0;
  p.min_rate = Vec(3, 0.0);
  return p;
}

TEST(ProblemSignature, UnassignedGainsBelowTheWinnerLeaveTheKey) {
  const RraProblem base = three_user_problem();
  const qos::Assignment a = qos::best_gain_assignment(base);
  ASSERT_EQ(a, (qos::Assignment{0, 1, 0, 1}));
  const std::uint64_t sig = problem_signature(base);
  // Every losing gain moves far across buckets (halved, or raised to just
  // under its RB's winner) and the assignment holds: the key does not move.
  RraProblem halved = base;
  RraProblem raised = base;
  for (std::size_t u = 0; u < 3; ++u)
    for (std::size_t rb = 0; rb < 4; ++rb)
      if (a[rb] != u) {
        halved.gain(u, rb) *= 0.5;
        raised.gain(u, rb) = 0.99 * base.gain(a[rb], rb);
      }
  EXPECT_EQ(qos::best_gain_assignment(raised), a);
  EXPECT_EQ(problem_signature(halved), sig);
  EXPECT_EQ(problem_signature(raised), sig);
}

TEST(ProblemSignature, AssignedGainCrossingABucketMovesTheKey) {
  const RraProblem base = three_user_problem();
  const double q = SignatureConfig{}.gain_log2_quantum;
  for (std::size_t rb = 0; rb < 4; ++rb) {
    const std::size_t winner = qos::best_gain_assignment(base)[rb];
    RraProblem up = base;
    up.gain(winner, rb) *= std::exp2(1.5 * q);
    ASSERT_NE(quantize_gain(up.gain(winner, rb), q),
              quantize_gain(base.gain(winner, rb), q));
    EXPECT_NE(problem_signature(up), problem_signature(base)) << "rb " << rb;
  }
}

TEST(ProblemSignature, AssignmentFlipMovesTheKey) {
  // Users 0 and 1 tie on RB 0, so either may own it with the same assigned
  // gains: only the assignment word differs.
  RraProblem p = three_user_problem();
  p.gain(1, 0) = p.gain(0, 0);
  const qos::Assignment a = qos::best_gain_assignment(p);
  ASSERT_EQ(a[0], 0u);
  qos::Assignment flipped = a;
  flipped[0] = 1;
  EXPECT_NE(problem_signature(p, a), problem_signature(p, flipped));
}

TEST(ProblemSignature, DeadAndInfiniteAssignedGainsKeepTheirBuckets) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const RraProblem base = three_user_problem();
  const qos::Assignment a = qos::best_gain_assignment(base);
  const auto with_assigned = [&](double g) {
    RraProblem p = base;
    p.gain(a[2], 2) = g;
    return problem_signature(p, a);
  };
  // NaN, zero and -inf share the dead-RB bucket; +inf has its own, apart
  // from the largest finite gain.
  const std::uint64_t dead = with_assigned(0.0);
  EXPECT_EQ(with_assigned(nan), dead);
  EXPECT_EQ(with_assigned(-inf), dead);
  EXPECT_NE(with_assigned(inf), dead);
  EXPECT_NE(with_assigned(inf),
            with_assigned(std::numeric_limits<double>::max()));
  EXPECT_NE(with_assigned(1.5), dead);
  // An all-NaN RB goes to user 0 and buckets dead, like an all-zero RB.
  RraProblem all_nan = base;
  RraProblem all_zero = base;
  for (std::size_t u = 0; u < 3; ++u) {
    all_nan.gain(u, 1) = nan;
    all_zero.gain(u, 1) = 0.0;
  }
  EXPECT_EQ(qos::best_gain_assignment(all_nan)[1], 0u);
  EXPECT_EQ(problem_signature(all_nan), problem_signature(all_zero));
}

TEST(ProblemSignature, QuantumControlsSensitivity) {
  WorkloadConfig wc;
  wc.num_cells = 1;
  DiurnalWorkload wl(wc);
  RraProblem p = wl.cell(0);
  RraProblem drifted = p;
  for (std::size_t u = 0; u < drifted.num_users(); ++u)
    for (std::size_t rb = 0; rb < drifted.num_rbs(); ++rb)
      drifted.gain(u, rb) *= 1.02;  // ~0.0286 in log2

  SignatureConfig coarse;
  coarse.gain_log2_quantum = 1.0;  // buckets of a full octave
  EXPECT_EQ(problem_signature(p, coarse), problem_signature(drifted, coarse));

  SignatureConfig fine;
  fine.gain_log2_quantum = 1e-4;
  EXPECT_NE(problem_signature(p, fine), problem_signature(drifted, fine));
}

TEST(ProblemSignature, ZeroGainUsesSentinelBucket) {
  EXPECT_EQ(quantize_gain(0.0, 0.05),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(quantize_gain(-1.0, 0.05),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_NE(quantize_gain(1e-300, 0.05),
            std::numeric_limits<std::int64_t>::min());
}

}  // namespace
}  // namespace rcr::serve
