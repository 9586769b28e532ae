// Model test for ShardedLruCache eviction.
//
// Randomized get/put sequences, in immediate mode and in deferred
// (begin_deferred/flush) windows, run under eviction pressure against a
// brute-force reference: a per-shard map whose victim is found by a linear
// scan for the smallest (stamp, key).  Hit/miss outcomes, returned values,
// CacheStats, and the resident set (hence every eviction victim) must match
// the real cache after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "rcr/numerics/rng.hpp"
#include "rcr/serve/cache.hpp"

namespace rcr::serve {
namespace {

class ReferenceCache {
 public:
  ReferenceCache(std::size_t capacity, std::size_t shards)
      : shards_(shards), per_shard_(std::max<std::size_t>(1, capacity / shards)),
        maps_(shards) {}

  bool get(std::uint64_t key, std::uint64_t stamp, std::uint64_t& out) {
    auto& map = maps_[shard_of(key)];
    auto it = map.find(key);
    if (it == map.end()) {
      ++stats_.misses;
      return false;
    }
    if (deferred_)
      pending_.push_back({stamp, key, false, 0});
    else
      it->second.first = stamp;
    out = it->second.second;
    ++stats_.hits;
    return true;
  }

  void put(std::uint64_t key, std::uint64_t stamp, std::uint64_t value) {
    if (deferred_)
      pending_.push_back({stamp, key, true, value});
    else
      apply_put(key, stamp, value);
  }

  void begin_deferred() { deferred_ = true; }

  void flush() {
    std::sort(pending_.begin(), pending_.end(),
              [](const Op& a, const Op& b) {
                return a.stamp != b.stamp ? a.stamp < b.stamp : a.key < b.key;
              });
    for (const Op& op : pending_) {
      if (op.insert) {
        apply_put(op.key, op.stamp, op.value);
      } else {
        auto& map = maps_[shard_of(op.key)];
        auto it = map.find(op.key);
        if (it != map.end()) it->second.first = op.stamp;
      }
    }
    pending_.clear();
    deferred_ = false;
  }

  bool resident(std::uint64_t key) const {
    return maps_[shard_of(key)].count(key) != 0;
  }
  /// Record a probe get that the caller knows misses.
  void count_miss() { ++stats_.misses; }

  CacheStats stats() const {
    CacheStats s = stats_;
    for (const auto& map : maps_) s.size += map.size();
    return s;
  }

 private:
  struct Op {
    std::uint64_t stamp;
    std::uint64_t key;
    bool insert;
    std::uint64_t value;
  };

  std::size_t shard_of(std::uint64_t key) const {
    // The cache's documented Fibonacci shard mix.
    const std::uint64_t mixed = key * 0x9E3779B97F4A7C15ull;
    return (mixed >> 32) & (shards_ - 1);
  }

  void apply_put(std::uint64_t key, std::uint64_t stamp, std::uint64_t value) {
    auto& map = maps_[shard_of(key)];
    auto it = map.find(key);
    if (it != map.end()) {
      it->second = {stamp, value};
      return;
    }
    if (map.size() >= per_shard_) {
      auto victim = map.begin();
      for (auto cur = map.begin(); cur != map.end(); ++cur)
        if (cur->second.first < victim->second.first ||
            (cur->second.first == victim->second.first &&
             cur->first < victim->first))
          victim = cur;
      map.erase(victim);
      ++stats_.evictions;
    }
    map.emplace(key, std::make_pair(stamp, value));
    ++stats_.insertions;
  }

  std::size_t shards_;
  std::size_t per_shard_;
  /// key -> (stamp, value), one map per shard.
  std::vector<std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>>
      maps_;
  std::vector<Op> pending_;
  bool deferred_ = false;
  CacheStats stats_;
};

void expect_same_stats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.insertions, b.insertions);
  EXPECT_EQ(a.size, b.size);
}

constexpr std::uint64_t kKeys = 48;

/// Every key the model says was evicted (or never inserted) must miss in
/// the cache too.  A miss leaves recency untouched, so this probes without
/// perturbing the sequence; with equal sizes it pins the resident set.
void expect_same_residents(ShardedLruCache<std::uint64_t>& cache,
                           ReferenceCache& model) {
  std::uint64_t out = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    if (model.resident(key)) continue;
    EXPECT_FALSE(cache.get(key, 0, out)) << "key " << key << " should be gone";
    model.count_miss();
  }
  expect_same_stats(cache.stats(), model.stats());
}

void run_model(std::uint64_t seed, std::size_t capacity, std::size_t shards,
               bool deferred) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " capacity=" +
               std::to_string(capacity) + " shards=" +
               std::to_string(shards) + " deferred=" +
               std::to_string(deferred));
  num::Rng rng(seed);
  ShardedLruCache<std::uint64_t> cache(capacity, shards);
  ReferenceCache model(capacity, shards);
  const auto pick = [&](std::uint64_t bound) {
    return static_cast<std::uint64_t>(rng.uniform() *
                                      static_cast<double>(bound)) %
           bound;
  };
  std::uint64_t base = 32;  // room for stamps that step backwards
  std::uint64_t next_value = 0;
  for (int step = 0; step < 300; ++step) {
    base += 1 + pick(3);
    const std::size_t ops = deferred ? 1 + pick(12) : 1;
    if (deferred) {
      cache.begin_deferred();
      model.begin_deferred();
    }
    // Distinct (stamp, key) per deferred window keeps the flush order a
    // total order; stamps still tie across keys and, in immediate mode,
    // move backwards as well as forwards.
    std::set<std::pair<std::uint64_t, std::uint64_t>> used;
    for (std::size_t k = 0; k < ops; ++k) {
      const std::uint64_t key = pick(kKeys);
      const std::uint64_t stamp = deferred ? base + pick(4)
                                           : base + pick(4) - pick(24);
      if (!used.insert({stamp, key}).second) continue;
      if (pick(2) == 0) {
        std::uint64_t got = 0;
        std::uint64_t want = 0;
        const bool hit = cache.get(key, stamp, got);
        ASSERT_EQ(hit, model.get(key, stamp, want)) << "step " << step;
        if (hit) {
          EXPECT_EQ(got, want);
        }
      } else {
        const std::uint64_t value = ++next_value;
        cache.put(key, stamp, value);
        model.put(key, stamp, value);
      }
    }
    if (deferred) {
      cache.flush();
      model.flush();
    }
    expect_same_residents(cache, model);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(model.stats().evictions, 0u) << "no eviction pressure";
}

TEST(CacheModel, ImmediateModeMatchesLinearScanReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    for (const std::size_t capacity : {1u, 8u, 24u})
      for (const std::size_t shards : {1u, 4u})
        run_model(seed, capacity, shards, /*deferred=*/false);
}

TEST(CacheModel, DeferredModeMatchesLinearScanReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    for (const std::size_t capacity : {1u, 8u, 24u})
      for (const std::size_t shards : {1u, 4u})
        run_model(seed, capacity, shards, /*deferred=*/true);
}

}  // namespace
}  // namespace rcr::serve
