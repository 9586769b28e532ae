// Sharded solution cache with deterministic LRU eviction.
//
// The allocation service looks up the previous tick's answer by quantized
// problem signature before solving.  The cache is sharded by key hash so
// cells solved on different pool threads contend on different mutexes, and
// recency is tracked by a *caller-supplied stamp* (the service passes
// tick * num_cells + cell) rather than wall-clock order: which entry gets
// evicted then depends only on the workload, never on thread scheduling, so
// a soak run produces bit-identical cache behavior for every RCR_THREADS
// setting (ties broken by smaller key).  Each shard keeps a recency index
// next to its map -- a binary min-heap on (stamp, key) whose entries know
// their heap slot -- so a stamp refresh re-keys it and an eviction pops its
// root in O(log n), instead of a linear scan over the whole shard.  The
// victim is exactly the scan's: (stamp, key) pairs are distinct.
//
// Deterministic stamps alone are not enough under eviction pressure: with
// in-place mutation, whether a concurrent get()'s stamp refresh lands
// before or after a concurrent put()'s eviction scan decides the victim,
// and a put can become visible to a racing get mid-phase -- both
// schedule-dependent.  The *deferred two-phase mode* closes this:
// begin_deferred() freezes the committed map (gets read it without
// mutating, buffering their stamp refreshes; puts buffer inserts), and a
// serial flush() applies the buffered ops sorted by stamp -- exactly the
// order a serial run would have issued them.  The service brackets each
// tick's parallel fan-out with begin_deferred()/flush(), making eviction
// order and hit/miss outcomes bit-identical for every RCR_THREADS setting.
//
// Counters (armed registry only): rcr.serve.cache.hits / .misses /
// .evictions / .insertions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "rcr/obs/obs.hpp"

namespace rcr::serve {

/// Aggregated cache statistics (sum over shards).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::size_t size = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Fixed-capacity key/value cache, sharded, LRU by deterministic stamp.
template <typename V>
class ShardedLruCache {
 public:
  /// `capacity` entries total, spread over `shards` shards (each shard holds
  /// capacity / shards, minimum 1).  `shards` is rounded up to a power of
  /// two so the shard index is a mask of the mixed key.
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 16) {
    std::size_t n = 1;
    while (n < shards) n <<= 1;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      shards_.push_back(std::make_unique<Shard>());
    per_shard_capacity_ = capacity / n;
    if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
  }

  /// Look up `key`; on a hit copies the value into `out` and returns true.
  /// Immediate mode refreshes the entry's stamp to `stamp` in place; in the
  /// deferred window the committed map is read-only and the refresh is
  /// buffered until flush().
  bool get(std::uint64_t key, std::uint64_t stamp, V& out) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.misses;
      obs::counter_add("rcr.serve.cache.misses");
      return false;
    }
    if (deferred_) {
      PendingOp& op = next_pending(shard);
      op.stamp = stamp;
      op.key = key;
      op.insert = false;
    } else {
      restamp(shard, it->second, stamp);
    }
    out = it->second.value;
    ++shard.hits;
    obs::counter_add("rcr.serve.cache.hits");
    return true;
  }

  /// Insert or overwrite `key`.  When the shard is full the entry with the
  /// smallest stamp (oldest deterministic recency; ties to smaller key) is
  /// evicted first.  In the deferred window the insert is buffered and
  /// applied -- in stamp order -- at flush().  `value` is copy-assigned into
  /// a staging value taken from a pool the shards share and from there
  /// swapped into the map; the staging value takes the replaced entry's
  /// storage back to the pool.  So a steady put-and-evict cycle of
  /// equal-shaped values allocates nothing once the pool holds as many
  /// values as a deferred window ever buffers puts, whichever shards the
  /// keys fall on.
  void put(std::uint64_t key, std::uint64_t stamp, const V& value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    std::unique_ptr<V> staged = acquire_value();
    *staged = value;
    if (deferred_) {
      PendingOp& op = next_pending(shard);
      op.stamp = stamp;
      op.key = key;
      op.insert = true;
      op.value = std::move(staged);
      return;
    }
    apply_put(shard, key, stamp, *staged);
    release_value(std::move(staged));
  }

  /// Enter the deferred window: gets read the committed map without
  /// mutating it, and every stamp refresh / insert is buffered.  Call from
  /// the driver thread before fanning readers/writers across the pool.
  void begin_deferred() { deferred_ = true; }

  /// Leave the deferred window: per shard, apply the buffered ops sorted by
  /// (stamp, key) -- the order a serial run would have issued them, so the
  /// resulting map, stamps, and eviction victims are independent of which
  /// thread buffered which op.  Call from the driver thread after the
  /// parallel phase joined.  No-op when not in a deferred window.
  ///
  /// Every shard's buffer is then reserved to the window's op count over
  /// all shards, so a later window with no more ops than that grows no
  /// buffer, however its keys fall.
  void flush() {
    if (!deferred_) return;
    std::size_t window_ops = 0;
    for (auto& shard_ptr : shards_) {
      std::lock_guard<std::mutex> lock(shard_ptr->mu);
      window_ops += shard_ptr->pending_count;
    }
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto live = shard.pending.begin() +
                        static_cast<std::ptrdiff_t>(shard.pending_count);
      std::sort(shard.pending.begin(), live,
                [](const PendingOp& a, const PendingOp& b) {
                  return a.stamp != b.stamp ? a.stamp < b.stamp
                                            : a.key < b.key;
                });
      for (auto op = shard.pending.begin(); op != live; ++op) {
        if (op->insert) {
          apply_put(shard, op->key, op->stamp, *op->value);
          release_value(std::move(op->value));
        } else {
          auto it = shard.map.find(op->key);
          if (it != shard.map.end()) restamp(shard, it->second, op->stamp);
        }
      }
      shard.pending_count = 0;
      shard.pending.reserve(window_ops);
    }
    deferred_ = false;
  }

  /// Drop every entry and any buffered deferred ops (statistics are
  /// retained).
  void clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->map.clear();
      shard->heap.clear();
      shard->pending.clear();
      shard->pending_count = 0;
    }
  }

  CacheStats stats() const {
    CacheStats total;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total.hits += shard->hits;
      total.misses += shard->misses;
      total.evictions += shard->evictions;
      total.insertions += shard->insertions;
      total.size += shard->map.size();
    }
    return total;
  }

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t capacity() const { return per_shard_capacity_ * shards_.size(); }

 private:
  struct Entry {
    V value{};
    std::size_t slot = 0;  ///< Position in the shard's recency heap.
  };
  /// Recency-heap node; `entry` points into the shard map, whose node
  /// addresses survive rehashing and the erasure of other keys.
  struct HeapNode {
    std::uint64_t stamp = 0;
    std::uint64_t key = 0;
    Entry* entry = nullptr;
  };
  struct PendingOp {
    std::uint64_t stamp = 0;
    std::uint64_t key = 0;
    bool insert = false;  ///< false: stamp refresh from a deferred get.
    std::unique_ptr<V> value;  ///< An insert's staged copy, from the pool.
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> map;
    std::vector<HeapNode> heap;  ///< Min-heap on (stamp, key) over map.
    /// Buffered ops: the first pending_count slots are live; the rest are
    /// kept for reuse.
    std::vector<PendingOp> pending;
    std::size_t pending_count = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
  };

  /// The next free pending slot (grown only past the high-water mark).
  static PendingOp& next_pending(Shard& shard) {
    if (shard.pending_count == shard.pending.size())
      shard.pending.emplace_back();
    return shard.pending[shard.pending_count++];
  }

  /// A staging value from the pool (a new one only past the pool's
  /// high-water mark); it keeps the storage its last user left in it.
  std::unique_ptr<V> acquire_value() {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (pool_.empty()) return std::make_unique<V>();
    std::unique_ptr<V> value = std::move(pool_.back());
    pool_.pop_back();
    return value;
  }

  void release_value(std::unique_ptr<V> value) {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_.push_back(std::move(value));
  }

  /// Insert/overwrite with LRU eviction; the shard mutex must be held.
  /// `value` is swapped into the map and receives the storage it replaces
  /// (the overwritten or evicted value), which the pool hands out next.
  void apply_put(Shard& shard, std::uint64_t key, std::uint64_t stamp,
                 V& value) {
    using std::swap;
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      swap(it->second.value, value);
      restamp(shard, it->second, stamp);
      return;
    }
    if (shard.map.size() >= per_shard_capacity_) {
      // The heap root is the smallest (stamp, key): the LRU victim.  Its map
      // node is re-keyed and re-inserted (same node, so no allocation) and
      // the new entry takes the root, sifted down to its place.
      auto node = shard.map.extract(shard.heap.front().key);
      node.key() = key;
      swap(node.mapped().value, value);
      Entry& entry = shard.map.insert(std::move(node)).position->second;
      place(shard, 0, HeapNode{stamp, key, &entry});
      sift_down(shard, 0);
      ++shard.evictions;
      obs::counter_add("rcr.serve.cache.evictions");
    } else {
      Entry& entry = shard.map.emplace(key, Entry{}).first->second;
      swap(entry.value, value);
      shard.heap.push_back(HeapNode{stamp, key, &entry});
      entry.slot = shard.heap.size() - 1;
      sift_up(shard, entry.slot);
    }
    ++shard.insertions;
    obs::counter_add("rcr.serve.cache.insertions");
  }

  /// Move `entry` to recency `stamp` and re-key the heap.
  static void restamp(Shard& shard, Entry& entry, std::uint64_t stamp) {
    shard.heap[entry.slot].stamp = stamp;
    sift_up(shard, entry.slot);
    sift_down(shard, entry.slot);
  }

  static bool older(const HeapNode& a, const HeapNode& b) {
    return a.stamp != b.stamp ? a.stamp < b.stamp : a.key < b.key;
  }

  static void place(Shard& shard, std::size_t i, const HeapNode& node) {
    shard.heap[i] = node;
    node.entry->slot = i;
  }

  static void sift_up(Shard& shard, std::size_t i) {
    const HeapNode node = shard.heap[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!older(node, shard.heap[parent])) break;
      place(shard, i, shard.heap[parent]);
      i = parent;
    }
    place(shard, i, node);
  }

  static void sift_down(Shard& shard, std::size_t i) {
    const std::size_t n = shard.heap.size();
    const HeapNode node = shard.heap[i];
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && older(shard.heap[child + 1], shard.heap[child]))
        ++child;
      if (!older(shard.heap[child], node)) break;
      place(shard, i, shard.heap[child]);
      i = child;
    }
    place(shard, i, node);
  }

  Shard& shard_for(std::uint64_t key) {
    // Fibonacci mix so adjacent signatures spread across shards.
    const std::uint64_t mixed = key * 0x9E3779B97F4A7C15ull;
    return *shards_[(mixed >> 32) & (shards_.size() - 1)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_ = 1;
  /// Staging values not in use, shared by the shards; locked after a
  /// shard's mutex, never before.
  std::mutex pool_mu_;
  std::vector<std::unique_ptr<V>> pool_;
  /// Toggled only by the driver thread while no pool worker is inside the
  /// cache (parallel_for dispatch/join provides the happens-before edge).
  bool deferred_ = false;
};

}  // namespace rcr::serve
