// Lock-sharded metrics registry with a thread-local fast path.
//
// Monotonic counters, gauges, and fixed-bucket histograms, named with the
// `rcr.<layer>.<thing>` convention (DESIGN.md §11) and optionally carrying
// one label pair (e.g. rcr.faults.injected{site=...}).  The registry is
// sharded by key hash so concurrent writers from the thread pool contend on
// different mutexes, and each thread keeps a small fixed-size cache of
// resolved cell pointers so the steady-state armed path is one relaxed
// atomic fetch_add with no lock and no allocation.
//
// Zero-overhead-when-off contract: every inline entry point below compiles
// to a single relaxed atomic load + branch when metrics are disabled.  The
// disabled path allocates nothing and perturbs nothing -- instrumented
// solvers stay bit-exact and allocation-free versus an un-instrumented
// build (enforced by tests/obs and bench_obs_overhead).
//
// Arming: programmatically via set_metrics_enabled()/ScopedMetrics, or from
// the environment with RCR_METRICS=<path> which enables the registry before
// main() and exports a snapshot at process exit (Prometheus text when
// <path> ends in ".prom", JSON otherwise; "%p" in <path> expands to the
// process id so parallel ctest binaries do not clobber one file).
//
// Name/label lifetime: the fast path caches `const char*` identity, so
// names and label values passed here must have static storage duration
// (string literals, or pointers that live for the process).  Every call
// site in the tree uses literals or the fault-site registry strings.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rcr::obs {

namespace detail {
extern std::atomic<bool> g_metrics_on;

void counter_add_slow(const char* name, const char* label_key,
                      const char* label_value, std::uint64_t delta);
void gauge_set_slow(const char* name, double value);
void gauge_set_slow(const char* name, const char* label_key,
                    const char* label_value, double value);
void gauge_max_slow(const char* name, double value);
void histogram_observe_slow(const char* name, const char* label_key,
                            const char* label_value, double value);
}  // namespace detail

/// True when the registry is armed.  Relaxed load; safe from any thread.
inline bool metrics_enabled() {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}

/// Increment the monotonic counter `name` by `delta`.
inline void counter_add(const char* name, std::uint64_t delta = 1) {
  if (metrics_enabled())
    detail::counter_add_slow(name, nullptr, nullptr, delta);
}

/// Increment the labelled counter `name{label_key=label_value}` by `delta`.
inline void counter_add(const char* name, const char* label_key,
                        const char* label_value, std::uint64_t delta = 1) {
  if (metrics_enabled())
    detail::counter_add_slow(name, label_key, label_value, delta);
}

/// Set the gauge `name` to `value` (last-write-wins).
inline void gauge_set(const char* name, double value) {
  if (metrics_enabled()) detail::gauge_set_slow(name, value);
}

/// Set the labelled gauge `name{label_key=label_value}` to `value`
/// (last-write-wins; e.g. rcr.fallback.depth{chain=rra}).
inline void gauge_set(const char* name, const char* label_key,
                      const char* label_value, double value) {
  if (metrics_enabled())
    detail::gauge_set_slow(name, label_key, label_value, value);
}

/// Raise the gauge `name` to `value` if `value` is larger (high-water mark).
inline void gauge_max(const char* name, double value) {
  if (metrics_enabled()) detail::gauge_max_slow(name, value);
}

/// Record `value` into the fixed-bucket histogram `name`.
/// Buckets are powers of two: le=1,2,4,...,2^19, plus +Inf.
inline void histogram_observe(const char* name, double value) {
  if (metrics_enabled())
    detail::histogram_observe_slow(name, nullptr, nullptr, value);
}

/// Record `value` into the labelled histogram
/// `name{label_key=label_value}` (e.g. rcr.serve.stage_ns{stage=head}).
inline void histogram_observe(const char* name, const char* label_key,
                              const char* label_value, double value) {
  if (metrics_enabled())
    detail::histogram_observe_slow(name, label_key, label_value, value);
}

/// Number of finite histogram buckets (le = 2^0 .. 2^19); one more
/// overflow bucket (+Inf) is tracked on top.
inline constexpr int kHistogramBuckets = 20;

/// Arm or disarm the registry.  Existing values are retained.
void set_metrics_enabled(bool on);

/// Zero every registered cell (keys stay registered so cached pointers in
/// other threads remain valid).  Call between test cases, not mid-workload.
void reset_metrics();

/// One exported metric in a snapshot.
struct MetricSample {
  std::string name;         ///< e.g. "rcr.admm.iterations"
  std::string label_key;    ///< empty when unlabelled
  std::string label_value;  ///< empty when unlabelled
  std::string kind;         ///< "counter" | "gauge" | "histogram"
  double value = 0.0;       ///< counter/gauge value; histogram: sum
  std::uint64_t count = 0;  ///< histogram observation count
  std::vector<std::uint64_t> buckets;  ///< per-bucket counts + overflow last
};

/// Consistent point-in-time view, sorted by (name, label_key, label_value).
/// Sorting makes snapshots order-independent: the same workload merged from
/// any thread interleaving serializes identically.
std::vector<MetricSample> metrics_snapshot();

/// Snapshot rendered as a JSON document (schema: tests/golden/obs_schema.json).
std::string metrics_json();

/// Snapshot rendered as Prometheus text exposition format
/// (dots become underscores; histograms emit cumulative _bucket/_sum/_count).
std::string metrics_prometheus();

/// Write the current snapshot to `path` ("%p" expands to the pid;
/// ".prom" suffix selects Prometheus text, anything else JSON).
/// Returns false if the file could not be written.
bool write_metrics(const std::string& path);

/// RAII arm + reset for tests: enables the registry and zeroes all cells on
/// entry, restores the previous armed state on exit.
class ScopedMetrics {
 public:
  ScopedMetrics();
  ~ScopedMetrics();
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  bool was_on_;
};

}  // namespace rcr::obs
