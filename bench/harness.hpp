// Unified perf-tracking harness for the repo's benches.
//
// Collects per-kernel records (best-of-N wall time, allocations per op via
// the rcr_allocprobe counting allocator, optional serial-vs-parallel split),
// prints an aligned table, and writes machine-readable JSON:
//
//   {"bench": "<name>", "threads": N, "smoke": 0|1,
//    "results": [{"kernel": "...", "size": "...", "ns_op": ...,
//                 "allocs_op": ..., "serial_ms": ..., "parallel_ms": ...,
//                 "speedup": ...},
//                ...],
//    "metrics": [{"name": "...", "kind": "...", "value": ..., "count": ...}]}
//
// serial_ms/parallel_ms/speedup are present only for records measured with
// run_serial_parallel().  "metrics" appears only when the rcr::obs registry
// is armed at export time: the bench's solver telemetry (iteration counts,
// fallback degradations, queue depths) rides along with the timings so a
// perf regression can be cross-checked against behavioural drift.  Set
// RCR_BENCH_SMOKE=1 to shrink rep counts for CI smoke jobs (the JSON then
// carries "smoke": 1 so dashboards can filter).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "rcr/obs/metrics.hpp"
#include "rcr/rt/alloc_probe.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/thread_pool.hpp"

namespace rcr::bench {

/// True when RCR_BENCH_SMOKE=1: benches should use their smallest sizes and
/// rep counts (CI smoke job).
inline bool smoke_mode() {
  const char* env = std::getenv("RCR_BENCH_SMOKE");
  return env != nullptr && env[0] == '1';
}

/// The rcr::obs registry snapshot as a JSON array, one object per sample:
/// {"name": "metric{label_key=label_value}", "kind": ..., "value": ...},
/// plus "count" on histograms.  Every bench that carries its telemetry in
/// its JSON document emits it through here.
inline std::string metrics_json() {
  const std::vector<obs::MetricSample> snap = obs::metrics_snapshot();
  std::string json = "[";
  char buf[256];
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const obs::MetricSample& m = snap[i];
    std::string name = m.name;
    if (!m.label_key.empty())
      name += "{" + m.label_key + "=" + m.label_value + "}";
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"kind\":\"%s\",\"value\":%.17g",
                  i == 0 ? "" : ",", name.c_str(), m.kind.c_str(), m.value);
    json += buf;
    if (m.kind == "histogram")
      json += ",\"count\":" + std::to_string(m.count);
    json += "}";
  }
  return json + "]";
}

/// One measured kernel configuration.
struct Record {
  std::string kernel;
  std::string size;
  double ns_op = 0.0;       ///< Best-of-reps wall time per op, nanoseconds.
  double allocs_op = 0.0;   ///< Heap allocations per op (steady state).
  double serial_ms = -1.0;  ///< < 0 when no serial/parallel split measured.
  double parallel_ms = -1.0;

  double speedup() const {
    return (serial_ms >= 0.0 && parallel_ms > 0.0) ? serial_ms / parallel_ms
                                                   : 0.0;
  }
};

class Harness {
 public:
  explicit Harness(std::string name) : name_(std::move(name)) {}

  /// Best wall-clock seconds for one invocation of `fn` over `reps` runs.
  static double time_best_of(int reps, const std::function<void()>& fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      const double s = std::chrono::duration<double>(t1 - t0).count();
      if (s < best) best = s;
    }
    return best;
  }

  /// Steady-state allocations per op: one warm-up call, then the
  /// alloc-counter delta over `reps` calls divided by `reps`.
  static double allocs_per_op(int reps, const std::function<void()>& fn) {
    fn();  // warm up caches / workspaces
    const rt::AllocDelta delta;
    for (int r = 0; r < reps; ++r) fn();
    return static_cast<double>(delta.delta()) / static_cast<double>(reps);
  }

  /// Measure `fn` (current threading mode) and record it.
  Record& run(const std::string& kernel, const std::string& size, int reps,
              const std::function<void()>& fn) {
    Record rec;
    rec.kernel = kernel;
    rec.size = size;
    rec.ns_op = 1e9 * time_best_of(reps, fn);
    rec.allocs_op = allocs_per_op(reps, fn);
    records_.push_back(std::move(rec));
    return records_.back();
  }

  /// Measure `fn` under ForceSerialGuard and again on the pool; ns_op and
  /// allocs_op come from the parallel run (the production configuration).
  Record& run_serial_parallel(const std::string& kernel,
                              const std::string& size, int reps,
                              const std::function<void()>& fn) {
    Record rec;
    rec.kernel = kernel;
    rec.size = size;
    {
      rt::ForceSerialGuard serial;
      rec.serial_ms = 1e3 * time_best_of(reps, fn);
    }
    const double parallel_s = time_best_of(reps, fn);
    rec.parallel_ms = 1e3 * parallel_s;
    rec.ns_op = 1e9 * parallel_s;
    rec.allocs_op = allocs_per_op(reps, fn);
    records_.push_back(std::move(rec));
    return records_.back();
  }

  const std::vector<Record>& records() const { return records_; }

  void print_table() const {
    std::printf("%-26s %-14s %14s %12s %12s %12s %9s\n", "kernel", "size",
                "ns/op", "allocs/op", "serial(ms)", "parallel(ms)", "speedup");
    for (const Record& r : records_) {
      std::printf("%-26s %-14s %14.0f %12.1f ", r.kernel.c_str(),
                  r.size.c_str(), r.ns_op, r.allocs_op);
      if (r.serial_ms >= 0.0) {
        std::printf("%12.3f %12.3f %8.2fx", r.serial_ms, r.parallel_ms,
                    r.speedup());
      } else {
        std::printf("%12s %12s %9s", "-", "-", "-");
      }
      std::printf("\n");
    }
  }

  std::string to_json() const {
    char buf[256];
    std::string json = "{\"bench\":\"" + name_ + "\",\"threads\":" +
                       std::to_string(rt::global_threads()) +
                       ",\"smoke\":" + (smoke_mode() ? "1" : "0") +
                       ",\"results\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"kernel\":\"%s\",\"size\":\"%s\",\"ns_op\":%.1f,"
                    "\"allocs_op\":%.2f",
                    i == 0 ? "" : ",", r.kernel.c_str(), r.size.c_str(),
                    r.ns_op, r.allocs_op);
      json += buf;
      if (r.serial_ms >= 0.0) {
        std::snprintf(buf, sizeof(buf),
                      ",\"serial_ms\":%.4f,\"parallel_ms\":%.4f,"
                      "\"speedup\":%.3f",
                      r.serial_ms, r.parallel_ms, r.speedup());
        json += buf;
      }
      json += "}";
    }
    json += "]";
    if (obs::metrics_enabled()) json += ",\"metrics\":" + metrics_json();
    json += "}";
    return json;
  }

  /// Write the JSON document to `path`; returns false on I/O failure.
  bool write_json(const std::string& path = "BENCH_perf.json") const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = to_json();
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    return true;
  }

 private:
  std::string name_;
  std::vector<Record> records_;
};

}  // namespace rcr::bench
