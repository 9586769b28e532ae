// In-memory span recorder for the traced run.
//
// The benchmark times the program's public calls from its own code: each
// call it re-issues is wrapped in a Scope that records (name, tick, cell,
// start, end, parent).  Spans nest on one calling thread, so a stack gives
// each span's parent and the time its children cover; self time is the
// span's duration minus that.  Per-name aggregates are kept for every span;
// raw records only up to a cap, so a long run cannot exhaust memory.  The
// records are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace tickbench {

/// Sentinel cell index for tick-level spans (admission plan, fan-out,
/// cache flush).
inline constexpr std::uint32_t kTickLevel = 0xffffffffu;

class SpanRecorder {
 public:
  struct Record {
    const char* name;
    std::uint64_t tick;
    std::uint32_t cell;  ///< kTickLevel for tick-level spans.
    std::int32_t parent; ///< Index of the parent record; -1 for a root.
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Layer {
    const char* name = nullptr;
    std::uint64_t calls = 0;
    double self_ns = 0.0;
    double total_ns = 0.0;
  };

  explicit SpanRecorder(std::size_t max_records = 1u << 18);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span: begins at construction, ends at destruction.  Scopes must
  /// close in reverse order of opening (C++ scoping guarantees it).
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint64_t tick,
          std::uint32_t cell)
        : rec_(rec) {
      rec_.begin(name, tick, cell);
    }
    ~Scope() { rec_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
  };

  /// Aggregate for `name` (all zero when the span never ran).
  Layer layer(const char* name) const;

  /// Mean self time per call of `name` in nanoseconds (0 when never run).
  double self_ns_per_call(const char* name) const;

  const std::vector<Record>& records() const { return records_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Write the kept records as JSON ({"spans": [...], "dropped": n});
  /// returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  struct Frame {
    const char* name;
    std::int32_t record;  ///< -1 when the record was dropped.
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void begin(const char* name, std::uint64_t tick, std::uint32_t cell);
  void end();
  Layer& layer_slot(const char* name);

  std::size_t max_records_;
  std::vector<Record> records_;
  std::vector<Frame> stack_;
  std::vector<Layer> layers_;
  std::uint64_t dropped_ = 0;
};

}  // namespace tickbench
