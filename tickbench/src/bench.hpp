// Workloads and run loops of the tick benchmark.
//
// Every workload is a closed loop: one client thread calls
// AllocationService::tick (or scn::grade_scenario) back to back with no
// wall-clock deadline, so every served answer is a pure function of the
// seed.  Inputs come from serve::DiurnalWorkload / scn::FleetSpec seeded by
// the command line and are generated between ops, outside the op timer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rcr/serve/service.hpp"
#include "rcr/serve/workload.hpp"

namespace tickbench {

enum class Kind { kService, kFleet };

/// One benchmark workload.
struct Workload {
  std::string name;
  Kind kind = Kind::kService;
  rcr::serve::WorkloadConfig shape;    ///< Service workloads.
  rcr::serve::ServiceConfig service;   ///< Service workloads.
  std::string faults;                  ///< Fault fragment, seeded per run.
};

/// The named workload built from `seed`, or nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double quality_floor = 0.0;    ///< served_quality below this fails the run.
  std::string spans_path;        ///< Traced run: span dump ("" = none).
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;   ///< Cell-ticks served (and checked).
  std::uint64_t failed = 0;      ///< Cell-ticks failing the gate.
  std::vector<Metric> metrics;
  std::vector<std::string> log;  ///< Human-readable lines (witness, checks).
};

/// Run `workload` untraced (end-to-end metrics) or traced (per-layer).
RunResult run(const Workload& workload, const RunOptions& options);

/// Final-tick solution hashes of `ticks` ticks of a service workload at the
/// current global thread count (the determinism witness the tests compare).
std::vector<std::uint64_t> tick_hashes(const Workload& workload,
                                       std::size_t ticks);

/// Summed duration in nanoseconds of the `serve.tick` spans in a
/// chrome://tracing document produced by obs::trace_json().
double serve_tick_span_ns(const std::string& trace_json);

}  // namespace tickbench
