// Overhead of the rcr::obs observability layer on the ADMM / SDP hot paths.
//
// Four configurations per solver, all computing bit-identical iterates
// (tests/obs/test_obs_solvers.cpp proves the bit-exactness; this bench
// prices the instrumentation):
//
//   off       metrics and tracing disabled: every obs entry point is one
//             relaxed atomic load + branch.  This is the production
//             default and must be indistinguishable from an
//             un-instrumented build.
//   metrics   registry armed: solve/iteration counters hit the thread-local
//             cell cache (relaxed fetch_add, no lock, no allocation).
//   trace     spans armed: each solve writes one B/E pair into the calling
//             thread's ring buffer (two steady-clock reads per solve).
//   full      metrics + tracing armed together -- the configuration the CI
//             obs job runs the tier-1 suite under, held to the <1%
//             overhead contract.
//
// Prints the harness table plus per-kernel overhead lines, and writes
// BENCH_perf_obs.json with the armed-run metrics snapshot embedded (schema
// in bench/harness.hpp).
#include <cstdio>
#include <string>

#include "harness.hpp"
#include "rcr/numerics/matrix.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/obs/obs.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/opt/quadratic.hpp"
#include "rcr/opt/sdp.hpp"

namespace {

using rcr::Vec;
using rcr::num::Matrix;
using rcr::num::Rng;

struct Overheads {
  double off_ns = 0.0;
  double metrics_ns = 0.0;
  double trace_ns = 0.0;
  double full_ns = 0.0;

  double pct(double armed_ns) const {
    return off_ns > 0.0 ? 100.0 * (armed_ns - off_ns) / off_ns : 0.0;
  }
};

// Baseline must be a true disabled path even when RCR_METRICS/RCR_TRACE
// armed the registries at startup.
class DisarmObs {
 public:
  DisarmObs()
      : metrics_(rcr::obs::metrics_enabled()),
        trace_(rcr::obs::trace_enabled()) {
    rcr::obs::set_metrics_enabled(false);
    rcr::obs::set_trace_enabled(false);
  }
  ~DisarmObs() {
    rcr::obs::set_metrics_enabled(metrics_);
    rcr::obs::set_trace_enabled(trace_);
  }

 private:
  bool metrics_;
  bool trace_;
};

}  // namespace

int main() {
  const bool smoke = rcr::bench::smoke_mode();
  const int reps = smoke ? 3 : 12;
  std::printf("=== observability overhead (threads=%zu%s) ===\n\n",
              rcr::rt::global_threads(), smoke ? ", smoke" : "");

  rcr::bench::Harness h("obs_overhead");
  Rng rng(7);

  Overheads admm;
  {
    const std::size_t n = smoke ? 24 : 64;
    const Matrix p = rcr::opt::random_psd(n, n, rng) + Matrix::identity(n);
    const Vec q = rng.normal_vec(n);
    const Vec lo(n, -1.0), hi(n, 1.0);
    const std::string size = "n=" + std::to_string(n);
    const auto solve = [&] { rcr::opt::admm_box_qp(p, q, lo, hi); };

    {
      DisarmObs off;
      admm.off_ns = h.run("admm_boxqp/off", size, reps, solve).ns_op;
    }
    {
      rcr::obs::ScopedMetrics metrics;
      admm.metrics_ns = h.run("admm_boxqp/metrics", size, reps, solve).ns_op;
    }
    {
      rcr::obs::ScopedTrace trace;
      admm.trace_ns = h.run("admm_boxqp/trace", size, reps, solve).ns_op;
    }
    {
      rcr::obs::ScopedMetrics metrics;
      rcr::obs::ScopedTrace trace;
      admm.full_ns = h.run("admm_boxqp/full", size, reps, solve).ns_op;
    }
  }

  Overheads sdp;
  {
    const std::size_t n = smoke ? 6 : 12;
    rcr::opt::Sdp problem;
    problem.c = rcr::opt::random_psd(n, n, rng) - Matrix::identity(n);
    problem.a_eq.push_back(Matrix::identity(n));
    problem.b_eq.push_back(1.0);
    const std::string size = "n=" + std::to_string(n);
    // A reused workspace keeps solver allocations from burying the obs
    // cost being measured.
    rcr::opt::SdpOptions options;
    options.max_iterations = smoke ? 500 : 2000;
    rcr::opt::SdpWorkspace ws;
    const auto solve = [&] { rcr::opt::solve_sdp(problem, options, ws); };

    {
      DisarmObs off;
      sdp.off_ns = h.run("sdp_admm/off", size, reps, solve).ns_op;
    }
    {
      rcr::obs::ScopedMetrics metrics;
      sdp.metrics_ns = h.run("sdp_admm/metrics", size, reps, solve).ns_op;
    }
    {
      rcr::obs::ScopedTrace trace;
      sdp.trace_ns = h.run("sdp_admm/trace", size, reps, solve).ns_op;
    }
    {
      rcr::obs::ScopedMetrics metrics;
      rcr::obs::ScopedTrace trace;
      sdp.full_ns = h.run("sdp_admm/full", size, reps, solve).ns_op;
    }
  }

  h.print_table();
  std::printf("\nfully-armed overhead vs off (the <1%% contract):\n");
  std::printf("  admm_boxqp: %+6.2f%%\n", admm.pct(admm.full_ns));
  std::printf("  sdp_admm:   %+6.2f%%\n", sdp.pct(sdp.full_ns));
  std::printf("per-subsystem, informational:\n");
  std::printf("  admm_boxqp: metrics %+6.2f%%  trace %+6.2f%%\n",
              admm.pct(admm.metrics_ns), admm.pct(admm.trace_ns));
  std::printf("  sdp_admm:   metrics %+6.2f%%  trace %+6.2f%%\n",
              sdp.pct(sdp.metrics_ns), sdp.pct(sdp.trace_ns));
  if (admm.pct(admm.full_ns) >= 1.0 || sdp.pct(sdp.full_ns) >= 1.0)
    std::printf("WARNING: armed obs overhead exceeded the 1%% budget\n");

  // Re-arm metrics so the export embeds the telemetry from the armed runs
  // (values survive scope exits; only the enable flag was restored).
  rcr::obs::set_metrics_enabled(true);
  std::printf("\n%s\n", h.to_json().c_str());
  return h.write_json("BENCH_perf_obs.json") ? 0 : 1;
}
