// Overhead of the rcr::obs observability layer on the ADMM / SDP hot paths
// and on the serve tick.
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
// The serve tick (tickbench's wide-refresh shape: 16 cells x 48 RBs, a
// fading refresh every tick, ServiceConfig{}, serial) is priced off against
// full only, where the armed tick also reads the stage timers'
// (rcr.serve.stage_ns) clocks.  Its rows come from pairs of off and full
// blocks of ticks on one service, the order swapped from pair to pair,
// timed on this thread's CPU clock, each the median of its blocks'
// per-tick times: a wall-clock best-of cannot resolve 1% on a shared host.
//
// Prints the harness table plus per-kernel overhead lines, and writes
// BENCH_perf_obs.json with the armed-run metrics snapshot embedded (schema
// in bench/harness.hpp).
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "rcr/numerics/matrix.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/obs/obs.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/opt/quadratic.hpp"
#include "rcr/opt/sdp.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/serve/service.hpp"

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

/// CPU time this thread has used, in nanoseconds.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e9 * static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Per-tick CPU ns of the serve tick, unarmed (off_ns) and with metrics and
/// tracing armed (full_ns): block medians over alternating pairs of blocks,
/// after a warm-up that fills the 4096-entry cache (16 puts a tick), so a
/// steady tick allocates nothing.
Overheads serve_tick_overhead(rcr::bench::Harness& h, bool smoke) {
  using rcr::serve::AllocationService;
  using rcr::serve::DiurnalWorkload;
  rcr::serve::WorkloadConfig wc;
  wc.num_cells = 16;
  wc.num_rbs = 48;
  wc.min_users = 2;
  wc.peak_users = 16;
  wc.period_ticks = 128;
  wc.coherence_ticks = 1;
  wc.seed = 1;
  const std::size_t warm_up = smoke ? 16 : 448;
  const std::size_t ticks_per_block = smoke ? 8 : 64;
  const std::size_t blocks = smoke ? 4 : 16;

  rcr::rt::ForceSerialGuard serial;
  DiurnalWorkload workload(wc);
  AllocationService service(rcr::serve::ServiceConfig{}, wc.num_cells);
  std::size_t t = 0;
  const auto run_block = [&](std::uint64_t& allocs) {
    double cpu_ns = 0.0;
    for (std::size_t k = 0; k < ticks_per_block; ++k, ++t) {
      workload.advance(t);
      const rcr::rt::AllocDelta delta;
      const double t0 = thread_cpu_ns();
      service.tick(t, workload);
      cpu_ns += thread_cpu_ns() - t0;
      allocs += delta.delta();
    }
    return cpu_ns / static_cast<double>(ticks_per_block);
  };
  {
    DisarmObs off;
    std::uint64_t ignored = 0;
    for (std::size_t b = 0; b * ticks_per_block < warm_up; ++b)
      run_block(ignored);
  }
  // Each pair of blocks swaps which runs first, so both sides see every
  // phase of the population cycle (period_ticks is 2 blocks).
  std::vector<double> off_ns, full_ns;
  std::uint64_t off_allocs = 0, full_allocs = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (const bool armed : {b % 2 == 1, b % 2 == 0}) {
      if (armed) {
        rcr::obs::ScopedMetrics metrics;
        rcr::obs::ScopedTrace trace;
        full_ns.push_back(run_block(full_allocs));
      } else {
        DisarmObs off;
        off_ns.push_back(run_block(off_allocs));
      }
    }
  }
  const std::string size = std::to_string(wc.num_cells) + "x" +
                           std::to_string(wc.num_rbs);
  const double ticks = static_cast<double>(blocks * ticks_per_block);
  Overheads tick;
  tick.off_ns = median(off_ns);
  tick.full_ns = median(full_ns);
  h.add("serve_tick/off", size, tick.off_ns,
        static_cast<double>(off_allocs) / ticks);
  h.add("serve_tick/full", size, tick.full_ns,
        static_cast<double>(full_allocs) / ticks);
  return tick;
}

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

  const Overheads tick = serve_tick_overhead(h, smoke);

  h.print_table();
  std::printf("\nfully-armed overhead vs off (the <1%% contract):\n");
  std::printf("  admm_boxqp: %+6.2f%%\n", admm.pct(admm.full_ns));
  std::printf("  sdp_admm:   %+6.2f%%\n", sdp.pct(sdp.full_ns));
  std::printf("  serve_tick: %+6.2f%% (block medians, thread CPU time)\n",
              tick.pct(tick.full_ns));
  std::printf("per-subsystem, informational:\n");
  std::printf("  admm_boxqp: metrics %+6.2f%%  trace %+6.2f%%\n",
              admm.pct(admm.metrics_ns), admm.pct(admm.trace_ns));
  std::printf("  sdp_admm:   metrics %+6.2f%%  trace %+6.2f%%\n",
              sdp.pct(sdp.metrics_ns), sdp.pct(sdp.trace_ns));
  if (admm.pct(admm.full_ns) >= 1.0 || sdp.pct(sdp.full_ns) >= 1.0 ||
      tick.pct(tick.full_ns) >= 1.0)
    std::printf("WARNING: armed obs overhead exceeded the 1%% budget\n");

  // Re-arm metrics so the export embeds the telemetry from the armed runs
  // (values survive scope exits; only the enable flag was restored).
  rcr::obs::set_metrics_enabled(true);
  std::printf("\n%s\n", h.to_json().c_str());
  return h.write_json("BENCH_perf_obs.json") ? 0 : 1;
}
