// Soak benchmark for the rcr::serve allocation service (DESIGN.md §13).
//
// Replays the same diurnal block-fading workload through four service
// configurations:
//
//   cold   warm start off, cache off -- every cell-tick solves from scratch;
//          the iteration baseline.
//   warm   warm start on, cache off -- every cell-tick still solves, but
//          resumes from the cell's previous ADMM state.  Inside a coherence
//          interval the problem is unchanged and the warm solve terminates
//          in a couple of iterations; on fading-refresh ticks the AR(1)
//          drift keeps the warm state near the new fixed point.
//   full   warm start + solution cache -- the production configuration;
//          unchanged problems skip the solver entirely via the sharded LRU.
//   overload  the full configuration plus the whole overload-control layer
//          (admission at half the fleet per tick, brownout, breakers,
//          watchdog); it mostly idles on a clean soak and is the leg a
//          fault storm measures.
//
// Prints a per-leg table and writes BENCH_perf_serve.json with ticks/s,
// p50/p99 tick latency, the driver thread's mean CPU time per tick
// (CLOCK_THREAD_CPUTIME_ID: steadier than the wall-clock legs on a shared
// host, and at RCR_THREADS > 1 it leaves out the pool workers' share),
// warm-vs-cold iteration counts and their ratio
// (the acceptance bar is < 0.5), the cache hit rate, and the final-tick
// solution hash (bit-exact across RCR_THREADS settings).  RCR_BENCH_SMOKE=1
// shrinks the fleet and tick count for CI smoke jobs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "harness.hpp"
#include "rcr/obs/obs.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/serve/service.hpp"
#include "rcr/serve/workload.hpp"

namespace {

using rcr::serve::AllocationService;
using rcr::serve::BrownoutState;
using rcr::serve::DiurnalWorkload;
using rcr::serve::ServiceConfig;
using rcr::serve::TickReport;
using rcr::serve::WorkloadConfig;

struct LegResult {
  std::string name;
  double ticks_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double cpu_us_per_tick = 0.0;  ///< Driver-thread CPU time, mean per tick.
  std::uint64_t iterations = 0;     ///< ADMM iterations over ticks >= 1.
  std::uint64_t warm_accepted = 0;  ///< Solves that reused warm state.
  std::uint64_t cache_hits = 0;
  std::uint64_t degraded = 0;
  double cache_hit_rate = 0.0;
  double final_sum_rate = 0.0;
  std::uint64_t solution_hash = 0;  ///< Final tick's determinism witness.
  // Overload-control telemetry (all zero on legs with the layer off).
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t shed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t brownout_transitions = 0;
  std::uint64_t dwell_normal = 0;    ///< Ticks spent in each brownout state.
  std::uint64_t dwell_brownout = 0;
  std::uint64_t dwell_shed = 0;
};

/// CPU time this thread has used, in seconds.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(rank + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

LegResult run_leg(const std::string& name, const ServiceConfig& sc,
                  const WorkloadConfig& wc, std::size_t ticks) {
  LegResult r;
  r.name = name;
  DiurnalWorkload workload(wc);
  AllocationService service(sc, wc.num_cells);
  std::vector<double> latency_us;
  latency_us.reserve(ticks);
  double total_s = 0.0;
  double cpu_s = 0.0;
  for (std::size_t t = 0; t < ticks; ++t) {
    workload.advance(t);
    const double cpu_start = thread_cpu_s();
    const TickReport rep = service.tick(t, workload);
    cpu_s += thread_cpu_s() - cpu_start;
    latency_us.push_back(rep.tick_seconds * 1e6);
    total_s += rep.tick_seconds;
    // Tick 0 is a cold solve in every leg; excluding it from the iteration
    // sums keeps the warm/cold ratio a pure steady-state comparison.
    if (t > 0) {
      r.iterations += rep.total_iterations;
      r.warm_accepted += rep.warm_accepted;
    }
    r.cache_hits += rep.cache_hits;
    r.degraded += rep.degraded;
    r.admitted += rep.admitted;
    r.deferred += rep.deferred;
    r.shed += rep.shed;
    r.quarantined += rep.quarantined;
    if (t + 1 == ticks) {
      r.final_sum_rate = rep.sum_rate;
      r.solution_hash = rep.solution_hash;
    }
  }
  r.ticks_per_s = total_s > 0.0 ? static_cast<double>(ticks) / total_s : 0.0;
  r.p50_us = percentile(latency_us, 0.50);
  r.p99_us = percentile(latency_us, 0.99);
  r.cpu_us_per_tick =
      ticks > 0 ? cpu_s * 1e6 / static_cast<double>(ticks) : 0.0;
  r.cache_hit_rate = service.cache_stats().hit_rate();
  r.brownout_transitions = service.brownout().transitions();
  r.dwell_normal = service.brownout().dwell(BrownoutState::kNormal);
  r.dwell_brownout = service.brownout().dwell(BrownoutState::kBrownout);
  r.dwell_shed = service.brownout().dwell(BrownoutState::kShed);
  return r;
}

std::string leg_json(const LegResult& r) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"ticks_per_s\":%.1f,\"p50_us\":%.1f,"
                "\"p99_us\":%.1f,\"cpu_us_per_tick\":%.2f,"
                "\"iterations\":%llu,\"warm_accepted\":%llu,"
                "\"cache_hits\":%llu,\"degraded\":%llu,"
                "\"cache_hit_rate\":%.4f,\"final_sum_rate\":%.6f,"
                "\"solution_hash\":\"%llu\","
                "\"admitted\":%llu,\"deferred\":%llu,\"shed\":%llu,"
                "\"quarantined\":%llu,\"brownout_transitions\":%llu,"
                "\"brownout_dwell\":{\"normal\":%llu,\"brownout\":%llu,"
                "\"shed\":%llu}}",
                r.name.c_str(), r.ticks_per_s, r.p50_us, r.p99_us,
                r.cpu_us_per_tick,
                static_cast<unsigned long long>(r.iterations),
                static_cast<unsigned long long>(r.warm_accepted),
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.degraded),
                r.cache_hit_rate, r.final_sum_rate,
                static_cast<unsigned long long>(r.solution_hash),
                static_cast<unsigned long long>(r.admitted),
                static_cast<unsigned long long>(r.deferred),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.quarantined),
                static_cast<unsigned long long>(r.brownout_transitions),
                static_cast<unsigned long long>(r.dwell_normal),
                static_cast<unsigned long long>(r.dwell_brownout),
                static_cast<unsigned long long>(r.dwell_shed));
  return buf;
}

}  // namespace

int main() {
  const bool smoke = rcr::bench::smoke_mode();

  WorkloadConfig wc;
  wc.num_cells = smoke ? 4 : 16;
  wc.num_rbs = smoke ? 6 : 12;
  wc.min_users = 2;
  wc.peak_users = smoke ? 4 : 8;
  wc.period_ticks = smoke ? 16 : 128;
  wc.coherence_ticks = 4;  // block fading: the warm/cache savings lever
  wc.seed = 42;
  const std::size_t ticks = smoke ? 32 : 384;

  std::printf(
      "=== serve soak (threads=%zu%s): %zu cells, %zu RBs, %zu ticks, "
      "coherence %zu ===\n\n",
      rcr::rt::global_threads(), smoke ? ", smoke" : "", wc.num_cells,
      wc.num_rbs, ticks, wc.coherence_ticks);

  // Arm metrics for the whole soak so the JSON carries the serve telemetry
  // (cache counters, warm accept/reject, fallback depth) next to the timings.
  rcr::obs::ScopedMetrics metrics;

  ServiceConfig cold_cfg;
  cold_cfg.warm_start = false;
  cold_cfg.cache_enabled = false;
  ServiceConfig warm_cfg;
  warm_cfg.cache_enabled = false;
  ServiceConfig full_cfg;  // warm + cache: the production configuration

  // Overload-survival leg: the full config plus the whole self-healing
  // layer armed -- slice-aware admission at half the fleet per tick, the
  // brownout controller, per-solver breakers, and the output watchdog.
  // Under a plain soak the layer mostly idles; under the chaos-soak fault
  // storm it is the thing being measured.
  ServiceConfig overload_cfg;
  overload_cfg.admission.enabled = true;
  overload_cfg.admission.max_solves_per_tick = wc.num_cells / 2;
  overload_cfg.admission.cell_slices = {rcr::qos::ServiceClass::kUrllc,
                                        rcr::qos::ServiceClass::kEmbb,
                                        rcr::qos::ServiceClass::kMmtc};
  overload_cfg.brownout.enabled = true;
  overload_cfg.breaker.enabled = true;
  overload_cfg.watchdog.enabled = true;

  const LegResult cold = run_leg("cold", cold_cfg, wc, ticks);
  const LegResult warm = run_leg("warm", warm_cfg, wc, ticks);
  const LegResult full = run_leg("full", full_cfg, wc, ticks);
  const LegResult overload = run_leg("overload", overload_cfg, wc, ticks);

  std::printf("%-8s %12s %10s %10s %12s %12s %10s %10s\n", "leg", "ticks/s",
              "p50(us)", "p99(us)", "cpu(us)/tick", "iterations", "hits",
              "hit-rate");
  for (const LegResult* r : {&cold, &warm, &full, &overload}) {
    std::printf("%-8s %12.1f %10.1f %10.1f %12.2f %12llu %10llu %9.1f%%\n",
                r->name.c_str(), r->ticks_per_s, r->p50_us, r->p99_us,
                r->cpu_us_per_tick,
                static_cast<unsigned long long>(r->iterations),
                static_cast<unsigned long long>(r->cache_hits),
                100.0 * r->cache_hit_rate);
  }

  const double ratio =
      cold.iterations > 0
          ? static_cast<double>(warm.iterations) /
                static_cast<double>(cold.iterations)
          : 0.0;
  std::printf("\nwarm/cold iteration ratio: %.3f (bar: < 0.5)\n", ratio);
  std::printf("full-leg cache hit rate:   %.1f%%\n",
              100.0 * full.cache_hit_rate);
  std::printf("solution hash (cold leg, final tick): %llu\n",
              static_cast<unsigned long long>(cold.solution_hash));
  std::printf(
      "overload leg: admitted=%llu deferred=%llu shed=%llu quarantined=%llu "
      "brownout dwell n/b/s=%llu/%llu/%llu (%llu transitions)\n",
      static_cast<unsigned long long>(overload.admitted),
      static_cast<unsigned long long>(overload.deferred),
      static_cast<unsigned long long>(overload.shed),
      static_cast<unsigned long long>(overload.quarantined),
      static_cast<unsigned long long>(overload.dwell_normal),
      static_cast<unsigned long long>(overload.dwell_brownout),
      static_cast<unsigned long long>(overload.dwell_shed),
      static_cast<unsigned long long>(overload.brownout_transitions));
  if (ratio >= 0.5)
    std::printf("WARNING: warm/cold iteration ratio exceeded the 0.5 bar\n");

  std::string json = "{\"bench\":\"serve_soak\",\"threads\":" +
                     std::to_string(rcr::rt::global_threads()) +
                     ",\"smoke\":" + (smoke ? std::string("1") : "0");
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\"config\":{\"cells\":%zu,\"rbs\":%zu,\"ticks\":%zu,"
                  "\"coherence_ticks\":%zu,\"seed\":%llu}",
                  wc.num_cells, wc.num_rbs, ticks, wc.coherence_ticks,
                  static_cast<unsigned long long>(wc.seed));
    json += buf;
  }
  json += ",\"legs\":[" + leg_json(cold) + "," + leg_json(warm) + "," +
          leg_json(full) + "," + leg_json(overload) + "]";
  {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  ",\"warm_iterations\":%llu,\"cold_iterations\":%llu,"
                  "\"warm_cold_iteration_ratio\":%.4f,"
                  "\"cache_hit_rate\":%.4f",
                  static_cast<unsigned long long>(warm.iterations),
                  static_cast<unsigned long long>(cold.iterations), ratio,
                  full.cache_hit_rate);
    json += buf;
  }
  if (rcr::obs::metrics_enabled())
    json += ",\"metrics\":" + rcr::bench::metrics_json();
  json += "}";

  std::printf("\n%s\n", json.c_str());
  std::FILE* f = std::fopen("BENCH_perf_serve.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  // Under an injected fault storm (the chaos-soak job) degraded solves blow
  // up the warm iteration count by design; the ratio bar only gates clean
  // runs.  The storm run's gate is the overload telemetry staying finite,
  // which run_leg already asserts by completing.
  if (rcr::robust::faults::enabled()) {
    std::printf("fault storm active (%s): warm/cold ratio gate skipped\n",
                rcr::robust::faults::replay_spec().c_str());
    return 0;
  }
  return ratio < 0.5 ? 0 : 2;
}
