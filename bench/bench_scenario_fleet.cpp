// Conformance-fleet benchmark for rcr::scn (DESIGN.md §14).
//
// Enumerates the declarative conformance fleet and replays every scenario
// through the verdict grader (AllocationService underneath), measuring
// grading throughput rather than solver quality: scenarios/s, p50/p99 grade
// latency, and the verdict distribution -- both counts and ratios.
// Each fleet also carries report_hash, FNV-1a over that fleet's
// report_json bytes: with the verdict counts and cell_ticks it is the
// answer key bench/soak_diff.py holds a fresh run to.
// The overload fleet (admission control + breakers + watchdog armed) is
// graded as a second block of the same BENCH_perf_scn.json.
//
// RCR_BENCH_SMOKE=1 stride-samples each fleet down to ~96 scenarios for CI
// smoke jobs; RCR_SCN_SEED/RCR_SCN_FLEET keep their usual meaning.  The run
// fails (exit 2) if any scenario in either fleet grades unsound -- the bench
// doubles as a cheap conformance gate on perf hardware.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "rcr/scn/dsl.hpp"
#include "rcr/scn/grader.hpp"
#include "rcr/serve/signature.hpp"

namespace {

using rcr::scn::FleetSpec;
using rcr::scn::GraderOptions;
using rcr::scn::ScenarioSpec;
using rcr::scn::ScenarioVerdict;
using rcr::scn::Verdict;

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(rank + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

struct FleetRun {
  std::string name;
  std::uint64_t fleet_seed = 0;
  std::size_t scenarios = 0;
  std::size_t cell_ticks = 0;
  std::size_t counts[4] = {0, 0, 0, 0};  // pass, degraded, fail, unsound
  std::uint64_t report_hash = 0;
  double scenarios_per_s = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean_points = 0.0;
  std::vector<std::string> unsound_replays;
};

FleetRun grade(const std::string& name, const FleetSpec& fleet_spec,
               bool smoke) {
  FleetRun run;
  run.name = name;
  run.fleet_seed = fleet_spec.fleet_seed();
  std::vector<ScenarioSpec> fleet = fleet_spec.enumerate();
  if (smoke && fleet.size() > 96) {
    // Stride-sample so the smoke fleet still spans every axis.
    const std::size_t stride = (fleet.size() + 95) / 96;
    std::vector<ScenarioSpec> sampled;
    for (std::size_t i = 0; i < fleet.size(); i += stride)
      sampled.push_back(fleet[i]);
    fleet.swap(sampled);
  }
  run.scenarios = fleet.size();

  std::printf("=== %s fleet (threads=%zu%s): %zu scenarios, seed %llu ===\n\n",
              name.c_str(), rcr::rt::global_threads(), smoke ? ", smoke" : "",
              fleet.size(), static_cast<unsigned long long>(run.fleet_seed));

  const GraderOptions options;
  std::vector<double> grade_us;
  grade_us.reserve(fleet.size());
  std::vector<ScenarioVerdict> verdicts;
  verdicts.reserve(fleet.size());

  const auto t0 = std::chrono::steady_clock::now();
  for (const ScenarioSpec& spec : fleet) {
    const auto s0 = std::chrono::steady_clock::now();
    verdicts.push_back(rcr::scn::grade_scenario(spec, options));
    const auto s1 = std::chrono::steady_clock::now();
    grade_us.push_back(
        std::chrono::duration<double, std::micro>(s1 - s0).count());
    run.cell_ticks += verdicts.back().cell_ticks;
    if (verdicts.back().verdict == Verdict::kUnsound)
      run.unsound_replays.push_back(spec.replay_line(run.fleet_seed));
  }
  const double total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  run.scenarios_per_s =
      total_s > 0.0 ? static_cast<double>(fleet.size()) / total_s : 0.0;
  run.p50 = percentile(grade_us, 0.50);
  run.p99 = percentile(grade_us, 0.99);
  const rcr::scn::FleetReport report =
      rcr::scn::summarize_fleet(std::move(verdicts), run.fleet_seed);
  run.counts[0] = report.passed;
  run.counts[1] = report.degraded;
  run.counts[2] = report.failed;
  run.counts[3] = report.unsound;
  run.mean_points = report.mean_points;
  const std::string json = rcr::scn::report_json(report, fleet);
  run.report_hash = rcr::serve::fnv1a_bytes(json.data(), json.size());

  std::printf("%12s %12s %12s %12s\n", "scenarios/s", "p50(us)", "p99(us)",
              "cell-ticks");
  std::printf("%12.1f %12.1f %12.1f %12zu\n\n", run.scenarios_per_s, run.p50,
              run.p99, run.cell_ticks);
  std::printf("verdicts: pass=%zu degraded=%zu fail=%zu unsound=%zu "
              "(mean points %.1f), report hash %016llx\n",
              run.counts[0], run.counts[1], run.counts[2], run.counts[3],
              run.mean_points,
              static_cast<unsigned long long>(run.report_hash));
  for (const std::string& replay : run.unsound_replays)
    std::printf("UNSOUND: %s\n", replay.c_str());
  std::printf("\n");
  return run;
}

std::string run_json(const FleetRun& r) {
  const double n = r.scenarios > 0 ? static_cast<double>(r.scenarios) : 1.0;
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"fleet\":\"%s\",\"fleet_seed\":%llu,\"scenarios\":%zu,"
      "\"cell_ticks\":%zu,\"scenarios_per_s\":%.1f,\"grade_p50_us\":%.1f,"
      "\"grade_p99_us\":%.1f,\"mean_points\":%.2f,"
      "\"verdicts\":{\"pass\":%zu,\"degraded\":%zu,\"fail\":%zu,"
      "\"unsound\":%zu},"
      "\"ratios\":{\"pass\":%.4f,\"degraded\":%.4f,\"fail\":%.4f,"
      "\"unsound\":%.4f},\"report_hash\":\"%016llx\"}",
      r.name.c_str(), static_cast<unsigned long long>(r.fleet_seed),
      r.scenarios, r.cell_ticks, r.scenarios_per_s, r.p50, r.p99,
      r.mean_points, r.counts[0], r.counts[1], r.counts[2], r.counts[3],
      static_cast<double>(r.counts[0]) / n,
      static_cast<double>(r.counts[1]) / n,
      static_cast<double>(r.counts[2]) / n,
      static_cast<double>(r.counts[3]) / n,
      static_cast<unsigned long long>(r.report_hash));
  return buf;
}

}  // namespace

int main() {
  const bool smoke = rcr::bench::smoke_mode();

  const FleetRun conformance =
      grade("conformance", rcr::scn::conformance_fleet(), smoke);
  const FleetRun overload = grade("overload", rcr::scn::overload_fleet(), smoke);

  char head[128];
  std::snprintf(head, sizeof(head),
                "{\"bench\":\"scenario_fleet\",\"threads\":%zu,\"smoke\":%d,"
                "\"fleets\":[",
                rcr::rt::global_threads(), smoke ? 1 : 0);
  const std::string json =
      std::string(head) + run_json(conformance) + "," + run_json(overload) +
      "]}";

  std::printf("%s\n", json.c_str());
  std::FILE* f = std::fopen("BENCH_perf_scn.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  return conformance.counts[3] == 0 && overload.counts[3] == 0 ? 0 : 2;
}
