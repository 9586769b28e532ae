// tickbench: one workload of the tick benchmark per invocation.
//
//   tickbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--quality-floor <x>] [--spans <path>]
//
// The pool size comes from RCR_THREADS (run.py sets it to 1).
// Prints human-readable lines prefixed with "# " and, last, one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Exits 0 only when every
// served answer passed the correctness gate.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "rcr/rt/thread_pool.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "tickbench: %s\nusage: tickbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--quality-floor <x>] "
               "[--spans <path>]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  tickbench::RunOptions options;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (arg == "--quality-floor") {
      options.quality_floor = std::strtod(value, &end);
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds)
    return usage("--seed and --seconds are required");
  const auto workload = tickbench::make_workload(workload_name, options.seed);
  if (!workload) return usage(("unknown workload '" + workload_name + "'").c_str());

  std::printf("# workload %s seed %llu threads %zu trace %d\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(options.seed),
              rcr::rt::default_thread_count(),
              options.trace ? 1 : 0);
  tickbench::RunResult result;
  try {
    result = tickbench::run(*workload, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tickbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : result.log)
    std::printf("# %s\n", line.c_str());

  bool finite = true;
  std::string metrics;
  for (const tickbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) finite = false;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += '"';
    metrics += json_escape(m.name);
    metrics += "\": {\"value\": ";
    metrics += buf;
    metrics += ", \"unit\": \"";
    metrics += json_escape(m.unit);
    metrics += "\"}";
  }
  const bool correct = result.correct && finite && result.failed == 0 &&
                       result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
