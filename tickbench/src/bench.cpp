#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mirror.hpp"
#include "rcr/learn/artifact.hpp"
#include "rcr/obs/metrics.hpp"
#include "rcr/obs/trace.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/thread_pool.hpp"
#include "rcr/scn/dsl.hpp"
#include "rcr/scn/grader.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace tickbench {

namespace obs = rcr::obs;
namespace qos = rcr::qos;
namespace scn = rcr::scn;
namespace serve = rcr::serve;
using rcr::Vec;
using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;

namespace {

/// Throughput and latency percentiles are taken over equal blocks of the
/// run (see stats.hpp), and each reports a quiet block rather than the
/// median one.  The shared host this was tuned on runs the same ticks a
/// quarter or more slower at p50, and more at p99, for seconds to minutes
/// at a time; a slower program slows every block, so the least-disturbed
/// blocks still track it.  Throughput reports the block rate a tenth of the
/// blocks beat, p50 the first quartile of the block p50s, and p99 the 5th
/// percentile of the block p99s over as many blocks (at most kTailBlocks)
/// as the ten-sample rule allows.
constexpr std::size_t kRateBlocks = 40;
constexpr double kRateAcross = 0.9;
constexpr std::size_t kMedianBlocks = 50;
constexpr double kMedianAcross = 0.25;
constexpr std::size_t kTailBlocks = 100;
constexpr double kTailAcross = 0.05;
/// Warm-up stops once the cache is full or after this many ticks.
constexpr std::size_t kMaxWarmupTicks = 2048;
/// Scenarios graded inside each fleet set-up (the fleet's warm-up ops).
constexpr std::size_t kFleetWarmupOps = 32;
/// conformance-fleet grades every kFleetStride-th scenario of the fleet.
constexpr std::size_t kFleetStride = 5;
/// Scenarios the service workloads' traced runs grade to price scn.
constexpr std::size_t kScnProbeScenarios = 32;
/// Share of a traced run spent on the untraced baseline.
constexpr double kUntracedShare = 1.0 / 3.0;
/// Set-ups per untraced run; setup_s is their median.  A fleet set-up takes
/// a few milliseconds, so the fleet takes the median of many more.
constexpr std::size_t kSetupReps = 11;
constexpr std::size_t kFleetSetupReps = 101;

/// Ticks the traced run's overload probe serves (about a second traced).
constexpr std::size_t kOverloadProbeTicks = 4096;
/// Empty fan-outs the traced run's pool probe times, and the most threads
/// it pools (never more than half the hardware threads).
constexpr std::size_t kProbeFanouts = 2000;
constexpr std::size_t kProbeThreads = 2;
/// The spans of the service calls a replayed tick re-issues.  Whatever tick
/// time they do not cover is the service's own glue.
constexpr const char* kReplayedCalls[] = {
    "serve.admission_plan", "serve.signature",   "serve.cache_get",
    "qos.assign",           "learn.qp_coeffs",   "numerics.qp_build",
    "opt.prefactor",        "opt.admm",          "qos.waterfill",
    "serve.cache_put",      "serve.cache_flush"};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  // VmHWM belongs to this process image.  getrusage's ru_maxrss does not:
  // it starts from the parent's peak at fork and survives exec, so under a
  // launcher it would report the launcher's memory.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool head_step(const std::string& step) {
  return step == "cache" || step == "admm";
}

/// Correctness gate and quality/degradation accounting over served answers.
struct Tally {
  std::uint64_t cell_ticks = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;
  QualitySample quality;  ///< Sums over every cell-tick.
  double points = 0.0;    ///< Fleet: summed grader points.
  std::uint64_t scenarios = 0;
  std::string first_failure;

  void fail(std::uint64_t cells, const std::string& why) {
    failed += cells;
    if (first_failure.empty()) first_failure = why;
  }

  /// Count `other`'s gate results here without mixing in its quality.
  void add_gate(const Tally& other) {
    cell_ticks += other.cell_ticks;
    if (other.failed > 0) fail(other.failed, other.first_failure);
  }

  void add_tick(const serve::AllocationService& service,
                const serve::TickReport& report,
                const std::function<const qos::RraProblem&(std::size_t)>&
                    problem_of) {
    for (std::size_t c = 0; c < service.num_cells(); ++c) {
      const serve::CellAllocation& a = service.allocation(c);
      const qos::RraProblem& problem = problem_of(c);
      ++cell_ticks;
      if (!head_step(a.step)) ++degraded;
      const std::string err =
          check_allocation(problem, a.assignment, a.power);
      if (!err.empty()) {
        fail(1, "tick " + std::to_string(report.tick) + " cell " +
                    std::to_string(c) + " (" + a.step + "): " + err);
        continue;
      }
      const QualitySample s = quality_sample(problem, a.assignment, a.power);
      quality.served += s.served;
      quality.reference += s.reference;
    }
  }

  void add_verdict(const scn::ScenarioVerdict& v) {
    cell_ticks += v.cell_ticks;
    degraded += v.degraded;
    points += v.points;
    ++scenarios;
    if (v.verdict == scn::Verdict::kUnsound || !(v.feasibility_residual <= 1e-9))
      fail(v.cell_ticks, "scenario " + std::to_string(v.index) + ": " +
                             scn::to_string(v.verdict) + ", residual " +
                             std::to_string(v.feasibility_residual) + " " +
                             v.detail);
  }

  double served_quality() const {
    return scenarios > 0 ? points / (100.0 * static_cast<double>(scenarios))
                         : quality_ratio({quality});
  }
  double head_share() const {
    return cell_ticks == 0 ? 0.0
                           : 1.0 - static_cast<double>(degraded) /
                                       static_cast<double>(cell_ticks);
  }
};

/// A service and the input stream feeding it.  Inputs are generated before
/// each tick, outside the op timer.
template <typename Inputs>
class ServiceInstance {
 public:
  template <typename Shape>
  ServiceInstance(const Shape& shape, const serve::ServiceConfig& config,
                  std::size_t cells, double& construct_s)
      : inputs_(shape) {
    const Clock::time_point t0 = Clock::now();
    service_ = std::make_unique<serve::AllocationService>(config, cells);
    construct_s = seconds_since(t0);
  }

  /// Advance the inputs, then serve one tick; `wall_s` times the tick alone.
  serve::TickReport tick(double& wall_s) {
    inputs_.advance(next_);
    const Clock::time_point t0 = Clock::now();
    serve::TickReport report = service_->tick(next_, problem_of());
    wall_s = seconds_since(t0);
    ++next_;
    return report;
  }

  serve::AllocationService::ProblemFn problem_of() const {
    return [this](std::size_t c) -> const qos::RraProblem& {
      return inputs_.cell(c);
    };
  }
  const serve::AllocationService& service() const { return *service_; }
  std::size_t next_tick() const { return next_; }

 private:
  Inputs inputs_;
  std::unique_ptr<serve::AllocationService> service_;
  std::size_t next_ = 0;
};

using DiurnalInstance = ServiceInstance<serve::DiurnalWorkload>;
using ScenarioInstance = ServiceInstance<scn::ScenarioWorkload>;

/// (Re)start the global pool at the size RCR_THREADS asks for.
void start_pool() {
  rcr::rt::set_global_threads(rcr::rt::default_thread_count());
}

/// Build a service, start the pool and run the warm-up ticks (tick 0 and
/// the cache fill).  `setup_s` times pool start, construction and the
/// warm-up ticks -- not input generation.
std::unique_ptr<DiurnalInstance> set_up(const Workload& w, Tally& tally,
                                        double& setup_s,
                                        serve::TickReport& last) {
  const Clock::time_point t0 = Clock::now();
  start_pool();
  setup_s = seconds_since(t0);
  double construct_s = 0.0;
  auto inst = std::make_unique<DiurnalInstance>(w.shape, w.service,
                                                w.shape.num_cells, construct_s);
  setup_s += construct_s;
  const std::size_t capacity = w.service.cache_capacity;
  do {
    double tick_s = 0.0;
    last = inst->tick(tick_s);
    setup_s += tick_s;
    tally.add_tick(inst->service(), last, inst->problem_of());
  } while (w.service.cache_enabled && inst->next_tick() < kMaxWarmupTicks &&
           inst->service().cache_stats().size < capacity);
  return inst;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double counter_value(const char* name, const char* label_key = "",
                     const char* label_value = "") {
  double total = 0.0;
  for (const obs::MetricSample& m : obs::metrics_snapshot())
    if (m.name == name && m.label_key == label_key &&
        m.label_value == label_value)
      total += m.value;
  return total;
}

/// Accounting the traced phase gathers next to the spans.
struct TraceAccum {
  std::uint64_t ticks = 0;
  std::uint64_t cells = 0;
  std::uint64_t report_iterations = 0;
  std::uint64_t report_hits = 0;
  std::uint64_t report_solves = 0;
  std::uint64_t snapshot_cells = 0;
  double tick_ns = 0.0;  ///< Summed wall time of the service ticks.
  double glue_ns = 0.0;  ///< Summed tick time the replay did not cover.
};

double replayed_ns(const SpanRecorder& spans) {
  double ns = 0.0;
  for (const char* name : kReplayedCalls) ns += spans.layer(name).self_ns;
  return ns;
}

/// One traced tick: the service tick (untraced, metrics armed when
/// `arm_metrics`), then the replay and the quality reference under spans.
/// The tick's glue is its wall time minus the replayed calls' self time,
/// counted as 0 on a tick whose replay ran longer than the tick (timing
/// noise on solver-bound ticks).  Returns the whole op's wall time.
template <typename Inputs>
double traced_tick(ServiceInstance<Inputs>& inst, Mirror& mirror,
                   SpanRecorder& spans, TraceAccum& acc, Tally& tally,
                   bool arm_metrics) {
  const Clock::time_point t0 = Clock::now();
  double wall_s = 0.0;
  if (arm_metrics) obs::set_metrics_enabled(true);
  const serve::TickReport report = inst.tick(wall_s);
  if (arm_metrics) obs::set_metrics_enabled(false);
  const auto problem_of = inst.problem_of();
  const double covered0 = replayed_ns(spans);
  mirror.replay_tick(report.tick, problem_of, inst.service(), report);
  acc.tick_ns += 1e9 * wall_s;
  acc.glue_ns += std::max(0.0, 1e9 * wall_s - (replayed_ns(spans) - covered0));
  for (std::size_t c = 0; c < report.cells; ++c) {
    const serve::CellAllocation& a = inst.service().allocation(c);
    const qos::RraProblem& problem = problem_of(c);
    const Vec gains = qos::assigned_gains(problem, a.assignment);
    Scope s(spans, "qos.waterfill_ref", report.tick, static_cast<std::uint32_t>(c));
    const Vec ref = qos::waterfill(gains, problem.total_power);
    (void)ref;
  }
  tally.add_tick(inst.service(), report, problem_of);
  ++acc.ticks;
  acc.cells += report.cells;
  acc.report_iterations += report.total_iterations;
  acc.report_hits += report.cache_hits;
  acc.report_solves += report.solves;
  acc.snapshot_cells += report.deferred + report.shed + report.quarantined;
  return seconds_since(t0);
}

/// Fleet sample: every kFleetStride-th scenario of the conformance fleet
/// enumerated under fleet seed `seed`.  The stride is coprime to every axis
/// size, so the sample spans each axis; the offset is fixed, so every seed
/// grades the same scenario shapes on its own channel draws.
std::vector<scn::ScenarioSpec> fleet_sample(std::uint64_t seed) {
  std::vector<scn::ScenarioSpec> fleet =
      scn::conformance_fleet().honor_env(false).seed(seed).enumerate();
  std::vector<scn::ScenarioSpec> sample;
  for (std::size_t i = 0; i < fleet.size(); i += kFleetStride)
    sample.push_back(fleet[i]);
  return sample;
}

/// scn-layer figures from grading under the program's own tracing.
struct ScnAccum {
  double enumerate_ns = 0.0;
  double grade_ns = 0.0;
  double tick_ns = 0.0;
  std::uint64_t cell_ticks = 0;
};

scn::ScenarioVerdict grade_traced(const scn::ScenarioSpec& spec,
                                  SpanRecorder& spans, ScnAccum& acc,
                                  bool arm_metrics) {
  obs::reset_trace();
  obs::set_trace_enabled(true);
  if (arm_metrics) obs::set_metrics_enabled(true);
  const Clock::time_point t0 = Clock::now();
  scn::ScenarioVerdict v;
  {
    Scope s(spans, "scn.grade", spec.index, kTickLevel);
    v = scn::grade_scenario(spec);
  }
  acc.grade_ns += 1e9 * seconds_since(t0);
  if (arm_metrics) obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  acc.tick_ns += serve_tick_span_ns(obs::trace_json());
  acc.cell_ticks += v.cell_ticks;
  return v;
}

void add(std::vector<Metric>& out, const char* name, double value,
         const char* unit) {
  out.push_back(Metric{name, value, unit});
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The end-to-end metrics of an untraced run.
void end_to_end(RunResult& res, const Tally& tally,
                const std::vector<double>& op_s,
                const std::vector<double>& op_cell_ticks,
                const std::vector<double>& setups) {
  std::vector<double> us(op_s.size());
  for (std::size_t i = 0; i < op_s.size(); ++i) us[i] = 1e6 * op_s[i];
  const std::optional<double> p50 =
      segmented_percentile(us, 0.50, kMedianBlocks, kMedianAcross);
  const std::optional<double> p99 =
      segmented_percentile(us, 0.99, kTailBlocks, kTailAcross);
  if (!p50 || !p99) {
    res.correct = false;
    res.log.push_back("too few ops (" + std::to_string(us.size()) +
                      ") for a p99 with ten samples beyond it");
    return;
  }
  add(res.metrics, "cell_ticks_per_s",
      segmented_rate(op_cell_ticks, op_s, kRateBlocks, kRateAcross),
      "cell-ticks/s");
  add(res.metrics, "latency_p50_us", *p50, "us");
  add(res.metrics, "latency_p99_us", *p99, "us");
  add(res.metrics, "served_quality", tally.served_quality(), "ratio");
  add(res.metrics, "head_share", tally.head_share(), "ratio");
  add(res.metrics, "setup_s", median(setups), "s");
  add(res.metrics, "peak_rss_mb", peak_rss_mib(), "MiB");
  res.log.push_back("ops " + std::to_string(us.size()) + ", setups " +
                    std::to_string(setups.size()));
}

/// Overload-layer figures of a traced run (see overload_probe).
struct OverloadFigures {
  double admission_plan_us = 0.0;   ///< plan_admission per tick.
  double snapshot_share = 0.0;      ///< (deferred + shed + quarantined) / cells.
  double degraded_per_solve = 0.0;  ///< rcr.fallback.degraded{serve.cell}.
  double skipped_per_solve = 0.0;   ///< rcr.fallback.skipped{serve.cell}.
};

/// The per-layer metrics of a traced run.
void per_layer(RunResult& res, const SpanRecorder& spans,
               const MirrorTotals& mt, const TraceAccum& acc,
               const ScnAccum& scn_acc, const OverloadFigures& overload,
               double tasks_per_fanout, double untraced_p50_us,
               double traced_p50_us) {
  auto& m = res.metrics;
  const double admm_self = spans.layer("opt.admm").self_ns;
  const double ns_per_iter = ratio(admm_self, static_cast<double>(mt.iterations));
  const double predict_ns = spans.self_ns_per_call("learn.predict");
  add(m, "opt.prefactor_ns", spans.self_ns_per_call("opt.prefactor"), "ns");
  add(m, "opt.admm_ns", spans.self_ns_per_call("opt.admm"), "ns");
  add(m, "opt.ns_per_iter", ns_per_iter, "ns");
  add(m, "opt.admm_iters_per_solve",
      ratio(static_cast<double>(mt.iterations),
            static_cast<double>(spans.layer("opt.admm").calls)),
      "count");
  add(m, "opt.warm_accept_ratio",
      ratio(static_cast<double>(mt.warm_accepted),
            static_cast<double>(mt.warm_attempted)),
      "ratio");
  add(m, "numerics.qp_build_ns", spans.self_ns_per_call("numerics.qp_build"),
      "ns");
  add(m, "qos.assign_ns", spans.self_ns_per_call("qos.assign"), "ns");
  const SpanRecorder::Layer wf = spans.layer("qos.waterfill");
  const SpanRecorder::Layer wf_ref = spans.layer("qos.waterfill_ref");
  add(m, "qos.waterfill_ns",
      ratio(wf.self_ns + wf_ref.self_ns,
            static_cast<double>(wf.calls + wf_ref.calls)),
      "ns");
  add(m, "learn.qp_coeffs_ns", spans.self_ns_per_call("learn.qp_coeffs"),
      "ns");
  add(m, "learn.predict_ns", predict_ns, "ns");
  add(m, "learn.iters_saved_per_solve",
      ratio(static_cast<double>(mt.iterations_saved),
            static_cast<double>(mt.predicts)),
      "count");
  add(m, "learn.breakeven_iters", ratio(predict_ns, ns_per_iter), "count");
  add(m, "serve.signature_ns", spans.self_ns_per_call("serve.signature"), "ns");
  add(m, "serve.cache_get_ns", spans.self_ns_per_call("serve.cache_get"), "ns");
  add(m, "serve.cache_hit_ratio",
      ratio(static_cast<double>(mt.cache_hits),
            static_cast<double>(mt.cache_hits + mt.cache_misses)),
      "ratio");
  add(m, "serve.cache_put_ns",
      ratio(spans.layer("serve.cache_put").self_ns +
                spans.layer("serve.cache_flush").self_ns,
            static_cast<double>(mt.cache_puts)),
      "ns");
  add(m, "serve.admission_plan_us", overload.admission_plan_us, "us");
  add(m, "serve.snapshot_share", overload.snapshot_share, "ratio");
  add(m, "serve.glue_share", ratio(acc.glue_ns, acc.tick_ns), "ratio");
  add(m, "robust.chain_overhead_ns", spans.self_ns_per_call("robust.chain"),
      "ns");
  add(m, "robust.degraded_per_solve", overload.degraded_per_solve, "count");
  add(m, "robust.skipped_per_solve", overload.skipped_per_solve, "count");
  add(m, "runtime.fanout_us", 1e-3 * spans.self_ns_per_call("runtime.fanout"),
      "us");
  add(m, "runtime.tasks_per_tick", tasks_per_fanout, "count");
  add(m, "scn.enumerate_ms", 1e-6 * scn_acc.enumerate_ns, "ms");
  add(m, "scn.grade_us_per_cell_tick",
      1e-3 * ratio(scn_acc.grade_ns, static_cast<double>(scn_acc.cell_ticks)),
      "us");
  add(m, "scn.tick_share", ratio(scn_acc.tick_ns, scn_acc.grade_ns), "ratio");
  add(m, "obs.trace_overhead", ratio(traced_p50_us, untraced_p50_us), "ratio");
}

/// The checked-in learned head, which the traced replay prices on every
/// solve (null, with a log line, when the artifact does not load).
std::unique_ptr<rcr::learn::WarmStartPredictor> load_probe_predictor(
    RunResult& res) {
  rcr::robust::Result<rcr::learn::WarmStartPredictor> loaded =
      rcr::learn::load_predictor(TICKBENCH_PREDICTOR);
  if (!loaded.status.ok()) {
    res.log.push_back("learned-head artifact did not load: " +
                      loaded.status.to_string());
    return nullptr;
  }
  return std::make_unique<rcr::learn::WarmStartPredictor>(
      std::move(loaded.value));
}

/// The replay must rebuild every tick's admission plan exactly and, on a
/// fault-free workload, do the service's ADMM iterations and cache hits
/// exactly; otherwise the traced run fails.
void check_faithful(RunResult& res, const MirrorTotals& mt,
                    const TraceAccum& acc, bool fault_free) {
  const bool plans_ok = mt.plan_mismatches == 0;
  res.log.push_back(std::string("replay admission plans ") +
                    (plans_ok ? "ok" : "FAILED") + ": " +
                    std::to_string(mt.plan_mismatches) + " of " +
                    std::to_string(acc.ticks) + " ticks differ");
  bool work_ok = true;
  if (fault_free) {
    work_ok = mt.iterations == acc.report_iterations &&
              mt.cache_hits == acc.report_hits;
    res.log.push_back(
        std::string("replay faithfulness ") + (work_ok ? "ok" : "FAILED") +
        ": iterations replay " + std::to_string(mt.iterations) +
        " / service " + std::to_string(acc.report_iterations) +
        ", cache hits replay " + std::to_string(mt.cache_hits) +
        " / service " + std::to_string(acc.report_hits));
  } else {
    res.log.push_back("replay iterations and cache hits not held: the fault "
                      "storm changes what the service solves");
  }
  if (!plans_ok || !work_ok) res.correct = false;
}

/// The workloads serve serially, so their ticks never reach the pool.
/// Price a pooled tick's fan-out on its own: time `kProbeFanouts` empty
/// parallel_for calls over `cells` at the service's grain on a pool of
/// kProbeThreads (at most half the hardware threads), counting the tasks
/// they submit, then restart the pool at its RCR_THREADS size.  Returns
/// the tasks per fan-out.
double pool_probe(std::size_t cells, std::size_t grain, SpanRecorder& spans) {
  const std::size_t half = std::thread::hardware_concurrency() / 2;
  rcr::rt::set_global_threads(
      std::max<std::size_t>(1, std::min(kProbeThreads, half)));
  const double tasks0 = counter_value("rcr.runtime.tasks");
  obs::set_metrics_enabled(true);
  for (std::size_t i = 0; i < kProbeFanouts; ++i) {
    Scope s(spans, "runtime.fanout", i, kTickLevel);
    rcr::rt::parallel_for(0, cells, std::max<std::size_t>(1, grain),
                          [](std::size_t, std::size_t) {});
  }
  obs::set_metrics_enabled(false);
  const double tasks = counter_value("rcr.runtime.tasks") - tasks0;
  start_pool();
  return tasks / static_cast<double>(kProbeFanouts);
}

/// The benchmark's workloads serve without the overload layer, so the traced
/// run prices it in a probe of its own: kOverloadProbeTicks ticks of the
/// overload-storm configuration (admission at half the fleet, brownout,
/// breakers, watchdog) under its keyed serve.* fault storm, each tick
/// replayed as on the workloads.  Every replayed admission plan must match
/// the service's, or the traced run fails.  The probe's answers pass
/// through the correctness gate but not into the workload's quality.
OverloadFigures overload_probe(std::uint64_t seed,
                               const rcr::learn::WarmStartPredictor* predictor,
                               RunResult& res, Tally& tally) {
  namespace faults = rcr::robust::faults;
  const Workload w = *make_workload("overload-storm", seed);
  const std::string spec = "seed=" + std::to_string(seed) + "," + w.faults;
  if (!faults::configure_spec(spec))
    throw std::runtime_error("bad fault spec " + spec);
  SpanRecorder spans(0);
  Mirror mirror(w.service, w.shape.num_cells, spans, predictor);
  double construct_s = 0.0;
  DiurnalInstance inst(w.shape, w.service, w.shape.num_cells, construct_s);
  const double degraded0 =
      counter_value("rcr.fallback.degraded", "chain", "serve.cell");
  const double skipped0 =
      counter_value("rcr.fallback.skipped", "chain", "serve.cell");
  TraceAccum acc;
  Tally graded;
  for (std::size_t t = 0; t < kOverloadProbeTicks; ++t)
    traced_tick(inst, mirror, spans, acc, graded, true);
  faults::disable();
  tally.add_gate(graded);
  const std::uint64_t mismatches = mirror.totals().plan_mismatches;
  res.log.push_back(std::string("overload probe admission plans ") +
                    (mismatches == 0 ? "ok" : "FAILED") + ": " +
                    std::to_string(mismatches) + " of " +
                    std::to_string(acc.ticks) + " ticks differ");
  if (mismatches > 0) res.correct = false;
  const double solves = static_cast<double>(acc.report_solves);
  OverloadFigures f;
  f.admission_plan_us = 1e-3 * spans.self_ns_per_call("serve.admission_plan");
  f.snapshot_share = ratio(static_cast<double>(acc.snapshot_cells),
                           static_cast<double>(acc.cells));
  f.degraded_per_solve = ratio(
      counter_value("rcr.fallback.degraded", "chain", "serve.cell") - degraded0,
      solves);
  f.skipped_per_solve = ratio(
      counter_value("rcr.fallback.skipped", "chain", "serve.cell") - skipped0,
      solves);
  return f;
}

/// Gate counts and the quality floor, common to every workload.
void finish(RunResult& res, const Tally& tally, const RunOptions& o) {
  res.attempted = tally.cell_ticks;
  res.failed = tally.failed;
  if (!tally.first_failure.empty())
    res.log.push_back("first failure: " + tally.first_failure);
  if (tally.served_quality() < o.quality_floor) {
    res.correct = false;
    res.log.push_back("served_quality below the floor");
  }
}

/// Plain median of op times, in microseconds (the traced run's baseline).
double p50_us(const std::vector<double>& op_s) {
  std::vector<double> us(op_s.size());
  for (std::size_t i = 0; i < op_s.size(); ++i) us[i] = 1e6 * op_s[i];
  return percentile(us, 0.5).value_or(0.0);
}

/// Enumerate the fleet once under a span and grade a small sample with the
/// program's tracing armed (the scn figures of a service workload).  The
/// verdicts pass through the gate but not into the workload's quality.
void scn_probe(std::uint64_t seed, SpanRecorder& spans, ScnAccum& acc,
               Tally& tally) {
  const Clock::time_point t0 = Clock::now();
  std::vector<scn::ScenarioSpec> sample;
  {
    Scope s(spans, "scn.enumerate", 0, kTickLevel);
    sample = fleet_sample(seed);
  }
  acc.enumerate_ns = 1e9 * seconds_since(t0);
  Tally graded;
  for (std::size_t i = 0; i < kScnProbeScenarios && i < sample.size(); ++i)
    graded.add_verdict(grade_traced(sample[i], spans, acc, false));
  tally.add_gate(graded);
}

RunResult run_service(const Workload& w, const RunOptions& o) {
  RunResult res;
  Tally tally;
  namespace faults = rcr::robust::faults;
  const std::string fault_spec =
      w.faults.empty() ? "" : "seed=" + std::to_string(o.seed) + "," + w.faults;
  if (!fault_spec.empty() && !faults::configure_spec(fault_spec))
    throw std::runtime_error("bad fault spec " + fault_spec);

  const std::size_t reps = o.trace ? 1 : kSetupReps;
  std::vector<double> setups;
  std::unique_ptr<DiurnalInstance> inst;
  serve::TickReport last;
  for (std::size_t r = 0; r < reps; ++r) {
    inst.reset();
    double setup_s = 0.0;
    inst = set_up(w, tally, setup_s, last);
    setups.push_back(setup_s);
  }
  const std::size_t warmup_ticks = inst->next_tick();
  res.log.push_back("witness: warm-up ticks " + std::to_string(warmup_ticks) +
                    ", tick " + std::to_string(last.tick) + " solution_hash " +
                    hex(last.solution_hash));

  // Untraced measurement (the whole window, or the baseline share of a
  // traced run).
  const double window = o.trace ? kUntracedShare * o.seconds : o.seconds;
  std::vector<double> op_s, op_cells;
  std::uint64_t iterations = 0, hits = 0, cell_ticks = 0;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < window) {
    double tick_s = 0.0;
    last = inst->tick(tick_s);
    op_s.push_back(tick_s);
    op_cells.push_back(static_cast<double>(last.cells));
    iterations += last.total_iterations;
    hits += last.cache_hits;
    cell_ticks += last.cells;
    tally.add_tick(inst->service(), last, inst->problem_of());
  }
  res.log.push_back("witness: final tick " + std::to_string(last.tick) +
                    " solution_hash " + hex(last.solution_hash));
  const double per_cell_tick =
      1.0 / static_cast<double>(std::max<std::uint64_t>(1, cell_ticks));
  res.log.push_back("work: " + std::to_string(iterations * per_cell_tick) +
                    " ADMM iterations and " +
                    std::to_string(hits * per_cell_tick) +
                    " cache hits per measured cell-tick");

  if (!o.trace) {
    end_to_end(res, tally, op_s, op_cells, setups);
  } else {
    const double untraced_p50 = p50_us(op_s);

    // Traced phase: a fresh service and replay from tick 0, so the replay's
    // warm states and cache track the service's exactly.
    inst.reset();
    const auto predictor = load_probe_predictor(res);
    SpanRecorder spans;
    Mirror mirror(w.service, w.shape.num_cells, spans, predictor.get());
    double construct_s = 0.0;
    DiurnalInstance traced(w.shape, w.service, w.shape.num_cells, construct_s);
    obs::reset_metrics();
    TraceAccum acc;
    std::vector<double> traced_us;
    const Clock::time_point t1 = Clock::now();
    while (seconds_since(t1) < o.seconds - window ||
           traced.next_tick() < warmup_ticks + 16) {
      const double op = traced_tick(traced, mirror, spans, acc, tally, true);
      if (traced.next_tick() > warmup_ticks) traced_us.push_back(1e6 * op);
    }
    check_faithful(res, mirror.totals(), acc, w.faults.empty());
    faults::disable();
    const double tasks_per_fanout = pool_probe(
        w.shape.num_cells, w.service.cells_per_chunk, spans);
    ScnAccum scn_acc;
    scn_probe(o.seed, spans, scn_acc, tally);
    const OverloadFigures overload =
        overload_probe(o.seed, predictor.get(), res, tally);
    per_layer(res, spans, mirror.totals(), acc, scn_acc, overload,
              tasks_per_fanout, untraced_p50,
              percentile(traced_us, 0.5).value_or(0.0));
    if (!o.spans_path.empty() && !spans.write_json(o.spans_path))
      res.log.push_back("could not write spans to " + o.spans_path);
  }
  faults::disable();
  finish(res, tally, o);
  return res;
}

RunResult run_fleet(const Workload& w, const RunOptions& o) {
  RunResult res;
  Tally tally;
  const std::size_t reps = o.trace ? 1 : kFleetSetupReps;
  std::vector<double> setups;
  std::vector<scn::ScenarioSpec> sample;
  scn::ScenarioVerdict warm;
  for (std::size_t r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    sample = fleet_sample(o.seed);
    start_pool();
    for (std::size_t i = 0; i < kFleetWarmupOps && i < sample.size(); ++i) {
      warm = scn::grade_scenario(sample[i]);
      tally.add_verdict(warm);
    }
    setups.push_back(seconds_since(t0));
  }
  if (sample.size() <= kFleetWarmupOps)
    throw std::runtime_error("fleet sample too small");
  res.log.push_back("witness: sample of " + std::to_string(sample.size()) +
                    " scenarios; last warm-up scenario " +
                    std::to_string(warm.index) + " solution_hash " +
                    hex(warm.solution_hash));
  std::size_t next = kFleetWarmupOps;
  const auto next_spec = [&]() -> const scn::ScenarioSpec& {
    const scn::ScenarioSpec& spec = sample[next];
    next = next + 1 < sample.size() ? next + 1 : kFleetWarmupOps;
    return spec;
  };

  const double window = o.trace ? kUntracedShare * o.seconds : o.seconds;
  std::vector<double> op_s, op_cells;
  std::uint64_t hash = 0;
  std::size_t last_index = 0;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < window) {
    const scn::ScenarioSpec& spec = next_spec();
    const Clock::time_point t0 = Clock::now();
    const scn::ScenarioVerdict v = scn::grade_scenario(spec);
    op_s.push_back(seconds_since(t0));
    op_cells.push_back(static_cast<double>(v.cell_ticks));
    tally.add_verdict(v);
    hash = v.solution_hash;
    last_index = v.index;
  }
  res.log.push_back("witness: last graded scenario " +
                    std::to_string(last_index) + " solution_hash " + hex(hash));

  if (!o.trace) {
    end_to_end(res, tally, op_s, op_cells, setups);
  } else {
    const double untraced_p50 = p50_us(op_s);

    const auto predictor = load_probe_predictor(res);
    SpanRecorder spans;
    ScnAccum scn_acc;
    {
      const Clock::time_point t0 = Clock::now();
      Scope s(spans, "scn.enumerate", 0, kTickLevel);
      sample = fleet_sample(o.seed);
      scn_acc.enumerate_ns = 1e9 * seconds_since(t0);
    }
    obs::reset_metrics();
    // Each op grades a scenario under the program's tracing (scn figures,
    // program counters), then serves the same scenario inputs through a
    // fresh fault-free service with the replay alongside it (layer costs).
    MirrorTotals totals;
    TraceAccum acc;
    std::vector<double> traced_us;
    const Clock::time_point t1 = Clock::now();
    while (seconds_since(t1) < o.seconds - window || traced_us.size() < 16) {
      const scn::ScenarioSpec& spec = next_spec();
      const Clock::time_point t0 = Clock::now();
      tally.add_verdict(grade_traced(spec, spans, scn_acc, true));
      double construct_s = 0.0;
      ScenarioInstance replay(spec, w.service, spec.cells, construct_s);
      Mirror mirror(w.service, spec.cells, spans, predictor.get());
      for (std::size_t t = 0; t < spec.ticks; ++t)
        traced_tick(replay, mirror, spans, acc, tally, false);
      totals += mirror.totals();
      traced_us.push_back(1e6 * seconds_since(t0));
    }
    check_faithful(res, totals, acc, true);
    const double tasks_per_fanout = pool_probe(
        w.shape.num_cells, w.service.cells_per_chunk, spans);
    const OverloadFigures overload =
        overload_probe(o.seed, predictor.get(), res, tally);
    per_layer(res, spans, totals, acc, scn_acc, overload, tasks_per_fanout,
              untraced_p50, percentile(traced_us, 0.5).value_or(0.0));
    if (!o.spans_path.empty() && !spans.write_json(o.spans_path))
      res.log.push_back("could not write spans to " + o.spans_path);
  }
  finish(res, tally, o);
  return res;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  // The narrow shape: bench_serve_soak's soak fleet.
  w.shape.num_cells = 16;
  w.shape.num_rbs = 12;
  w.shape.min_users = 2;
  w.shape.peak_users = 8;
  w.shape.period_ticks = 128;
  w.shape.coherence_ticks = 4;
  w.shape.seed = seed;
  if (name == "wide-refresh") {
    w.shape.num_rbs = 48;
    w.shape.peak_users = 16;
    w.shape.coherence_ticks = 1;
  } else if (name == "overload-storm") {
    // bench_serve_soak's overload leg under a keyed serve.* fault storm.
    w.service.admission.enabled = true;
    w.service.admission.max_solves_per_tick = w.shape.num_cells / 2;
    w.service.admission.cell_slices = {qos::ServiceClass::kUrllc,
                                       qos::ServiceClass::kEmbb,
                                       qos::ServiceClass::kMmtc};
    w.service.brownout.enabled = true;
    w.service.breaker.enabled = true;
    w.service.watchdog.enabled = true;
    w.faults = "rate=0.1,sites=serve.*";
  } else if (name == "conformance-fleet") {
    w.kind = Kind::kFleet;
  } else if (name != "narrow-cached") {
    return std::nullopt;
  }
  return w;
}

RunResult run(const Workload& workload, const RunOptions& options) {
  return workload.kind == Kind::kFleet ? run_fleet(workload, options)
                                       : run_service(workload, options);
}

std::vector<std::uint64_t> tick_hashes(const Workload& w, std::size_t ticks) {
  serve::DiurnalWorkload inputs(w.shape);
  serve::AllocationService service(w.service, w.shape.num_cells);
  std::vector<std::uint64_t> hashes;
  for (std::size_t t = 0; t < ticks; ++t) {
    inputs.advance(t);
    hashes.push_back(service.tick(t, inputs).solution_hash);
  }
  return hashes;
}

double serve_tick_span_ns(const std::string& json) {
  // Events are {"name": "...", "cat": "rcr", "ph": "B"|"E", "ts": <us>,
  // "pid": 1, "tid": <n>, ...}; spans nest per thread, so a per-tid stack
  // pairs each serve.tick end with its begin.
  std::map<long, std::vector<double>> open;
  double total_us = 0.0;
  const std::string key = "{\"name\": \"serve.tick\"";
  for (std::size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + key.size())) {
    const std::size_t ph = json.find("\"ph\": \"", pos);
    const std::size_t ts = json.find("\"ts\": ", pos);
    const std::size_t tid = json.find("\"tid\": ", pos);
    if (ph == std::string::npos || ts == std::string::npos ||
        tid == std::string::npos)
      break;
    const char phase = json[ph + 7];
    const double t = std::strtod(json.c_str() + ts + 6, nullptr);
    const long thread = std::strtol(json.c_str() + tid + 7, nullptr, 10);
    std::vector<double>& stack = open[thread];
    if (phase == 'B') {
      stack.push_back(t);
    } else if (phase == 'E' && !stack.empty()) {
      total_us += t - stack.back();
      stack.pop_back();
    }
  }
  return 1e3 * total_us;
}

}  // namespace tickbench
