#include "rcr/scn/grader.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "rcr/qos/channel.hpp"
#include "rcr/robust/fault_injection.hpp"

namespace rcr::scn {

namespace {

// A fault fragment rides the RCR_FAULTS spec grammar but must stay inside
// the keyed serve.* sites: counter-keyed streams (any other module) and
// per-site caps make injection order depend on the thread schedule, which
// would break the byte-identical-report contract.
void validate_fragment(const std::string& fragment) {
  if (fragment.empty()) return;
  if (fragment.find("sites=serve.") == std::string::npos)
    throw std::invalid_argument(
        "scenario fault fragment must target sites=serve.* (got \"" +
        fragment + "\")");
  if (fragment.find("max=") != std::string::npos)
    throw std::invalid_argument(
        "scenario fault fragment must not cap injections (max= makes the "
        "fired-count schedule-dependent)");
  if (fragment.find("seed=") != std::string::npos)
    throw std::invalid_argument(
        "scenario fault fragment must not pin seed= (the grader seeds the "
        "spec per scenario)");
}

bool finite_nonnegative(const Vec& power) {
  for (double p : power) {
    if (!std::isfinite(p) || p < -1e-12) return false;
  }
  return true;
}

/// What the rubric reads from how a cell was served.
struct Rubric {
  /// Chain steps that must have failed or been skipped before this answer
  /// is sound: the sound steps answer first, the heuristic tail last.  A
  /// circuit-breaker skip is as auditable a reason to fall through as a
  /// failure.
  std::size_t min_fallthrough;
  bool head;      ///< Answered by the chain head: a deadline hit.
  bool snapshot;  ///< Last-known-good path, not a live answer this tick.
  bool access;    ///< mMTC access: not dropped by a deadline fill or a shed.
  bool policy;    ///< Admission policy's own stale serve (may invert).
};

// One exhaustive switch, no default: a new Served value does not compile
// (-Wswitch) until it has a grading rule.  Rows read
// {min_fallthrough, head, snapshot, access, policy}.
Rubric rubric_of(serve::Served served) {
  switch (served) {
    case serve::Served::kCache:
    case serve::Served::kAdmm:
      return {0, true, false, true, false};
    case serve::Served::kWaterfill:
      return {1, false, false, true, false};
    case serve::Served::kEqualPower:
      return {2, false, false, true, false};
    case serve::Served::kDeadlineFill:
      return {0, false, false, false, false};
    case serve::Served::kSnapshot:
      return {0, false, true, true, true};
    case serve::Served::kShedFill:
      return {0, false, true, false, true};
    case serve::Served::kQuarantine:
      return {0, false, true, true, false};
  }
  throw std::logic_error("rubric_of: unknown Served value");
}

void format_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

}  // namespace

bool priority_inversion(const std::vector<std::size_t>& ranks,
                        const std::vector<bool>& fresh,
                        const std::vector<bool>& involuntary) {
  const std::size_t n = ranks.size();
  for (std::size_t a = 0; a < n; ++a) {
    if (!involuntary[a]) continue;
    for (std::size_t b = 0; b < n; ++b)
      if (fresh[b] && ranks[a] < ranks[b]) return true;
  }
  return false;
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kPass:
      return "pass";
    case Verdict::kDegraded:
      return "degraded";
    case Verdict::kFail:
      return "fail";
    case Verdict::kUnsound:
      return "unsound";
  }
  return "unknown";
}

ScenarioVerdict grade_scenario(const ScenarioSpec& spec,
                               const GraderOptions& options) {
  validate_fragment(spec.faults);
  if (options.service.tick_deadline_s > 0.0)
    throw std::invalid_argument(
        "grade_scenario: armed wall-clock deadlines make verdicts "
        "timing-dependent; grade with tick_deadline_s <= 0");

  ScenarioVerdict v;
  v.index = spec.index;
  v.seed = spec.seed;

  // Install the scenario's fault leg for the duration of the replay, seeded
  // by the case seed so the injection stream is part of the scenario.
  std::optional<robust::faults::ScopedFaults> faults;
  if (!spec.faults.empty()) {
    faults.emplace("seed=" + std::to_string(spec.seed) + "," + spec.faults);
    if (!robust::faults::enabled())
      throw std::invalid_argument("scenario fault fragment failed to parse: " +
                                  spec.faults);
  }

  ScenarioWorkload workload(spec);

  // Overload legs arm the serve overload layer on top of the caller's
  // service shape.  kBaseline keeps the layer off: it is the no-overload
  // reference the spike/brownout legs are scored against, on the same
  // cell-sliced workload.
  serve::ServiceConfig service_config = options.service;
  if (spec.overload == OverloadLeg::kLoadSpike ||
      spec.overload == OverloadLeg::kBrownout) {
    service_config.admission.enabled = true;
    service_config.admission.max_solves_per_tick =
        std::max<std::size_t>(1, spec.cells / 2);
    service_config.admission.max_stale_ticks = 4;
    service_config.admission.cell_slices.clear();
    for (std::size_t c = 0; c < spec.cells; ++c)
      service_config.admission.cell_slices.push_back(workload.cell_class(c));
    service_config.breaker.enabled = true;
    service_config.watchdog.enabled = true;
    if (spec.overload == OverloadLeg::kBrownout) {
      // Aggressive thresholds so the fault leg actually exercises the
      // state machine within a short scenario.
      service_config.brownout.enabled = true;
      service_config.brownout.enter_brownout = 0.25;
      service_config.brownout.enter_shed = 0.9;
      service_config.brownout.enter_ticks = 1;
      service_config.brownout.exit_ticks = 2;
    }
  }
  serve::AllocationService service(service_config, spec.cells);

  const bool overload_leg = spec.overload != OverloadLeg::kNone;
  std::vector<std::size_t> ranks(spec.cells, 1);
  if (overload_leg)
    for (std::size_t c = 0; c < spec.cells; ++c)
      ranks[c] = serve::priority_rank(workload.cell_class(c));

  std::size_t sla_met = 0;
  std::size_t deadline_hits = 0;
  std::size_t sla_met_by_class[3] = {0, 0, 0};
  std::size_t sla_checks_by_class[3] = {0, 0, 0};
  std::size_t fresh_by_class[3] = {0, 0, 0};
  std::size_t ticks_by_class[3] = {0, 0, 0};
  const auto record = [&](const std::string& line) {
    if (v.detail.empty()) v.detail = line;
  };

  for (std::size_t t = 0; t < spec.ticks; ++t) {
    workload.advance(t);
    const serve::TickReport report = service.tick(
        t, [&workload](std::size_t c) -> const qos::RraProblem& {
          return workload.cell(c);
        });
    v.cache_hits += report.cache_hits;
    v.warm_accepted += report.warm_accepted;
    v.degraded += report.degraded;
    v.deadline_fills += report.deadline_fills;
    if (t + 1 == spec.ticks) {
      v.fleet_sum_rate = report.sum_rate;
      v.solution_hash = report.solution_hash;
    }

    for (std::size_t c = 0; c < spec.cells; ++c) {
      const serve::CellAllocation& alloc = service.allocation(c);
      const qos::RraProblem& problem = workload.cell(c);
      ++v.cell_ticks;
      char where[64];
      std::snprintf(where, sizeof(where), "tick %zu cell %zu: ", t, c);

      // --- Degradation soundness -------------------------------------
      const Rubric rubric = rubric_of(alloc.served);
      const std::size_t fallthrough = robust::fallthrough(alloc.records);
      bool sound = true;
      if (alloc.step != serve::to_string(alloc.served)) {
        sound = false;
        record(std::string(where) + "allocation's step '" + alloc.step +
               "' disagrees with its served record");
      } else if (!finite_nonnegative(alloc.power) ||
                 !std::isfinite(alloc.sum_rate)) {
        sound = false;
        record(std::string(where) + "non-finite or negative allocation from "
                                    "step '" + alloc.step + "'");
      } else if (alloc.assignment.size() != problem.num_rbs()) {
        sound = false;
        record(std::string(where) + "assignment length mismatch");
      } else if (fallthrough < rubric.min_fallthrough) {
        // Equal power may only answer after both sound steps (admm,
        // waterfill) fell through on the record, waterfill after admm.
        sound = false;
        record(std::string(where) + "step '" + alloc.step + "' answered after " +
               std::to_string(fallthrough) +
               " failed or skipped chain steps; it needs " +
               std::to_string(rubric.min_fallthrough));
      }
      if (!sound) ++v.unsound_degradations;

      // --- Feasibility residuals -------------------------------------
      const qos::AllocationResiduals residuals =
          qos::allocation_residuals(problem, alloc.assignment, alloc.power);
      if (!residuals.assignment_valid) {
        ++v.unsound_degradations;
        record(std::string(where) + "assignment names an unknown user");
      } else if (residuals.max_violation() > v.feasibility_residual) {
        v.feasibility_residual = residuals.max_violation();
        if (residuals.max_violation() > 1e-9)
          record(std::string(where) + "feasibility residual " +
                 std::to_string(residuals.max_violation()));
      }

      // --- Deadline hit-rate ----------------------------------------
      if (rubric.head) ++deadline_hits;

      // --- Overload freshness ---------------------------------------
      if (overload_leg) {
        const std::size_t k =
            static_cast<std::size_t>(workload.cell_class(c));
        ++ticks_by_class[k];
        if (!rubric.snapshot) ++fresh_by_class[k];
      }

      // --- Per-slice SLA ---------------------------------------------
      // One check per (cell, tick, slice class) present: the slice's
      // aggregate rate must meet floor x population (the service maximizes
      // cell sum rate, so slice commitments -- not per-user fairness -- are
      // the contract under grade).  mMTC's SLA is access: the cell answered
      // through the chain rather than a deadline fill.
      if (residuals.assignment_valid) {
        const Vec rates =
            qos::per_user_rates(problem, alloc.assignment, alloc.power);
        double class_rate[3] = {0.0, 0.0, 0.0};
        std::size_t class_users[3] = {0, 0, 0};
        for (std::size_t u = 0; u < rates.size(); ++u) {
          const std::size_t k =
              static_cast<std::size_t>(workload.slice_of(c, u));
          class_rate[k] += rates[u];
          ++class_users[k];
        }
        for (std::size_t k = 0; k < 3; ++k) {
          if (class_users[k] == 0) continue;
          ++v.sla_checks;
          ++sla_checks_by_class[k];
          const ServiceClass service_class = static_cast<ServiceClass>(k);
          bool met;
          if (service_class == ServiceClass::kMmtc) {
            // mMTC's SLA is access: the cell answered at all, not dropped
            // by a deadline fill or an admission shed.
            met = rubric.access;
          } else {
            met = class_rate[k] + 1e-12 >=
                  sla_floor(options.sla, service_class) *
                      static_cast<double>(class_users[k]);
          }
          if (met) {
            ++sla_met;
            ++sla_met_by_class[k];
          } else if (v.detail.empty()) {
            record(std::string(where) + "slice " +
                   qos::to_string(service_class) +
                   " below its aggregate SLA floor");
          }
        }
      }
    }

    // --- Priority inversion (overload legs grade it unsound) ---------
    if (overload_leg) {
      std::vector<bool> fresh(spec.cells, false);
      std::vector<bool> involuntary(spec.cells, false);
      for (std::size_t c = 0; c < spec.cells; ++c) {
        const serve::CellAllocation& alloc = service.allocation(c);
        const Rubric rubric = rubric_of(alloc.served);
        fresh[c] = !rubric.snapshot;
        // Quarantines (watchdog, fault-driven) and injected sheds are not
        // admission *policy*; only voluntary defer/shed can invert.
        involuntary[c] = rubric.policy && !alloc.injected;
      }
      if (priority_inversion(ranks, fresh, involuntary)) {
        ++v.unsound_degradations;
        char where[64];
        std::snprintf(where, sizeof(where), "tick %zu: ", t);
        record(std::string(where) +
               "priority inversion: a higher-priority cell was served "
               "stale while a lower-priority cell was served fresh");
      }
    }
  }

  v.sla_satisfaction =
      v.sla_checks == 0
          ? 1.0
          : static_cast<double>(sla_met) / static_cast<double>(v.sla_checks);
  for (std::size_t k = 0; k < 3; ++k) {
    if (sla_checks_by_class[k] > 0)
      v.sla_by_class[k] = static_cast<double>(sla_met_by_class[k]) /
                          static_cast<double>(sla_checks_by_class[k]);
    if (ticks_by_class[k] > 0)
      v.fresh_by_class[k] = static_cast<double>(fresh_by_class[k]) /
                            static_cast<double>(ticks_by_class[k]);
  }
  v.deadline_hit_rate =
      v.cell_ticks == 0 ? 1.0
                        : static_cast<double>(deadline_hits) /
                              static_cast<double>(v.cell_ticks);

  // --- Points -------------------------------------------------------
  double points = 0.0;
  if (v.feasibility_residual <= 1e-9)
    points += kFeasibilityPoints;
  else if (v.feasibility_residual <= 1e-6)
    points += kFeasibilityPoints / 2.0;
  points += kSlaPoints * v.sla_satisfaction;
  points += kDeadlinePoints * v.deadline_hit_rate;
  if (v.unsound_degradations == 0) points += kSoundnessPoints;
  v.points = points;

  // --- Verdict ------------------------------------------------------
  if (v.unsound_degradations > 0)
    v.verdict = Verdict::kUnsound;
  else if (v.feasibility_residual > options.fail_residual ||
           v.sla_satisfaction < options.fail_sla)
    v.verdict = Verdict::kFail;
  else if (v.feasibility_residual <= 1e-9 && v.sla_satisfaction >= 1.0 &&
           v.deadline_hit_rate >= 1.0)
    v.verdict = Verdict::kPass;
  else
    v.verdict = Verdict::kDegraded;
  if (v.verdict == Verdict::kPass) v.detail.clear();
  return v;
}

FleetReport summarize_fleet(std::vector<ScenarioVerdict> verdicts,
                            std::uint64_t fleet_seed) {
  FleetReport report;
  report.fleet_seed = fleet_seed;
  double total_points = 0.0;
  double total_sla = 0.0;
  double min_points = verdicts.empty() ? 0.0 : 101.0;
  for (const ScenarioVerdict& v : verdicts) {
    switch (v.verdict) {
      case Verdict::kPass:
        ++report.passed;
        break;
      case Verdict::kDegraded:
        ++report.degraded;
        break;
      case Verdict::kFail:
        ++report.failed;
        break;
      case Verdict::kUnsound:
        ++report.unsound;
        break;
    }
    total_points += v.points;
    total_sla += v.sla_satisfaction;
    if (v.points < min_points) min_points = v.points;
  }
  if (!verdicts.empty()) {
    const double n = static_cast<double>(verdicts.size());
    report.mean_points = total_points / n;
    report.mean_sla = total_sla / n;
    report.min_points = min_points;
  }
  report.verdicts = std::move(verdicts);
  return report;
}

FleetReport grade_fleet(const std::vector<ScenarioSpec>& fleet,
                        std::uint64_t fleet_seed,
                        const GraderOptions& options) {
  std::vector<ScenarioVerdict> verdicts;
  verdicts.reserve(fleet.size());
  for (const ScenarioSpec& spec : fleet)
    verdicts.push_back(grade_scenario(spec, options));
  return summarize_fleet(std::move(verdicts), fleet_seed);
}

std::string report_json(const FleetReport& report,
                        const std::vector<ScenarioSpec>& fleet) {
  if (fleet.size() != report.verdicts.size())
    throw std::invalid_argument("report_json: fleet/verdict size mismatch");
  std::string out;
  out.reserve(256 + 256 * report.verdicts.size());
  out += "{\n";
  out += "  \"fleet_seed\": " + std::to_string(report.fleet_seed) + ",\n";
  out += "  \"scenarios\": " + std::to_string(report.verdicts.size()) + ",\n";
  out += "  \"verdicts\": {\"pass\": " + std::to_string(report.passed) +
         ", \"degraded\": " + std::to_string(report.degraded) +
         ", \"fail\": " + std::to_string(report.failed) +
         ", \"unsound\": " + std::to_string(report.unsound) + "},\n";
  out += "  \"mean_points\": ";
  format_double(out, report.mean_points);
  out += ",\n  \"mean_sla\": ";
  format_double(out, report.mean_sla);
  out += ",\n  \"min_points\": ";
  format_double(out, report.min_points);
  out += ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
    const ScenarioVerdict& v = report.verdicts[i];
    char head[192];
    std::snprintf(head, sizeof(head),
                  "    {\"index\": %zu, \"seed\": %llu, \"verdict\": \"%s\", "
                  "\"points\": ",
                  v.index, static_cast<unsigned long long>(v.seed),
                  to_string(v.verdict));
    out += head;
    format_double(out, v.points);
    out += ", \"spec\": ";
    append_json_string(out, fleet[i].show());
    out += ", \"feasibility_residual\": ";
    format_double(out, v.feasibility_residual);
    out += ", \"sla\": ";
    format_double(out, v.sla_satisfaction);
    out += ", \"deadline_hit_rate\": ";
    format_double(out, v.deadline_hit_rate);
    out += ", \"sla_by_class\": [";
    for (std::size_t k = 0; k < 3; ++k) {
      if (k > 0) out += ", ";
      format_double(out, v.sla_by_class[k]);
    }
    out += "], \"fresh_by_class\": [";
    for (std::size_t k = 0; k < 3; ++k) {
      if (k > 0) out += ", ";
      format_double(out, v.fresh_by_class[k]);
    }
    out += "]";
    char tail[256];
    std::snprintf(tail, sizeof(tail),
                  ", \"unsound\": %zu, \"cell_ticks\": %zu, "
                  "\"cache_hits\": %zu, \"warm_accepted\": %zu, "
                  "\"degraded\": %zu, \"solution_hash\": \"%016llx\"",
                  v.unsound_degradations, v.cell_ticks, v.cache_hits,
                  v.warm_accepted, v.degraded,
                  static_cast<unsigned long long>(v.solution_hash));
    out += tail;
    if (!v.detail.empty()) {
      out += ", \"detail\": ";
      append_json_string(out, v.detail);
    }
    out += i + 1 == report.verdicts.size() ? "}\n" : "},\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool write_report(const FleetReport& report,
                  const std::vector<ScenarioSpec>& fleet,
                  const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << report_json(report, fleet);
  return static_cast<bool>(file);
}

}  // namespace rcr::scn
