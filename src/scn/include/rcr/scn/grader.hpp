// Verdict-graded scenario replay (DESIGN.md §14): run one scenario through
// the rcr::serve allocation service and score the outcome on a four-part,
// lc3tools-style points rubric:
//
//   feasibility  30 pts  max constraint residual over every cell-tick
//                        (power nonnegativity, budget, assignment validity)
//   SLA          30 pts  fraction of (cell, tick, slice) commitments met:
//                        a slice's aggregate rate reaches floor x population
//                        (eMBB/URLLC); mMTC's commitment is access (the cell
//                        answered through the chain, not a deadline fill)
//   deadline     20 pts  fraction of cell-ticks answered by the chain head
//                        (cache hit or converged ADMM — no degradation)
//   soundness    20 pts  all-or-nothing: every answer must be finite and
//                        full length, and a chain step below the head may
//                        answer only after the steps above it failed or were
//                        skipped -- read from the typed CellAllocation record
//                        (served and the chain run's step records), never
//                        from text
//
// A scenario's verdict is kUnsound the moment any degradation breaks the
// soundness contract (the fleet gate: zero unsound verdicts on the seed
// solvers), kFail on a hard feasibility or SLA collapse, kPass at full
// points, and kDegraded otherwise.
//
// Grading is deterministic: the service runs without a wall-clock deadline,
// fault fragments are restricted to keyed serve.* sites, and the report
// carries no timestamps — the same fleet seed serializes to a byte-identical
// scn_report.json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rcr/scn/scenario.hpp"
#include "rcr/serve/service.hpp"

namespace rcr::scn {

enum class Verdict { kPass, kDegraded, kFail, kUnsound };

const char* to_string(Verdict verdict);

/// Rubric weights (points per dimension; total 100).
inline constexpr double kFeasibilityPoints = 30.0;
inline constexpr double kSlaPoints = 30.0;
inline constexpr double kDeadlinePoints = 20.0;
inline constexpr double kSoundnessPoints = 20.0;

/// Scored outcome of one scenario replay.
struct ScenarioVerdict {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  Verdict verdict = Verdict::kPass;
  double points = 0.0;  ///< 0..100.

  double feasibility_residual = 0.0;  ///< Max violation over cell-ticks.
  double sla_satisfaction = 1.0;      ///< Fraction of slice commitments met.
  double deadline_hit_rate = 1.0;     ///< Head-answered cell-tick fraction.
  std::size_t unsound_degradations = 0;

  std::size_t cell_ticks = 0;
  std::size_t sla_checks = 0;   ///< (cell, tick, slice) commitments scored.
  std::size_t cache_hits = 0;
  std::size_t warm_accepted = 0;
  std::size_t degraded = 0;     ///< Cell-ticks answered below the head.
  std::size_t deadline_fills = 0;
  double fleet_sum_rate = 0.0;  ///< Final-tick fleet sum rate.
  std::uint64_t solution_hash = 0;  ///< Final tick's determinism witness.

  /// Per-class breakdowns, indexed by ServiceClass order (eMBB, URLLC,
  /// mMTC); 1.0 when the class is absent.  sla_by_class is the fraction of
  /// that class's commitments met; fresh_by_class is the fraction of its
  /// cell-ticks served fresh (not from a snapshot/shed/quarantine path) and
  /// is only meaningful on overload legs.
  double sla_by_class[3] = {1.0, 1.0, 1.0};
  double fresh_by_class[3] = {1.0, 1.0, 1.0};

  std::string detail;  ///< Empty on kPass; first failure line otherwise.
};

/// Grading knobs.  The default service configuration is the deterministic
/// production shape: warm starts + cache on, no wall-clock deadline.
struct GraderOptions {
  serve::ServiceConfig service;
  SlaPolicy sla;
  /// Feasibility residual above which the verdict is kFail outright.
  double fail_residual = 1e-6;
  /// SLA satisfaction below which the verdict is kFail outright.
  double fail_sla = 0.25;
};

/// Overload scoring: true when some cell A was involuntarily served stale
/// (deferred/shed by admission *policy*, not an injected fault) while a
/// strictly lower-priority cell B was served fresh in the same tick --
/// admission inverted the slice priority order, which grades kUnsound.
/// `ranks` are priority_rank values (lower = higher priority).
bool priority_inversion(const std::vector<std::size_t>& ranks,
                        const std::vector<bool>& fresh,
                        const std::vector<bool>& involuntary);

/// Replay `spec` through an AllocationService and score it.  Installs the
/// spec's fault fragment (seeded by spec.seed) for the duration of the
/// replay; throws std::invalid_argument when the fragment names non-serve
/// sites (counter-keyed streams would make parallel replays nondeterministic).
/// A spec with overload != kNone derives the serve overload layer
/// (admission control, breakers, watchdog, and -- on the brownout leg --
/// the brownout controller) on top of options.service.
ScenarioVerdict grade_scenario(const ScenarioSpec& spec,
                               const GraderOptions& options = {});

/// Fleet-level aggregation.
struct FleetReport {
  std::uint64_t fleet_seed = 0;
  std::vector<ScenarioVerdict> verdicts;
  std::size_t passed = 0;
  std::size_t degraded = 0;
  std::size_t failed = 0;
  std::size_t unsound = 0;
  double mean_points = 0.0;
  double mean_sla = 0.0;
  double min_points = 0.0;
};

/// Aggregate verdicts, in fleet order, into a FleetReport.
FleetReport summarize_fleet(std::vector<ScenarioVerdict> verdicts,
                            std::uint64_t fleet_seed);

/// Grade every scenario in order (sequentially — fault installation is
/// process-global; the per-scenario service still fans cells out across the
/// pool) and aggregate.
FleetReport grade_fleet(const std::vector<ScenarioSpec>& fleet,
                        std::uint64_t fleet_seed,
                        const GraderOptions& options = {});

/// Machine-readable report (deterministic: no clocks, fixed formatting).
/// Schema: {"fleet_seed", "scenarios", "verdicts": {pass, degraded, fail,
/// unsound}, "mean_points", "mean_sla", "min_points", "results": [...]}.
std::string report_json(const FleetReport& report,
                        const std::vector<ScenarioSpec>& fleet);

/// Write report_json to `path`; returns false on I/O failure.
bool write_report(const FleetReport& report,
                  const std::vector<ScenarioSpec>& fleet,
                  const std::string& path);

}  // namespace rcr::scn
