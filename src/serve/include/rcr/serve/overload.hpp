// Overload-control primitives for the allocation service (DESIGN.md §15):
// slice-aware admission planning, the brownout hysteresis state machine, and
// per-solver circuit breakers.
//
// Everything here is deliberately *pure state + tick arithmetic*: admission
// plans are computed serially at the tick boundary from per-cell gate inputs,
// breakers advance on tick counts owned by exactly one cell's solve task, and
// the brownout controller observes only deterministic per-tick aggregates
// (degraded fraction, mean fallback depth), never the wall clock.  That keeps
// every admit/defer/shed decision bit-exact across RCR_THREADS and
// replayable from a scenario seed.
#pragma once

#include <cstdint>
#include <vector>

#include "rcr/qos/slicing.hpp"

namespace rcr::serve {

/// Priority rank of a service class under admission pressure: URLLC (0)
/// outranks eMBB (1) outranks mMTC (2).  Lower rank admits first.
std::size_t priority_rank(qos::ServiceClass service);

/// Slice-aware admission control at the tick boundary.
struct AdmissionConfig {
  bool enabled = false;  ///< Off: every cell is admitted every tick.
  /// Per-tick compute budget in cell solves; 0 = unlimited.
  std::size_t max_solves_per_tick = 0;
  /// A deferred cell whose allocation is older than this many ticks is
  /// accounted as shed (its freshness guarantee is gone), not deferred.
  std::size_t max_stale_ticks = 8;
  /// Priority class per cell (indexed modulo its size); empty = one class.
  std::vector<qos::ServiceClass> cell_slices;
};

/// What the tick boundary decided for one cell.
enum class AdmitDecision {
  kAdmit,       ///< Run the solve chain this tick.
  kDefer,       ///< Reuse the last-known-good allocation (kSnapshot).
  kShed,        ///< Dropped by budget/staleness/injection (kShedFill).
  kQuarantine,  ///< Watchdog quarantine: served from snapshot.
};

/// Per-cell inputs to the planner, assembled serially by the service.
struct CellGate {
  std::size_t rank = 1;       ///< priority_rank of the cell's slice.
  std::size_t staleness = 0;  ///< Ticks since the cell last solved fresh.
  bool quarantined = false;   ///< Watchdog quarantine window still open.
};

/// Planner knobs for one tick.
struct AdmissionInputs {
  std::uint64_t tick = 0;
  std::size_t budget = 0;          ///< Cell solves this tick; 0 = unlimited.
  std::size_t max_stale_ticks = 8;
  bool admission_enabled = false;  ///< Apply budget + serve.admit.shed site.
  bool shed_lowest = false;        ///< Brownout SHED: only the top priority
                                   ///< class present is admitted.
  bool full_shed = false;          ///< Tick deadline already expired: every
                                   ///< cell is shed outright.
};

/// The tick's admission plan.
struct AdmissionPlan {
  std::vector<AdmitDecision> decisions;  ///< One per cell.
  /// Cells shed by an injected serve.admit.shed fault (exempt from the
  /// grader's priority-inversion check -- the shed is a fault, not policy).
  std::vector<bool> injected;
  std::size_t admitted = 0;
  std::size_t deferred = 0;
  std::size_t shed = 0;
  std::size_t quarantined = 0;
};

/// Compute the admission plan for one tick.  Deterministic: ordering is
/// (rank asc, staleness desc, cell index asc) and the serve.admit.shed fault
/// site is keyed by the cell stamp (tick * cells + cell).  Called serially.
AdmissionPlan plan_admission(const std::vector<CellGate>& cells,
                             const AdmissionInputs& in);

/// The same plan written into `plan`, every field overwritten and its
/// vectors' storage reused: a service that keeps one plan from tick to tick
/// plans without allocating.
void plan_admission(const std::vector<CellGate>& cells,
                    const AdmissionInputs& in, AdmissionPlan& plan);

/// Brownout hysteresis state machine: NORMAL -> BROWNOUT -> SHED.
enum class BrownoutState { kNormal = 0, kBrownout = 1, kShed = 2 };

const char* to_string(BrownoutState state);

struct BrownoutConfig {
  bool enabled = false;
  double enter_brownout = 0.5;  ///< Pressure at which NORMAL -> BROWNOUT.
  double enter_shed = 0.9;      ///< Pressure at which BROWNOUT -> SHED.
  std::size_t enter_ticks = 2;  ///< Consecutive ticks above to escalate.
  std::size_t exit_ticks = 3;   ///< Consecutive ticks below to recover.
  /// ADMM iteration-cap scale applied while in BROWNOUT (cheaper head).
  double brownout_iteration_factor = 0.25;
};

/// A state is left once pressure stays below its entry threshold times
/// this margin for exit_ticks ticks.
inline constexpr double kBrownoutExitMargin = 0.5;

/// Owned by the service driver thread; observe() runs serially at the end of
/// each tick and the state is read serially at the start of the next.
class BrownoutController {
 public:
  BrownoutController() = default;
  explicit BrownoutController(const BrownoutConfig& config)
      : config_(config) {}

  BrownoutState state() const { return state_; }

  /// Feed one tick's pressure signals: `degraded_fraction` and `mean_depth`
  /// (mean fallback-chain depth, 1.0 = every head answered).
  void observe(double degraded_fraction, double mean_depth);

  std::uint64_t transitions() const { return transitions_; }
  /// Ticks observed while in `state` (dwell time).
  std::uint64_t dwell(BrownoutState state) const {
    return dwell_[static_cast<std::size_t>(state)];
  }

 private:
  void transition(BrownoutState next);

  BrownoutConfig config_;
  BrownoutState state_ = BrownoutState::kNormal;
  std::size_t above_ = 0;
  std::size_t below_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t dwell_[3] = {0, 0, 0};
};

/// Per-solver circuit breaker: closed / open / half-open with deterministic
/// tick-count backoff.  One instance per (cell, solver stage), owned by the
/// task that solves the cell, so no cross-thread state is shared.
struct BreakerConfig {
  bool enabled = false;
};

/// Consecutive failures that open a closed breaker.
inline constexpr std::size_t kBreakerFailureThreshold = 3;
/// First open window, in ticks.
inline constexpr std::size_t kBreakerOpenTicks = 8;
/// Cap of the open window as failed probes double it.
inline constexpr std::size_t kBreakerMaxOpenTicks = 64;

struct CircuitBreaker {
  std::size_t failures = 0;        ///< Consecutive failures while closed.
  std::uint64_t open_until = 0;    ///< Blocked while tick < open_until.
  std::size_t backoff = 0;         ///< Current open window (0 = never tripped).
  std::uint64_t trips = 0;         ///< Times the breaker opened/re-opened.
  bool awaiting_probe = false;     ///< Open: next allowed tick is a probe.

  /// Step gate: true while the open window is still running.
  bool blocked(std::uint64_t tick) const { return tick < open_until; }
  /// The stage ran clean: close (half-open probe success recovers fully).
  void record_success();
  /// The stage failed at `tick`: trip after kBreakerFailureThreshold
  /// consecutive failures; a failed half-open probe re-opens with doubled
  /// backoff.
  void record_failure(std::uint64_t tick);
};

/// Watchdog: a cell whose solve output is non-finite is quarantined and
/// served from its last-known-good snapshot for quarantine_ticks ticks.
struct WatchdogConfig {
  bool enabled = false;
  std::size_t quarantine_ticks = 4;
};

}  // namespace rcr::serve
