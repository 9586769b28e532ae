// Declarative fallback chains: degrade to a looser-but-sound solver instead
// of failing the request.
//
// The paper's Sec. IV-C relaxation ladder (QCQP -> RMP -> TMP -> SDP) and
// the verify/ hierarchy (CROWN -> IBP) share one shape: an ordered list of
// solvers, tight first, each of which may fail at runtime; the first fully
// successful step answers, and if none succeeds the first *usable* degraded
// answer does.  The executor keeps a typed record per step (not run,
// skipped, failed or won, with the step's StatusCode) and the index of the
// winning step, and tags the final answer with the soundness level of the
// step that produced it.  The status trail is the human audit text of the
// same run; consumers that decide anything read the records, never the trail.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "rcr/obs/obs.hpp"
#include "rcr/robust/budget.hpp"
#include "rcr/robust/status.hpp"

namespace rcr::robust {

/// What one chain step did on one run.
enum class StepOutcome : std::uint8_t {
  kNotRun,   ///< Never reached: an earlier step won or the deadline fired.
  kSkipped,  ///< Its gate returned a reason; the step did not execute.
  kFailed,   ///< Executed without full success (a banked answer included).
  kWon,      ///< Executed, fully succeeded and answered.
};

/// Typed record of one step: its outcome and, once it executed, the code of
/// the Result it returned.
struct StepRecord {
  StepOutcome outcome = StepOutcome::kNotRun;
  StatusCode code = StatusCode::kOk;
};

/// Steps one chain may hold; the steps and the per-step records are fixed
/// arrays, so building and running a chain allocates nothing for them.
/// add() past this throws.
inline constexpr std::size_t kMaxChainSteps = 4;

/// One chain run's records, a record per step in add() order.
using StepRecords = std::array<StepRecord, kMaxChainSteps>;

/// Steps that failed or were skipped, a banked winner's own failure
/// included: how far the run fell through the chain.
inline std::size_t fallthrough(const StepRecords& records) {
  std::size_t n = 0;
  for (const StepRecord& r : records)
    if (r.outcome == StepOutcome::kFailed || r.outcome == StepOutcome::kSkipped)
      ++n;
  return n;
}

/// `ChainOutcome::winner` when no step produced the value.
inline constexpr std::size_t kNoWinner = static_cast<std::size_t>(-1);

/// Outcome of running a chain.
template <typename T>
struct ChainOutcome {
  T value{};
  Status status;           ///< Aggregated; trail is the audit text.
  const char* step = "";   ///< Name of the winning step ("" when none).
  Soundness soundness = Soundness::kHeuristic;  ///< Of the winning step.
  std::size_t attempts = 0;  ///< Steps actually executed.
  /// Index (in add() order) of the step that produced `value`.  A banked
  /// usable-but-degraded answer keeps its kFailed record and is still the
  /// winner; kNoWinner when nothing usable was produced.
  std::size_t winner = kNoWinner;
  StepRecords records{};

  /// robust::fallthrough of this run's records.
  std::size_t fallthrough() const { return robust::fallthrough(records); }
};

/// Ordered list of solver attempts, tightest first.
template <typename T>
class FallbackChain {
 public:
  using StepFn = std::function<Result<T>()>;
  /// Pre-run gate: nullptr/absent = always run; otherwise return nullptr to
  /// run the step or a static-ish reason string ("breaker open") to skip it.
  using GateFn = std::function<const char*()>;

  /// `name` labels this chain in metrics/traces
  /// (rcr.fallback.degraded{chain=name}); it must have static storage
  /// duration -- every in-tree chain passes a string literal.  Step names
  /// follow the same rule.
  explicit FallbackChain(const char* name = "unnamed") : name_(name) {}

  const char* name() const { return name_; }

  /// Append a step.  Steps run in insertion order.  Throws
  /// std::length_error past kMaxChainSteps.
  FallbackChain& add(const char* name, Soundness soundness, StepFn run) {
    return add_gated(name, soundness, nullptr, std::move(run));
  }

  /// Append a gated step: `gate` is consulted before each run, and a
  /// non-null reason skips the step without executing it (no attempt, no
  /// degradation counter -- a skip is a policy decision, not a failure).
  /// Circuit breakers plug in here.
  FallbackChain& add_gated(const char* name, Soundness soundness, GateFn gate,
                           StepFn run) {
    if (size_ == kMaxChainSteps)
      throw std::length_error("FallbackChain: more than kMaxChainSteps steps");
    steps_[size_++] = Step{name, soundness, std::move(gate), std::move(run)};
    return *this;
  }

  std::size_t size() const { return size_; }

  /// Execute: first step whose Result is fully ok wins.  A usable-but-
  /// degraded result is banked and returned (code kDegraded) only when no
  /// later step fully succeeds.  When the deadline fires between steps the
  /// remaining steps are not run.  When nothing usable was produced the
  /// outcome is kFallbackExhausted and `value` is default-constructed.
  ChainOutcome<T> run(const Deadline& deadline = Deadline()) const {
    obs::Span span("fallback.run");
    span.attr_str("chain", name_);
    ChainOutcome<T> out = run_impl(deadline);
    span.attr("attempts", static_cast<double>(out.attempts));
    span.attr("degraded",
              out.status.code == StatusCode::kOk ? 0.0 : 1.0);
    if (out.winner != kNoWinner) span.attr_str("step", out.step);
    // Depth taken by this solve: 1 = the tight head answered, deeper values
    // mean degradation (Prometheus: rcr_fallback_depth{chain=...}).  The
    // degradation *counters* above tick per failed step; this gauge makes
    // the depth of the most recent solve visible directly.
    obs::gauge_set("rcr.fallback.depth", "chain", name_,
                   static_cast<double>(out.attempts));
    return out;
  }

 private:
  ChainOutcome<T> run_impl(const Deadline& deadline) const {
    ChainOutcome<T> out;
    std::size_t banked = kNoWinner;

    for (std::size_t i = 0; i < size_; ++i) {
      const Step& step = steps_[i];
      if (deadline.expired()) {
        out.status.note(std::string("deadline expired before step '") +
                        step.name + "'");
        break;
      }
      if (step.gate) {
        if (const char* reason = step.gate()) {
          // Skipped, not failed: no attempt, no degradation counter.  The
          // trail still notes the decision for the audit.
          out.records[i].outcome = StepOutcome::kSkipped;
          out.status.note(std::string("step '") + step.name + "' skipped (" +
                          reason + ")");
          obs::counter_add("rcr.fallback.skipped", "chain", name_);
          continue;
        }
      }
      ++out.attempts;
      Result<T> r = step.run();
      out.records[i].code = r.status.code;
      if (r.status.ok()) {
        out.records[i].outcome = StepOutcome::kWon;
        out.value = std::move(r.value);
        set_winner(out, i);
        // A first-step clean win is kOk; anything later is a degradation.
        if (i > 0 || !out.status.trail.empty())
          out.status.code = StatusCode::kDegraded;
        return out;
      }
      out.records[i].outcome = StepOutcome::kFailed;
      out.status.note(std::string("step '") + step.name + "' failed (" +
                      r.status.to_string() + ")");
      // One degradation step == one counter increment (chaos contract).
      obs::counter_add("rcr.fallback.degraded", "chain", name_);
      obs::instant("fallback.degraded", "chain", name_);
      if (r.status.usable() && banked == kNoWinner) {
        out.value = std::move(r.value);
        banked = i;
      }
    }

    if (banked != kNoWinner) {
      set_winner(out, banked);
      out.status.code = StatusCode::kDegraded;
      out.status.detail =
          std::string("no step fully converged; returning usable result "
                      "from '") +
          out.step + "' (" + to_string(out.records[banked].code) + ")";
      return out;
    }

    out.status.code = StatusCode::kFallbackExhausted;
    out.status.detail = "every fallback step failed";
    return out;
  }

  void set_winner(ChainOutcome<T>& out, std::size_t i) const {
    out.winner = i;
    out.step = steps_[i].name;
    out.soundness = steps_[i].soundness;
  }

  struct Step {
    const char* name = "";
    Soundness soundness = Soundness::kHeuristic;
    GateFn gate;  ///< Optional; non-null reason skips the step.
    StepFn run;
  };
  const char* name_;
  std::array<Step, kMaxChainSteps> steps_;  ///< The first size_ are live.
  std::size_t size_ = 0;
};

}  // namespace rcr::robust
