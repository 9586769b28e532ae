#include "rcr/serve/overload.hpp"

#include <algorithm>

#include "rcr/obs/metrics.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/scratch_arena.hpp"

namespace rcr::serve {

std::size_t priority_rank(qos::ServiceClass service) {
  switch (service) {
    case qos::ServiceClass::kUrllc:
      return 0;
    case qos::ServiceClass::kEmbb:
      return 1;
    case qos::ServiceClass::kMmtc:
      return 2;
  }
  return 1;
}

AdmissionPlan plan_admission(const std::vector<CellGate>& cells,
                             const AdmissionInputs& in) {
  AdmissionPlan plan;
  plan_admission(cells, in, plan);
  return plan;
}

void plan_admission(const std::vector<CellGate>& cells,
                    const AdmissionInputs& in, AdmissionPlan& plan) {
  const std::size_t n = cells.size();
  plan.decisions.assign(n, AdmitDecision::kAdmit);
  plan.injected.assign(n, false);
  plan.admitted = 0;
  plan.deferred = 0;
  plan.shed = 0;
  plan.quarantined = 0;

  if (in.full_shed) {
    // Deadline gone before the tick even started: nothing solves, every
    // cell answers from its snapshot.
    std::fill(plan.decisions.begin(), plan.decisions.end(),
              AdmitDecision::kShed);
    plan.shed = n;
    return;
  }

  for (std::size_t c = 0; c < n; ++c) {
    if (cells[c].quarantined) {
      plan.decisions[c] = AdmitDecision::kQuarantine;
      ++plan.quarantined;
    }
  }

  if (!in.admission_enabled && !in.shed_lowest) {
    plan.admitted = n - plan.quarantined;
    return;
  }

  // Deterministic admit order: highest priority first, then the most stale
  // (their last-known-good answer ages worst), then cell index as the final
  // total-order tiebreak.  The order is total, so an unstable sort over
  // arena storage gives the one order there is.
  rt::ScratchArena& arena = rt::tls_arena();
  const auto arena_scope = arena.scope();
  std::size_t* order = arena.alloc<std::size_t>(n);
  std::size_t ordered = 0;
  for (std::size_t c = 0; c < n; ++c)
    if (!cells[c].quarantined) order[ordered++] = c;
  std::sort(order, order + ordered, [&](std::size_t a, std::size_t b) {
    if (cells[a].rank != cells[b].rank) return cells[a].rank < cells[b].rank;
    if (cells[a].staleness != cells[b].staleness)
      return cells[a].staleness > cells[b].staleness;
    return a < b;
  });

  const std::size_t top_rank = ordered == 0 ? 0 : cells[order[0]].rank;
  std::size_t taken = 0;
  for (std::size_t k = 0; k < ordered; ++k) {
    const std::size_t c = order[k];
    const bool over_budget = in.budget > 0 && taken >= in.budget;
    const bool below_top = in.shed_lowest && cells[c].rank != top_rank;
    if (!over_budget && !below_top) {
      // The admission path itself is a fault target: a firing
      // serve.admit.shed drops an otherwise-admitted cell.  Keyed by the
      // cell stamp so parallel replays stay deterministic.
      if (in.admission_enabled &&
          robust::faults::should_inject("serve.admit.shed",
                                        in.tick * n + c)) {
        plan.decisions[c] = AdmitDecision::kShed;
        plan.injected[c] = true;
        ++plan.shed;
        continue;
      }
      plan.decisions[c] = AdmitDecision::kAdmit;
      ++plan.admitted;
      ++taken;
      continue;
    }
    if (cells[c].staleness >= in.max_stale_ticks) {
      plan.decisions[c] = AdmitDecision::kShed;
      ++plan.shed;
    } else {
      plan.decisions[c] = AdmitDecision::kDefer;
      ++plan.deferred;
    }
  }
}

const char* to_string(BrownoutState state) {
  switch (state) {
    case BrownoutState::kNormal:
      return "normal";
    case BrownoutState::kBrownout:
      return "brownout";
    case BrownoutState::kShed:
      return "shed";
  }
  return "normal";
}

void BrownoutController::transition(BrownoutState next) {
  if (next == state_) return;
  state_ = next;
  above_ = 0;
  below_ = 0;
  ++transitions_;
  obs::counter_add("rcr.brownout.transitions");
  obs::gauge_set("rcr.brownout.state", "state", to_string(state_),
                 static_cast<double>(static_cast<int>(state_)));
}

void BrownoutController::observe(double degraded_fraction,
                                 double mean_depth) {
  if (!config_.enabled) return;
  ++dwell_[static_cast<std::size_t>(state_)];

  double pressure = degraded_fraction;
  // mean_depth == 1 means every chain head answered; each extra fallback
  // step across the fleet is load the cheap heads should be absorbing.
  pressure = std::max(pressure, (mean_depth - 1.0) * 0.5);

  switch (state_) {
    case BrownoutState::kNormal:
      if (pressure >= config_.enter_brownout) {
        below_ = 0;
        if (++above_ >= config_.enter_ticks)
          transition(BrownoutState::kBrownout);
      } else {
        above_ = 0;
      }
      break;
    case BrownoutState::kBrownout:
      if (pressure >= config_.enter_shed) {
        below_ = 0;
        if (++above_ >= config_.enter_ticks) transition(BrownoutState::kShed);
      } else if (pressure < config_.enter_brownout * kBrownoutExitMargin) {
        above_ = 0;
        if (++below_ >= config_.exit_ticks) transition(BrownoutState::kNormal);
      } else {
        above_ = 0;
        below_ = 0;
      }
      break;
    case BrownoutState::kShed:
      if (pressure < config_.enter_shed * kBrownoutExitMargin) {
        if (++below_ >= config_.exit_ticks)
          transition(BrownoutState::kBrownout);
      } else {
        below_ = 0;
      }
      break;
  }
}

void CircuitBreaker::record_success() {
  failures = 0;
  if (awaiting_probe) {
    // Half-open probe succeeded: fully close and forget the backoff.
    awaiting_probe = false;
    backoff = 0;
    obs::counter_add("rcr.breaker.closed");
  }
}

void CircuitBreaker::record_failure(std::uint64_t tick) {
  if (awaiting_probe) {
    // Failed half-open probe: re-open with doubled (capped) backoff.
    backoff = std::min(backoff == 0 ? kBreakerOpenTicks : backoff * 2,
                       kBreakerMaxOpenTicks);
    open_until = tick + 1 + backoff;
    ++trips;
    obs::counter_add("rcr.breaker.opened");
    return;
  }
  if (++failures >= kBreakerFailureThreshold) {
    failures = 0;
    backoff = backoff == 0 ? kBreakerOpenTicks
                           : std::min(backoff, kBreakerMaxOpenTicks);
    open_until = tick + 1 + backoff;
    awaiting_probe = true;
    ++trips;
    obs::counter_add("rcr.breaker.opened");
  }
}

}  // namespace rcr::serve
