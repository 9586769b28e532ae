#include "rcr/serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "rcr/learn/qp.hpp"
#include "rcr/obs/obs.hpp"
#include "rcr/robust/fallback.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/scratch_arena.hpp"
#include "rcr/rt/simd.hpp"

namespace rcr::serve {

namespace {

/// Write power[i] = max(0, value(i)) (a NaN stays) and return the factor
/// that scales `power` to sum to `budget` (1 when it sums to <= 0: nothing
/// to scale).  The total adds in the four-lane order of
/// rt::simd::SweepSums; the scaling itself is Kernels::scaled_rate's.
template <typename Value>
double budget_scale(double* power, std::size_t n, double budget,
                    Value value) {
  const auto clamped = [&](std::size_t i) {
    const double p = value(i);
    return power[i] = p < 0.0 ? 0.0 : p;
  };
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += clamped(i);
    l1 += clamped(i + 1);
    l2 += clamped(i + 2);
    l3 += clamped(i + 3);
  }
  double total = (l0 + l1) + (l2 + l3);
  for (; i < n; ++i) total += clamped(i);
  return total <= 0.0 ? 1.0 : budget / total;
}

/// The serve.cell chain's steps, in chain order: a run whose winner is step
/// i was served as kChainSteps[i].
constexpr Served kChainSteps[] = {Served::kAdmm, Served::kWaterfill,
                                  Served::kEqualPower};

/// Record how `alloc` was served; `step` is only ever written here.
void serve_as(CellAllocation& alloc, Served served) {
  alloc.served = served;
  alloc.step = to_string(served);
}

/// True when `v` is finite and positive.
bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

/// A serve.cell step's answer.  The assignment is always the cell's
/// best-gain one, so only the power vector, the head's iteration record
/// and the sum rate the head's finish computed travel through the chain.
struct StepAnswer {
  Vec power;
  std::size_t iterations = 0;
  opt::WarmUse warm_use = opt::WarmUse::kCold;
  double sum_rate = 0.0;  ///< Set by the head only.
};

}  // namespace

namespace detail {

/// Indices into kTickStages.
enum Stage : std::size_t {
  kStageAdmission,
  kStageAssignment,
  kStageSignatureCache,
  kStageHead,
  kStageFallback,
  kStageSnapshot,
  kStageReport,
  kStageFanout,
  kStageCount
};
static_assert(std::size(kTickStages) == kStageCount);

/// The lap timer behind rcr.serve.stage_ns: lap(s) charges the time since
/// the previous lap (or construction) to stage s.  Built while the metrics
/// registry is unarmed, it reads no clock and observes nothing.
class StageClock {
 public:
  using Clock = std::chrono::steady_clock;

  StageClock() : armed_(obs::metrics_enabled()) {
    if (armed_) last_ = Clock::now();
  }

  void lap(Stage stage) {
    if (!armed_) return;
    const Clock::time_point now = Clock::now();
    ns_[stage] += std::chrono::duration<double, std::nano>(now - last_).count();
    last_ = now;
  }

  /// Take `ns` back from `stage` (the fan-out's lap holds the calling
  /// thread's own group stages, which observe themselves).
  void discount(Stage stage, double ns) { ns_[stage] -= ns; }

  /// Observe every stage that ran; returns their sum.
  double observe() const {
    double total = 0.0;
    if (!armed_) return total;
    for (std::size_t s = 0; s < kStageCount; ++s) {
      if (ns_[s] <= 0.0) continue;
      obs::histogram_observe("rcr.serve.stage_ns", "stage", kTickStages[s],
                             ns_[s]);
      total += ns_[s];
    }
    return total;
  }

 private:
  bool armed_;
  Clock::time_point last_{};
  double ns_[kStageCount] = {};
};

/// The stage time this thread's fan-out groups observed, summed; the
/// thread that called tick() subtracts its own groups' share from the
/// fan-out's lap.
thread_local double t_group_stage_ns = 0.0;

}  // namespace detail

bool is_head(Served served) {
  return served == Served::kAdmm || served == Served::kCache;
}

bool servable(const CellAllocation& alloc) {
  if (std::isnan(alloc.sum_rate) ||
      alloc.sum_rate == -std::numeric_limits<double>::infinity())
    return false;
  for (double p : alloc.power)
    if (!std::isfinite(p)) return false;
  return true;
}

std::uint64_t solution_hash(std::span<const CellAllocation> cells) {
  constexpr std::size_t kChains = kSignatureChains;
  std::uint64_t hash = kHashBasis;
  for (std::size_t c0 = 0; c0 < cells.size(); c0 += kChains) {
    const std::size_t m = std::min(kChains, cells.size() - c0);
    std::uint64_t h[kChains];
    const std::size_t* users[kChains];
    const double* power[kChains];
    std::size_t n_users[kChains];
    std::size_t n_power[kChains];
    for (std::size_t j = 0; j < m; ++j) {
      const CellAllocation& a = cells[c0 + j];
      users[j] = a.assignment.data();
      power[j] = a.power.data();
      n_users[j] = a.assignment.size();
      n_power[j] = a.power.size();
      h[j] = mix_word(mix_word(kHashBasis, n_users[j]), n_power[j]);
    }
    mix_chains(h, m, users, n_users);
    mix_chains(h, m, power, n_power);
    for (std::size_t j = 0; j < m; ++j) hash = mix_word(hash, h[j]);
  }
  return hash;
}

namespace detail {

void store_answer(const CellAllocation& alloc, CachedAnswer& entry) {
  entry.power = alloc.power;
  entry.sum_rate = alloc.sum_rate;
  entry.records = alloc.records;
  entry.warm_use = alloc.warm_use;
}

bool restore_answer(const CachedAnswer& entry,
                    const qos::Assignment& assignment, CellAllocation& out) {
  if (entry.power.size() != assignment.size()) return false;
  out.assignment = assignment;
  out.power = entry.power;
  out.sum_rate = entry.sum_rate;
  out.iterations = 0;
  out.warm_use = entry.warm_use;
  serve_as(out, Served::kCache);
  out.records = entry.records;
  out.injected = false;
  return true;
}

}  // namespace detail

const char* to_string(Served served) {
  switch (served) {
    case Served::kCache:
      return "cache";
    case Served::kAdmm:
      return "admm";
    case Served::kWaterfill:
      return "waterfill";
    case Served::kEqualPower:
      return "equal-power";
    case Served::kDeadlineFill:
      return "deadline-fill";
    case Served::kSnapshot:
      return "snapshot";
    case Served::kShedFill:
      return "shed-fill";
    case Served::kQuarantine:
      return "quarantine";
  }
  return "unknown";
}

AllocationService::AllocationService(const ServiceConfig& config,
                                     std::size_t num_cells)
    : config_(config),
      cache_(config.cache_capacity, config.cache_shards),
      warm_(num_cells),
      scratch_(num_cells),
      current_(num_cells),
      runtime_(num_cells),
      gates_(num_cells),
      brownout_(config.brownout) {
  if (num_cells == 0)
    throw std::invalid_argument("AllocationService: zero cells");
  // Both scale the head's power QP; with them finite and positive the
  // structured factor declines only a non-finite gain.
  if (!finite_positive(config.budget_penalty))
    throw std::invalid_argument(
        "AllocationService: budget_penalty must be finite and > 0");
  if (!finite_positive(config.admm_rho))
    throw std::invalid_argument(
        "AllocationService: admm_rho must be finite and > 0");
}

void AllocationService::serve_group(std::size_t c0, std::size_t c1,
                                    std::uint64_t tick,
                                    const AdmissionPlan& plan,
                                    const robust::Deadline& deadline,
                                    const ProblemFn& problem_of) {
  const std::size_t cells = warm_.size();
  detail::StageClock clock;
  rt::ScratchArena& arena = rt::tls_arena();
  const auto arena_scope = arena.scope();

  // Assignments, then the signatures of the admitted cells, whose chains
  // advance together.
  const std::size_t span = c1 - c0;
  const RraProblem** cell_problems = arena.alloc<const RraProblem*>(span);
  const RraProblem** problems = arena.alloc<const RraProblem*>(span);
  const qos::Assignment** assignments =
      arena.alloc<const qos::Assignment*>(span);
  std::uint64_t* sigs = arena.alloc<std::uint64_t>(span);
  std::size_t keyed = 0;
  for (std::size_t c = c0; c < c1; ++c) {
    const RraProblem& problem = problem_of(c);
    cell_problems[c - c0] = &problem;
    if (plan.decisions[c] != AdmitDecision::kAdmit) continue;
    qos::best_gain_assignment(problem, scratch_[c].assignment,
                              scratch_[c].gains);
    problems[keyed] = &problem;
    assignments[keyed] = &scratch_[c].assignment;
    sigs[keyed] = 0;
    ++keyed;
  }
  clock.lap(detail::kStageAssignment);
  // The signature only keys the cache: a cache-off service never needs it.
  if (config_.cache_enabled && keyed > 0)
    problem_signatures({problems, keyed}, {assignments, keyed},
                       config_.signature, {sigs, keyed});
  clock.lap(detail::kStageSignatureCache);

  std::size_t k = 0;
  for (std::size_t c = c0; c < c1; ++c) {
    const RraProblem& problem = *cell_problems[c - c0];
    if (plan.decisions[c] == AdmitDecision::kAdmit) {
      solve_cell(problem, c, tick, tick * cells + c, sigs[k++], deadline,
                 clock);
    } else {
      serve_from_snapshot(problem, c, plan.decisions[c], plan.injected[c]);
      clock.lap(detail::kStageSnapshot);
    }
  }
  detail::t_group_stage_ns += clock.observe();
}

void AllocationService::solve_cell(const RraProblem& problem,
                                   std::size_t cell, std::uint64_t tick,
                                   std::uint64_t stamp, std::uint64_t sig,
                                   const robust::Deadline& deadline,
                                   detail::StageClock& clock) {
  // Injection decisions are keyed by the deterministic cell stamp: cells
  // solve on pool threads in schedule-dependent order, and a counter-keyed
  // stream would make which cell degrades depend on that schedule.
  namespace faults = robust::faults;
  CellScratch& work = scratch_[cell];
  CellAllocation& alloc = current_[cell];
  if (config_.cache_enabled &&
      !faults::should_inject("serve.cache.drop", stamp) &&
      cache_.get(sig, stamp, work.entry) &&
      detail::restore_answer(work.entry, work.assignment, alloc)) {
    clock.lap(detail::kStageSignatureCache);
    return;
  }
  clock.lap(detail::kStageSignatureCache);

  auto arena_scope = rt::tls_arena().scope();
  const std::size_t n = problem.num_rbs();
  const double budget = problem.total_power;
  // work.gains holds the assigned gains from the assignment's scan.

  // Power model: second-order Taylor expansion of -sum log2(1 + g p) around
  // the equal split p0 = budget / n, in the step variable d = p - p0:
  //   P = diag(g^2 / (ln2 (1 + g p0)^2)) + 2 lambda 1 1^T
  //   q = -g / (ln2 (1 + g p0))
  // with a soft penalty lambda (1^T d)^2 holding the total at the budget and
  // the box d in [-p0, budget - p0] keeping p nonnegative and bounded.
  // P is kept as its diagonal P_ii = curv_i + 2 lambda and the common
  // off-diagonal 2 lambda, and is never formed.
  const double p0 = budget / static_cast<double>(n);
  double* p_diag = rt::tls_arena().alloc<double>(n);
  work.q.resize(n);
  work.lo.assign(n, -p0);
  work.hi.assign(n, budget - p0);
  const double max_curv = learn::power_qp_coeffs(work.gains.data(), n, p0,
                                                 p_diag, work.q.data());
  const double lambda =
      config_.budget_penalty * (max_curv > 0.0 ? max_curv : 1.0);
  const double off_diag = 2.0 * lambda;
  for (std::size_t rb = 0; rb < n; ++rb) p_diag[rb] += off_diag;

  // Brownout cheapens the head: a BROWNOUT tick caps ADMM iterations, a
  // SHED tick gates the head off entirely.  The state only mutates at the
  // serial tick boundary, so this read is stable across the fan-out.
  const BrownoutState bstate = brownout_.state();
  std::size_t max_iterations = config_.admm_max_iterations;
  if (config_.brownout.enabled && bstate == BrownoutState::kBrownout)
    max_iterations = std::max<std::size_t>(
        8, static_cast<std::size_t>(
               static_cast<double>(max_iterations) *
               config_.brownout.brownout_iteration_factor));

  // Everything the steps read, behind the one pointer each gate and step
  // captures, so every std::function holds its lambda inline.  A step that
  // answers takes work.power as its buffer; the winner's buffer trades
  // places with alloc.power below, and the one it replaces comes back.
  struct Solve {
    const ServiceConfig& config;
    CellScratch& work;
    CellRuntime& rtc;
    detail::StageClock& clock;
    const rt::simd::Kernels& kernels;
    opt::AdmmWarmState* warm;
    const robust::Deadline& deadline;
    const double* p_diag;
    std::uint64_t tick;
    std::uint64_t stamp;
    std::size_t n;
    std::size_t max_iterations;
    double budget;
    double p0;
    double off_diag;
    BrownoutState bstate;
  };
  const Solve solve{config_,
                    work,
                    runtime_[cell],
                    clock,
                    rt::simd::active(),
                    config_.warm_start ? &warm_[cell] : nullptr,
                    deadline,
                    p_diag,
                    tick,
                    stamp,
                    n,
                    max_iterations,
                    budget,
                    p0,
                    off_diag,
                    bstate};

  robust::FallbackChain<StepAnswer> chain("serve.cell");
  chain
      .add_gated(
          to_string(kChainSteps[0]), robust::Soundness::kRelaxation,
          [s = &solve]() -> const char* {
            if (s->config.brownout.enabled && s->bstate == BrownoutState::kShed)
              return "brownout shed";
            if (s->config.breaker.enabled &&
                s->rtc.admm_breaker.blocked(s->tick))
              return "breaker open";
            return nullptr;
          },
          [s = &solve]() -> robust::Result<StepAnswer> {
             robust::Result<StepAnswer> out;
             if (faults::should_inject("serve.admm.outage", s->stamp) ||
                 (s->config.breaker.enabled &&
                  faults::should_inject("serve.breaker.trip", s->stamp))) {
               out.status.code = robust::StatusCode::kNumericalFailure;
               return out;
             }
             CellScratch& w = s->work;
             // The structured factor is rebuilt in the cell's own buffers.
             // The constructor holds rho and the penalty finite and
             // positive, so it declines only a non-finite curvature: a gain
             // the Taylor model cannot price.  The head then fails without
             // iterating, and the next solve starts cold.
             if (!opt::try_prefactor_dpr1(s->p_diag, s->n, s->off_diag,
                                          s->config.admm_rho, w.factor)) {
               if (s->warm != nullptr) s->warm->clear();
               out.status.code = robust::StatusCode::kNumericalFailure;
               return out;
             }
             if (!w.factor.status.ok()) {
               out.status = w.factor.status;
               return out;
             }
             opt::AdmmOptions aopts;
             aopts.rho = s->config.admm_rho;
             aopts.tolerance = s->config.admm_tolerance;
             aopts.max_iterations = s->max_iterations;
             aopts.budget.deadline = s->deadline;
             aopts.budget.check_stride = 16;
             opt::AdmmResult& r = w.admm;
             opt::admm_box_qp(w.factor.value, w.q, w.lo, w.hi, aopts, s->warm,
                              r);
             if (!r.status.usable()) {
               out.status = r.status;
               return out;
             }
             // The finish: p = p0 + x, clamped and scaled to the budget,
             // and its sum rate, in two passes.
             out.value.power.swap(w.power);
             out.value.power.resize(s->n);
             double* power = out.value.power.data();
             const double* x = r.x.data();
             const double scale =
                 budget_scale(power, s->n, s->budget,
                              [&](std::size_t rb) { return s->p0 + x[rb]; });
             out.value.sum_rate =
                 s->kernels.scaled_rate(scale, power, w.gains.data(), s->n);
             out.value.iterations = r.iterations;
             out.value.warm_use = r.warm_use;
             out.status = r.status;
             return out;
           })
      .add_gated(
          to_string(kChainSteps[1]), robust::Soundness::kRelaxation,
          [s = &solve]() -> const char* {
            if (s->config.breaker.enabled &&
                s->rtc.waterfill_breaker.blocked(s->tick))
              return "breaker open";
            return nullptr;
          },
          [s = &solve]() -> robust::Result<StepAnswer> {
             s->clock.lap(detail::kStageHead);
             robust::Result<StepAnswer> out;
             if (faults::should_inject("serve.waterfill.outage", s->stamp))
               out.status.code = robust::StatusCode::kNumericalFailure;
             else
               out.value.power = qos::waterfill(s->work.gains, s->budget);
             s->clock.lap(detail::kStageFallback);
             return out;
           })
      .add(to_string(kChainSteps[2]), robust::Soundness::kHeuristic,
           [s = &solve]() -> robust::Result<StepAnswer> {
             s->clock.lap(detail::kStageHead);
             robust::Result<StepAnswer> out;
             out.value.power.swap(s->work.power);
             out.value.power.assign(s->n, s->p0);
             s->clock.lap(detail::kStageFallback);
             return out;
           });

  robust::ChainOutcome<StepAnswer> outcome = chain.run(deadline);

  CellRuntime& rtc = runtime_[cell];
  if (config_.breaker.enabled) {
    // Advance the breakers from the chain's step records.  This runtime
    // state belongs to this cell's pool task alone, so no synchronization is
    // needed and the evolution is schedule-independent.
    const auto advance = [&](CircuitBreaker& breaker, std::size_t step) {
      if (outcome.winner == step)
        breaker.record_success();
      else if (outcome.records[step].outcome == robust::StepOutcome::kFailed)
        breaker.record_failure(tick);
      // Skipped (gated) and not-run steps record nothing: the open window
      // just ages.  A banked winner is a success despite its kFailed record.
    };
    advance(rtc.admm_breaker, 0);  // kChainSteps[0], kAdmm
    advance(rtc.waterfill_breaker, 1);  // kChainSteps[1], kWaterfill
  }
  // Every field of the cell's answer is rewritten in place.
  alloc.assignment = work.assignment;
  alloc.iterations = outcome.value.iterations;
  alloc.warm_use = outcome.value.warm_use;
  alloc.records = outcome.records;
  alloc.injected = false;
  if (outcome.winner == robust::kNoWinner) {
    // The deadline fired before any step answered (the equal-power tail
    // never fails): every cell still gets an answer -- the
    // zero-information equal split.
    alloc.power.assign(n, p0);
    serve_as(alloc, Served::kDeadlineFill);
    obs::counter_add("rcr.serve.deadline_fills");
  } else {
    alloc.power.swap(outcome.value.power);
    serve_as(alloc, kChainSteps[outcome.winner]);
  }
  // The buffer the answer replaced is the next solve's step buffer.
  if (outcome.value.power.capacity() > work.power.capacity())
    work.power.swap(outcome.value.power);
  // The head's finish rated its answer; any other is rated here.
  bool rated = outcome.winner == 0;
  if (config_.watchdog.enabled &&
      faults::should_inject("serve.solve.corrupt", stamp)) {
    // Poison the solve output so the watchdog has something real to catch.
    alloc.power[0] = std::numeric_limits<double>::quiet_NaN();
    rated = false;
  }
  alloc.sum_rate =
      rated ? outcome.value.sum_rate
            : solve.kernels.scaled_rate(1.0, alloc.power.data(),
                                        work.gains.data(), n);
  clock.lap(outcome.winner == 0 ? detail::kStageHead : detail::kStageFallback);

  // Cache only what a chain step won, and never an answer the watchdog
  // would catch (it owns those): a deadline fill replayed as a hit would
  // pass for a head answer and refresh the snapshot a fill may not.
  if (config_.cache_enabled && outcome.winner != robust::kNoWinner &&
      servable(alloc)) {
    detail::store_answer(alloc, work.entry);
    cache_.put(sig, stamp, work.entry);
  }
  clock.lap(detail::kStageSignatureCache);
}

void AllocationService::serve_from_snapshot(const RraProblem& problem,
                                            std::size_t cell,
                                            AdmitDecision reason,
                                            bool injected) {
  const CellRuntime& rtc = runtime_[cell];
  const std::size_t n = problem.num_rbs();
  const double budget = problem.total_power;

  // Every field is overwritten in place, so the cell's vectors keep their
  // capacity and a steady snapshot serve allocates nothing.
  CellAllocation& alloc = current_[cell];
  Vec& gains = scratch_[cell].gains;
  alloc.iterations = 0;
  alloc.warm_use = opt::WarmUse::kCold;
  alloc.records = {};
  alloc.injected = false;
  // A stale snapshot may predate a population change; only replay it when
  // its shape still matches the current problem.
  bool snapshot_ok =
      rtc.has_snapshot && rtc.snapshot_assignment.size() == n;
  if (snapshot_ok)
    for (std::size_t user : rtc.snapshot_assignment)
      if (user >= problem.num_users()) {
        snapshot_ok = false;
        break;
      }
  if (snapshot_ok) {
    alloc.assignment = rtc.snapshot_assignment;
    alloc.power = rtc.snapshot_power;
    qos::assigned_gains(problem, alloc.assignment, gains);
  } else {
    qos::best_gain_assignment(problem, alloc.assignment, gains);
    alloc.power.assign(n, budget / static_cast<double>(n));
  }
  double* power = alloc.power.data();
  const double scale = budget_scale(power, n, budget,
                                    [&](std::size_t rb) { return power[rb]; });
  alloc.sum_rate = rt::simd::active().scaled_rate(scale, power, gains.data(), n);

  // No chain ran for this answer: its records stay kNotRun.
  switch (reason) {
    case AdmitDecision::kDefer:
      serve_as(alloc, Served::kSnapshot);
      break;
    case AdmitDecision::kShed:
      serve_as(alloc, Served::kShedFill);
      alloc.injected = injected;
      break;
    case AdmitDecision::kQuarantine:
      serve_as(alloc, Served::kQuarantine);
      break;
    case AdmitDecision::kAdmit:
      break;
  }
}

void AllocationService::build_plan(std::uint64_t tick, bool full_shed,
                                   BrownoutState state) {
  const std::size_t cells = runtime_.size();
  const auto& slices = config_.admission.cell_slices;
  for (std::size_t c = 0; c < cells; ++c) {
    gates_[c].rank =
        slices.empty() ? 1 : priority_rank(slices[c % slices.size()]);
    gates_[c].staleness = tick >= runtime_[c].last_fresh_tick
                              ? tick - runtime_[c].last_fresh_tick
                              : 0;
    gates_[c].quarantined =
        config_.watchdog.enabled && tick < runtime_[c].quarantine_until;
  }

  AdmissionInputs in;
  in.tick = tick;
  in.budget = config_.admission.max_solves_per_tick;
  if (config_.brownout.enabled && state == BrownoutState::kBrownout &&
      in.budget > 0)
    in.budget = std::max<std::size_t>(1, in.budget / 2);
  in.max_stale_ticks = config_.admission.max_stale_ticks;
  in.admission_enabled = config_.admission.enabled;
  in.shed_lowest = config_.brownout.enabled && state == BrownoutState::kShed;
  in.full_shed = full_shed;
  plan_admission(gates_, in, plan_);
}

TickReport AllocationService::tick(std::size_t tick_index,
                                   const ProblemFn& problem_of) {
  obs::Span span("serve.tick");
  const auto t_start = std::chrono::steady_clock::now();
  detail::StageClock clock;
  const std::size_t cells = warm_.size();
  const std::uint64_t tick = static_cast<std::uint64_t>(tick_index);
  const BrownoutState bstate = brownout_.state();

  const robust::Deadline deadline =
      config_.tick_deadline_s > 0.0
          ? robust::Deadline::after_seconds(config_.tick_deadline_s)
          : robust::Deadline::unlimited();

  // A deadline that is already gone at the tick boundary means no solver
  // can possibly finish: shed the whole tick up front and serve every cell
  // from its snapshot instead of racing the clock cell by cell.
  const bool full_shed = !deadline.is_unlimited() && deadline.expired();
  build_plan(tick, full_shed, bstate);
  AdmissionPlan& plan = plan_;
  clock.lap(detail::kStageAdmission);

  // Two-phase cache protocol: the parallel fan-out reads the committed map
  // and buffers its stamp refreshes / inserts; the serial flush applies
  // them in stamp order.  Eviction victims and hit/miss outcomes are then
  // bit-identical for every RCR_THREADS setting even under eviction
  // pressure (in-place mutation would let a racing get's refresh land
  // before or after a racing put's eviction scan).
  if (config_.cache_enabled) cache_.begin_deferred();
  clock.lap(detail::kStageSignatureCache);
  // Chunks hold whole groups of kSignatureChains cells, so each group's
  // signature chains advance together.
  constexpr std::size_t kGroup = kSignatureChains;
  const std::size_t grain =
      (std::max<std::size_t>(1, config_.cells_per_chunk) + kGroup - 1) /
      kGroup * kGroup;
  const double own_groups_ns = detail::t_group_stage_ns;
  rt::parallel_for(0, cells, grain, [&](std::size_t c0, std::size_t c1) {
    serve_group(c0, c1, tick, plan, deadline, problem_of);
  });
  clock.lap(detail::kStageFanout);
  clock.discount(detail::kStageFanout,
                 detail::t_group_stage_ns - own_groups_ns);
  if (config_.cache_enabled) cache_.flush();
  clock.lap(detail::kStageSignatureCache);

  TickReport report;
  report.tick = tick_index;
  report.cells = cells;
  report.brownout_state = static_cast<int>(bstate);
  // Serial pass in ascending cell order: the report (and in particular the
  // solution hash) is independent of which threads solved which cells.
  // All CellRuntime bookkeeping (watchdog quarantine, snapshots, freshness)
  // also lands here, in cell order, for the same reason.
  std::size_t chain_cells = 0;
  std::size_t chain_steps = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    if (config_.watchdog.enabled &&
        plan.decisions[c] == AdmitDecision::kAdmit) {
      if (!servable(current_[c])) {
        // Unsound solve output: quarantine the cell and fall back to its
        // last-known-good snapshot right now.
        runtime_[c].quarantine_until =
            tick + 1 + config_.watchdog.quarantine_ticks;
        obs::counter_add("rcr.watchdog.trips");
        plan.decisions[c] = AdmitDecision::kQuarantine;
        --plan.admitted;
        ++plan.quarantined;
        serve_from_snapshot(problem_of(c), c, AdmitDecision::kQuarantine,
                            false);
      }
    }
    const CellAllocation& a = current_[c];
    if (plan.decisions[c] == AdmitDecision::kAdmit) {
      if (a.served == Served::kCache) {
        ++report.cache_hits;
      } else {
        ++report.solves;
        report.total_iterations += a.iterations;
        if (a.warm_use == opt::WarmUse::kAccepted) ++report.warm_accepted;
        if (a.served != Served::kAdmm) ++report.degraded;
        if (a.served == Served::kDeadlineFill) ++report.deadline_fills;
        // Fallback-depth proxy for the brownout controller: one clean head
        // answer is depth 1, every failed or gated step adds one.
        ++chain_cells;
        chain_steps += 1 + robust::fallthrough(a.records);
      }
      // Freshness bookkeeping: any chain or cache answer refreshes the
      // staleness clock; only finite non-fill answers refresh the
      // last-known-good snapshot.
      runtime_[c].last_fresh_tick = tick;
      if (a.served != Served::kDeadlineFill) {
        runtime_[c].snapshot_assignment = a.assignment;
        runtime_[c].snapshot_power = a.power;
        runtime_[c].has_snapshot = true;
      }
    } else {
      ++report.degraded;
    }
    // The typed reason, exported; to_string returns literals, which the
    // registry's static-storage rule for names asks for.
    obs::counter_add("rcr.serve.cell_outcome", "served", to_string(a.served));
    report.sum_rate += a.sum_rate;
  }
  report.solution_hash = solution_hash(current_);
  report.admitted = plan.admitted;
  report.deferred = plan.deferred;
  report.shed = plan.shed;
  report.quarantined = plan.quarantined;
  clock.lap(detail::kStageReport);
  report.tick_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_start)
          .count();
  clock.observe();

  obs::counter_add("rcr.serve.ticks");
  obs::counter_add("rcr.serve.solves", report.solves);
  obs::counter_add("rcr.serve.iterations", report.total_iterations);
  if (report.admitted > 0)
    obs::counter_add("rcr.admit.admitted", report.admitted);
  if (report.deferred > 0)
    obs::counter_add("rcr.admit.deferred", report.deferred);
  if (report.shed > 0) obs::counter_add("rcr.admit.shed", report.shed);
  if (report.quarantined > 0)
    obs::counter_add("rcr.serve.quarantined", report.quarantined);
  obs::gauge_set("rcr.serve.fleet_cells", static_cast<double>(cells));
  obs::gauge_set("rcr.serve.last_sum_rate", report.sum_rate);
  obs::histogram_observe("rcr.serve.tick_us",
                         report.tick_seconds * 1e6);
  span.attr("cells", static_cast<double>(cells));
  span.attr("cache_hits", static_cast<double>(report.cache_hits));
  span.attr("iterations", static_cast<double>(report.total_iterations));

  if (config_.brownout.enabled) {
    const double degraded_fraction =
        cells > 0 ? static_cast<double>(report.degraded) /
                        static_cast<double>(cells)
                  : 0.0;
    const double mean_depth =
        chain_cells > 0 ? static_cast<double>(chain_steps) /
                              static_cast<double>(chain_cells)
                        : 1.0;
    brownout_.observe(degraded_fraction, mean_depth);
    obs::gauge_set("rcr.brownout.state",
                   static_cast<double>(static_cast<int>(brownout_.state())));
  }
  return report;
}

TickReport AllocationService::tick(std::size_t tick_index,
                                   const DiurnalWorkload& workload) {
  if (workload.num_cells() != num_cells())
    throw std::invalid_argument(
        "AllocationService::tick: workload fleet size mismatch");
  return tick(tick_index,
              [&workload](std::size_t c) -> const RraProblem& {
                return workload.cell(c);
              });
}

}  // namespace rcr::serve
