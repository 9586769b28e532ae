#include "mirror.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "rcr/learn/qp.hpp"
#include "rcr/qos/rra.hpp"
#include "rcr/robust/fallback.hpp"
#include "rcr/serve/overload.hpp"
#include "rcr/serve/signature.hpp"

namespace tickbench {

namespace opt = rcr::opt;
namespace qos = rcr::qos;
namespace robust = rcr::robust;
namespace serve = rcr::serve;
using rcr::Vec;
using rcr::num::Matrix;
using Scope = SpanRecorder::Scope;

namespace {

/// The admission decision the service acted on for a cell, read back from
/// the step that served it.
serve::AdmitDecision served_decision(const std::string& step) {
  if (step == "snapshot") return serve::AdmitDecision::kDefer;
  if (step == "shed-fill") return serve::AdmitDecision::kShed;
  if (step == "quarantine") return serve::AdmitDecision::kQuarantine;
  return serve::AdmitDecision::kAdmit;
}

}  // namespace

Mirror::Mirror(const serve::ServiceConfig& config, std::size_t cells,
               SpanRecorder& spans,
               const rcr::learn::WarmStartPredictor* predictor)
    : config_(config),
      spans_(spans),
      predictor_(predictor),
      cache_(config.cache_capacity, config.cache_shards),
      warm_(cells),
      last_fresh_(cells, 0),
      quarantine_until_(cells, 0) {}

void Mirror::replay_tick(std::uint64_t tick, const ProblemFn& problem_of,
                         const serve::AllocationService& service,
                         const serve::TickReport& report) {
  const std::size_t cells = warm_.size();
  const auto bstate = static_cast<serve::BrownoutState>(report.brownout_state);

  serve::AdmissionPlan plan;
  {
    // The gates the service's build_plan assembles, from the staleness and
    // quarantine windows tracked below.
    Scope s(spans_, "serve.admission_plan", tick, kTickLevel);
    std::vector<serve::CellGate> gates(cells);
    const auto& slices = config_.admission.cell_slices;
    for (std::size_t c = 0; c < cells; ++c) {
      gates[c].rank = slices.empty()
                          ? 1
                          : serve::priority_rank(slices[c % slices.size()]);
      gates[c].staleness = tick - std::min(tick, last_fresh_[c]);
      gates[c].quarantined =
          config_.watchdog.enabled && tick < quarantine_until_[c];
    }
    serve::AdmissionInputs in;
    in.tick = tick;
    in.budget = config_.admission.max_solves_per_tick;
    if (config_.brownout.enabled &&
        bstate == serve::BrownoutState::kBrownout && in.budget > 0)
      in.budget = std::max<std::size_t>(1, in.budget / 2);
    in.max_stale_ticks = config_.admission.max_stale_ticks;
    in.admission_enabled = config_.admission.enabled;
    in.shed_lowest =
        config_.brownout.enabled && bstate == serve::BrownoutState::kShed;
    plan = serve::plan_admission(gates, in);
  }

  // After the fan-out the service's watchdog quarantines an admitted cell
  // whose answer is not finite.  Apply the trips it served, then hold the
  // plan to the service, cell by cell and in the report's counts.
  std::size_t trips = 0;
  bool plan_ok = true;
  for (std::size_t c = 0; c < cells; ++c) {
    const std::string& step = service.allocation(c).step;
    if (plan.decisions[c] == serve::AdmitDecision::kAdmit &&
        step == "quarantine") {
      plan.decisions[c] = serve::AdmitDecision::kQuarantine;
      quarantine_until_[c] = tick + 1 + config_.watchdog.quarantine_ticks;
      ++trips;
    }
    if (plan.decisions[c] != served_decision(step)) plan_ok = false;
  }
  if (!plan_ok || plan.admitted != report.admitted + trips ||
      plan.deferred != report.deferred || plan.shed != report.shed ||
      plan.quarantined + trips != report.quarantined)
    ++totals_.plan_mismatches;

  std::size_t max_iterations = config_.admm_max_iterations;
  if (config_.brownout.enabled && bstate == serve::BrownoutState::kBrownout)
    max_iterations = std::max<std::size_t>(
        8, static_cast<std::size_t>(
               static_cast<double>(max_iterations) *
               config_.brownout.brownout_iteration_factor));

  if (config_.cache_enabled) cache_.begin_deferred();
  for (std::size_t c = 0; c < cells; ++c) {
    const bool admitted = plan.decisions[c] == serve::AdmitDecision::kAdmit;
    replay_cell(tick, c, problem_of(c), service.allocation(c), !admitted,
                max_iterations);
    if (admitted) last_fresh_[c] = tick;
  }
  if (config_.cache_enabled) {
    Scope s(spans_, "serve.cache_flush", tick, kTickLevel);
    cache_.flush();
  }
}

void Mirror::replay_cell(std::uint64_t tick, std::size_t c,
                         const qos::RraProblem& problem,
                         const serve::CellAllocation& served,
                         bool from_snapshot, std::size_t max_iterations) {
  const auto cell = static_cast<std::uint32_t>(c);
  Scope root(spans_, "replay.cell", tick, cell);

  if (from_snapshot) {
    // serve_from_snapshot's public work: rate the snapshot assignment.  A
    // watchdog trip's discarded solve is not replayed.
    Scope s(spans_, "qos.assign", tick, cell);
    const Vec gains = qos::assigned_gains(problem, served.assignment);
    (void)gains;
    return;
  }

  const std::uint64_t stamp = tick * warm_.size() + c;
  std::uint64_t sig = 0;
  {
    Scope s(spans_, "serve.signature", tick, cell);
    sig = serve::problem_signature(problem, config_.signature);
  }
  if (config_.cache_enabled) {
    bool hit = false;
    {
      Scope s(spans_, "serve.cache_get", tick, cell);
      serve::CellAllocation cached;
      hit = cache_.get(sig, stamp, cached);
    }
    if (hit) {
      ++totals_.cache_hits;
      return;
    }
    ++totals_.cache_misses;
  }

  qos::Assignment assignment;
  Vec gains;
  {
    Scope s(spans_, "qos.assign", tick, cell);
    assignment = qos::best_gain_assignment(problem);
    gains = qos::assigned_gains(problem, assignment);
  }
  const std::size_t n = problem.num_rbs();
  const double budget = problem.total_power;
  const double p0 = budget / static_cast<double>(n);
  Vec curv(n), slope(n);
  double max_curv = 0.0;
  {
    Scope s(spans_, "learn.qp_coeffs", tick, cell);
    max_curv = rcr::learn::power_qp_coeffs(gains.data(), n, p0, curv.data(),
                                           slope.data());
  }
  const double lambda =
      config_.budget_penalty * (max_curv > 0.0 ? max_curv : 1.0);
  Matrix p_mat;
  Vec q, lo, hi;
  {
    Scope s(spans_, "numerics.qp_build", tick, cell);
    p_mat = Matrix(n, n, 2.0 * lambda);
    q.assign(n, 0.0);
    lo.assign(n, -p0);
    hi.assign(n, budget - p0);
    for (std::size_t rb = 0; rb < n; ++rb) {
      p_mat(rb, rb) += curv[rb];
      q[rb] = slope[rb];
    }
  }

  opt::AdmmOptions aopts;
  aopts.rho = config_.admm_rho;
  aopts.tolerance = config_.admm_tolerance;
  aopts.max_iterations = max_iterations;
  aopts.budget.check_stride = 16;

  // The chain the service builds: ADMM head, water-filling, equal power.
  // The heads run only where the service's own chain answered with them,
  // so a fault-storm cell replays the step that actually served it.
  const bool admm_served = served.step == "admm" || served.step == "cache";
  const bool waterfill_served = served.step == "waterfill";
  robust::Result<opt::BoxQpFactor> factor;
  std::size_t admm_iterations = 0;
  bool admm_ran = false;
  {
    Scope s(spans_, "robust.chain", tick, cell);
    robust::FallbackChain<serve::CellAllocation> chain("tickbench.replay");
    chain
        .add_gated(
            "admm", robust::Soundness::kRelaxation,
            [&]() -> const char* {
              return admm_served ? nullptr : "not served by admm";
            },
            [&]() -> robust::Result<serve::CellAllocation> {
              robust::Result<serve::CellAllocation> out;
              {
                Scope f(spans_, "opt.prefactor", tick, cell);
                factor = opt::try_prefactor_box_qp(p_mat, config_.admm_rho);
              }
              if (!factor.status.ok()) {
                out.status = factor.status;
                return out;
              }
              opt::AdmmWarmState* warm =
                  config_.warm_start ? &warm_[c] : nullptr;
              opt::AdmmResult r;
              {
                Scope a(spans_, "opt.admm", tick, cell);
                r = opt::admm_box_qp(p_mat, factor.value, q, lo, hi, aopts,
                                     warm);
              }
              admm_ran = true;
              admm_iterations = r.iterations;
              if (r.warm_use != opt::WarmUse::kCold) ++totals_.warm_attempted;
              if (r.warm_use == opt::WarmUse::kAccepted)
                ++totals_.warm_accepted;
              if (!r.status.usable()) {
                out.status = r.status;
                return out;
              }
              out.value.assignment = assignment;
              out.value.power.resize(n);
              for (std::size_t rb = 0; rb < n; ++rb)
                out.value.power[rb] = p0 + r.x[rb];
              out.value.iterations = r.iterations;
              out.value.warm_use = r.warm_use;
              out.status = r.status;
              return out;
            })
        .add_gated(
            "waterfill", robust::Soundness::kRelaxation,
            [&]() -> const char* {
              return waterfill_served ? nullptr : "not served by waterfill";
            },
            [&]() -> robust::Result<serve::CellAllocation> {
              robust::Result<serve::CellAllocation> out;
              out.value.assignment = assignment;
              Scope w(spans_, "qos.waterfill", tick, cell);
              out.value.power = qos::waterfill(gains, budget);
              return out;
            })
        .add("equal-power", robust::Soundness::kHeuristic,
             [&]() -> robust::Result<serve::CellAllocation> {
               robust::Result<serve::CellAllocation> out;
               out.value.assignment = assignment;
               out.value.power.assign(n, p0);
               return out;
             });
    chain.run();
  }
  totals_.iterations += admm_iterations;

  if (config_.cache_enabled && std::isfinite(served.sum_rate)) {
    Scope s(spans_, "serve.cache_put", tick, cell);
    cache_.put(sig, stamp, served);
    ++totals_.cache_puts;
  }

  if (predictor_ != nullptr && admm_ran && factor.status.ok()) {
    // Price the learned head: predict a start for the same QP, then count
    // the iterations ADMM needs from it (on a private state, so the
    // replay's carried warm state is untouched).
    rcr::learn::PowerQp qp;
    qp.curv = curv.data();
    qp.slope = slope.data();
    qp.lo = lo.data();
    qp.hi = hi.data();
    qp.n = n;
    qp.lambda = lambda;
    qp.p0 = p0;
    qp.budget = budget;
    qp.max_curv = max_curv;
    opt::AdmmWarmState probe;
    probe.z.resize(n);
    probe.u.resize(n);
    Vec scratch(2 * n);
    {
      Scope s(spans_, "learn.predict", tick, cell);
      rcr::learn::predict_warm_start(qp, *predictor_, config_.admm_rho,
                                     probe.z.data(), probe.u.data(),
                                     scratch.data());
    }
    const opt::AdmmResult r =
        opt::admm_box_qp(p_mat, factor.value, q, lo, hi, aopts, &probe);
    ++totals_.predicts;
    totals_.iterations_saved += static_cast<std::int64_t>(admm_iterations) -
                                static_cast<std::int64_t>(r.iterations);
  }
}

}  // namespace tickbench
