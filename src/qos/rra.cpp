#include "rcr/qos/rra.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "rcr/pso/swarm.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/scratch_arena.hpp"
#include "rcr/rt/simd.hpp"

namespace rcr::qos {

namespace {

// validate()'s checks before its negative-gain scan.
void validate_shape(const RraProblem& problem) {
  if (problem.gain.empty())
    throw std::invalid_argument("RraProblem: empty gain matrix");
  if (problem.min_rate.size() != problem.gain.rows())
    throw std::invalid_argument("RraProblem: min_rate size != users");
  if (problem.total_power <= 0.0)
    throw std::invalid_argument("RraProblem: non-positive power budget");
}

void throw_negative_gain() {
  throw std::invalid_argument("RraProblem: negative gain");
}

}  // namespace

void RraProblem::validate() const {
  validate_shape(*this);
  for (double g : gain.data())
    if (g < 0.0) throw_negative_gain();
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Water-fills `budget` over the RBs on top of the power they already hold:
// adds max(0, mu - f_i) to power[i], where the floor f_i = 1/g_i + power[i]
// and the water level mu makes the additions sum to `budget`.  RBs whose
// gain is not positive (or so small that 1/g overflows) take nothing.
// Exact: sort the floors, then one pass for the largest active set whose
// level (budget + sum of its floors)/k clears its last floor.  Levels are
// measured from the lowest floor, so the powers keep full precision when the
// floors dwarf the budget.
void fill_to_level(const Vec& gains, double budget, Vec& power) {
  const auto floor = [&](std::size_t i) {
    return gains[i] > 0.0 ? 1.0 / gains[i] + power[i] : kInf;
  };
  Vec sorted;
  sorted.reserve(gains.size());
  for (std::size_t i = 0; i < gains.size(); ++i) {
    const double f = floor(i);
    if (std::isfinite(f)) sorted.push_back(f);
  }
  if (sorted.empty() || !(budget > 0.0)) return;
  std::sort(sorted.begin(), sorted.end());
  const double base = sorted[0];
  double above = 0.0;  // sum of the active floors' heights above base
  double level = 0.0;  // water level above base
  for (std::size_t k = 1;; ++k) {
    above += sorted[k - 1] - base;
    level = (budget + above) / static_cast<double>(k);
    if (k == sorted.size() || sorted[k] - base >= level) break;
  }
  for (std::size_t i = 0; i < gains.size(); ++i) {
    const double f = floor(i);
    if (std::isfinite(f)) power[i] += std::max(0.0, level - (f - base));
  }
}

// Phase 1 of the QoS power allocation: per RB, the least power that meets
// its owner's rate floor.  Over a user's k strongest RBs the rate at water
// level mu is sum log2(mu g_i), so mu = 2^((floor - sum log2 g_i)/k) for the
// smallest k whose level does not reach the next RB's 1/g_{k+1}.
// std::nullopt when a floored user holds no RB with a positive gain, or its
// level overflows.
std::optional<Vec> floor_powers(const RraProblem& problem,
                                const Assignment& assignment) {
  const std::size_t n_rb = problem.num_rbs();
  Vec power(n_rb, 0.0);
  Vec gains;  // the user's positive gains, strongest first
  for (std::size_t u = 0; u < problem.num_users(); ++u) {
    const double target = problem.min_rate[u];
    if (target <= 0.0) continue;
    gains.clear();
    for (std::size_t rb = 0; rb < n_rb; ++rb)
      if (assignment[rb] == u && problem.gain(u, rb) > 0.0)
        gains.push_back(problem.gain(u, rb));
    if (gains.empty()) return std::nullopt;
    std::sort(gains.begin(), gains.end(), std::greater<>());
    double log_sum = 0.0;
    double level = 0.0;
    for (std::size_t k = 1;; ++k) {
      log_sum += std::log2(gains[k - 1]);
      level = std::exp2((target - log_sum) / static_cast<double>(k));
      if (k == gains.size() || level <= 1.0 / gains[k]) break;
    }
    if (level == kInf) return std::nullopt;
    // An infinite gain meets any floor with any positive power (level 0
    // would leave 0 * inf rates): grant it the least normal one.
    if (level == 0.0) level = std::numeric_limits<double>::min();
    for (std::size_t rb = 0; rb < n_rb; ++rb)
      if (assignment[rb] == u && problem.gain(u, rb) > 0.0)
        power[rb] = std::max(0.0, level - 1.0 / problem.gain(u, rb));
  }
  return power;
}

double total(const Vec& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

// Each RB's best gain over all users: the relaxation's and the exact
// search's optimistic channel.
Vec best_gains(const RraProblem& problem) {
  Vec best(problem.num_rbs(), 0.0);
  for (std::size_t rb = 0; rb < problem.num_rbs(); ++rb)
    for (std::size_t u = 0; u < problem.num_users(); ++u)
      best[rb] = std::max(best[rb], problem.gain(u, rb));
  return best;
}

}  // namespace

Vec waterfill(const Vec& gains, double total_power) {
  // p_i = max(0, mu - 1/g_i) with mu chosen so sum p_i = total_power.
  Vec p(gains.size(), 0.0);
  fill_to_level(gains, total_power, p);
  return p;
}

std::optional<Vec> qos_power_allocation(const RraProblem& problem,
                                        const Assignment& assignment) {
  auto power = floor_powers(problem, assignment);
  if (!power) return std::nullopt;
  const double spent = total(*power);
  if (spent > problem.total_power * (1.0 + 1e-9)) return std::nullopt;
  // Phase 2: water-fill the residual budget over all RBs, starting from the
  // phase-1 powers: q_rb = max(0, mu - (1/g + p0)).
  fill_to_level(assigned_gains(problem, assignment),
                problem.total_power - spent, *power);
  return power;
}

RraSolution evaluate_assignment(const RraProblem& problem,
                                const Assignment& assignment) {
  RraSolution sol;
  sol.assignment = assignment;
  auto power = qos_power_allocation(problem, assignment);
  // A QoS-infeasible assignment falls back to plain water-filling so the
  // solution still reports an achieved rate.
  sol.power = power ? std::move(*power)
                    : waterfill(assigned_gains(problem, assignment),
                                problem.total_power);
  sol.user_rate = per_user_rates(problem, assignment, sol.power);
  sol.sum_rate = total(sol.user_rate);
  sol.feasible = power.has_value();
  for (std::size_t u = 0; u < problem.num_users(); ++u)
    if (sol.user_rate[u] < problem.min_rate[u] - 1e-9) sol.feasible = false;
  return sol;
}

Assignment best_gain_assignment(const RraProblem& problem) {
  Assignment assignment;
  best_gain_assignment(problem, assignment);
  return assignment;
}

namespace {

// validate(), with its negative-gain scan folded into the best-gain scan.
void best_gain_scan(const RraProblem& problem, Assignment& assignment,
                    double* best) {
  validate_shape(problem);
  assignment.resize(problem.num_rbs());
  if (rt::simd::active().best_gain_scan(problem.gain.data().data(),
                                        problem.num_users(),
                                        problem.num_rbs(), assignment.data(),
                                        best))
    throw_negative_gain();
}

}  // namespace

void best_gain_assignment(const RraProblem& problem, Assignment& assignment) {
  rt::ScratchArena& arena = rt::tls_arena();
  const auto scope = arena.scope();
  best_gain_scan(problem, assignment,
                 arena.alloc<double>(problem.num_rbs()));
}

void best_gain_assignment(const RraProblem& problem, Assignment& assignment,
                          Vec& gains) {
  gains.resize(problem.num_rbs());
  best_gain_scan(problem, assignment, gains.data());
}

Vec assigned_gains(const RraProblem& problem, const Assignment& assignment) {
  Vec gains;
  assigned_gains(problem, assignment, gains);
  return gains;
}

void assigned_gains(const RraProblem& problem, const Assignment& assignment,
                    Vec& gains) {
  if (assignment.size() != problem.num_rbs())
    throw std::invalid_argument("assigned_gains: assignment length mismatch");
  gains.resize(problem.num_rbs());
  for (std::size_t rb = 0; rb < problem.num_rbs(); ++rb) {
    if (assignment[rb] >= problem.num_users())
      throw std::invalid_argument("assigned_gains: user index out of range");
    gains[rb] = problem.gain(assignment[rb], rb);
  }
}

AllocationResiduals allocation_residuals(const RraProblem& problem,
                                         const Assignment& assignment,
                                         const Vec& power) {
  AllocationResiduals residuals;
  if (assignment.size() != problem.num_rbs() ||
      power.size() != problem.num_rbs()) {
    residuals.assignment_valid = false;
    return residuals;
  }
  for (std::size_t rb = 0; rb < problem.num_rbs(); ++rb) {
    if (assignment[rb] >= problem.num_users()) {
      residuals.assignment_valid = false;
      return residuals;
    }
  }
  double total = 0.0;
  for (double p : power) {
    if (!std::isfinite(p)) {
      residuals.budget_excess = std::numeric_limits<double>::infinity();
      residuals.negative_power = std::numeric_limits<double>::infinity();
      return residuals;
    }
    total += p;
    if (-p > residuals.negative_power) residuals.negative_power = -p;
  }
  if (total > problem.total_power)
    residuals.budget_excess = total - problem.total_power;
  return residuals;
}

Vec per_user_rates(const RraProblem& problem, const Assignment& assignment,
                   const Vec& power) {
  if (power.size() != problem.num_rbs())
    throw std::invalid_argument("per_user_rates: power length mismatch");
  const Vec gains = assigned_gains(problem, assignment);  // validates
  Vec rates(problem.num_users(), 0.0);
  for (std::size_t rb = 0; rb < problem.num_rbs(); ++rb)
    rates[assignment[rb]] += std::log2(1.0 + power[rb] * gains[rb]);
  return rates;
}

double relaxation_upper_bound(const RraProblem& problem) {
  const Vec best_gain = best_gains(problem);
  const Vec p = waterfill(best_gain, problem.total_power);
  double rate = 0.0;
  for (std::size_t rb = 0; rb < problem.num_rbs(); ++rb)
    rate += std::log2(1.0 + p[rb] * best_gain[rb]);
  return rate;
}

namespace {

struct ExactSearch {
  const RraProblem& problem;
  std::size_t max_nodes;
  Vec best_gain_per_rb;          // for the optimistic bound
  RraSolution best;              // best feasible (or best overall)
  bool have_feasible = false;
  std::size_t nodes = 0;
  Assignment current;
  const robust::Budget* budget = nullptr;  // optional wall-clock budget
  bool faults_on = false;
  bool expired = false;

  double optimistic_bound() const {
    // Each RB could get the whole budget on the best remaining gain: a valid
    // (loose) upper bound on the total achievable rate of any completion.
    double ub = 0.0;
    for (std::size_t rb = 0; rb < problem.num_rbs(); ++rb) {
      const double g = rb < current.size()
                           ? problem.gain(current[rb], rb)
                           : best_gain_per_rb[rb];
      ub += std::log2(1.0 + problem.total_power * g);
    }
    return ub;
  }

  void dfs() {
    if (nodes >= max_nodes || expired) return;
    if (current.size() == problem.num_rbs()) {
      ++nodes;
      // Deadline check every 64 evaluated leaves: cheap enough to leave on,
      // frequent enough that a stalled evaluation can't overshoot far.
      if (budget != nullptr && (nodes & 63u) == 0 &&
          budget->deadline.expired()) {
        expired = true;
        return;
      }
      if (faults_on) robust::faults::maybe_stall("qos.exact.stall");
      RraSolution sol = evaluate_assignment(problem, current);
      const bool better =
          (sol.feasible && !have_feasible) ||
          (sol.feasible == have_feasible && sol.sum_rate > best.sum_rate) ||
          best.assignment.empty();
      if (better && (sol.feasible || !have_feasible)) {
        best = sol;
        have_feasible = have_feasible || sol.feasible;
      }
      return;
    }
    if (have_feasible && optimistic_bound() <= best.sum_rate) return;  // prune
    for (std::size_t u = 0; u < problem.num_users(); ++u) {
      current.push_back(u);
      dfs();
      current.pop_back();
      if (nodes >= max_nodes || expired) return;
    }
  }
};

}  // namespace

RraSolution solve_exact(const RraProblem& problem, std::size_t max_nodes) {
  return solve_exact_budgeted(problem, max_nodes).value;
}

robust::Result<RraSolution> solve_exact_budgeted(const RraProblem& problem,
                                                 std::size_t max_nodes,
                                                 const robust::Budget& budget) {
  problem.validate();
  ExactSearch search{problem, max_nodes, best_gains(problem), RraSolution{},
                     false, 0, {}};
  search.budget = budget.deadline.is_unlimited() ? nullptr : &budget;
  search.faults_on = robust::faults::enabled();
  search.dfs();
  search.best.nodes_explored = search.nodes;

  robust::Result<RraSolution> out;
  out.value = std::move(search.best);
  if (search.expired) {
    out.status = robust::make_status(
        robust::StatusCode::kDeadlineExpired,
        "exact search deadline fired after " + std::to_string(search.nodes) +
            " nodes; best-found assignment returned");
  } else if (search.nodes >= max_nodes) {
    out.status = robust::make_status(
        robust::StatusCode::kNonConverged,
        "exact search node budget exhausted (" + std::to_string(max_nodes) +
            "); best-found assignment returned");
  }
  return out;
}

RraSolution solve_greedy(const RraProblem& problem) {
  Assignment assignment = best_gain_assignment(problem);  // validates
  RraSolution sol = evaluate_assignment(problem, assignment);

  // Repair pass: hand RBs to QoS-starved users (best relative gain first).
  for (int round = 0; round < 8 && !sol.feasible; ++round) {
    bool changed = false;
    for (std::size_t u = 0; u < problem.num_users(); ++u) {
      if (sol.user_rate[u] >= problem.min_rate[u] - 1e-9) continue;
      double best_ratio = -1.0;
      std::size_t best_rb = 0;
      for (std::size_t rb = 0; rb < problem.num_rbs(); ++rb) {
        if (assignment[rb] == u) continue;
        const double owner_gain = problem.gain(assignment[rb], rb);
        const double ratio =
            problem.gain(u, rb) / std::max(owner_gain, 1e-30);
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best_rb = rb;
        }
      }
      if (best_ratio >= 0.0) {
        assignment[best_rb] = u;
        changed = true;
      }
    }
    if (!changed) break;
    sol = evaluate_assignment(problem, assignment);
  }
  return sol;
}

std::optional<double> minimum_power_for_qos(const RraProblem& problem,
                                            const Assignment& assignment) {
  const auto power = floor_powers(problem, assignment);
  if (!power) return std::nullopt;
  return total(*power);
}

namespace {

struct MinPowerSearch {
  const RraProblem& problem;
  std::size_t max_nodes;
  MinPowerSolution best;
  std::size_t nodes = 0;
  Assignment current;

  void dfs() {
    if (nodes >= max_nodes) return;
    if (current.size() == problem.num_rbs()) {
      ++nodes;
      const auto power = minimum_power_for_qos(problem, current);
      if (power && (!best.feasible || *power < best.power)) {
        best.feasible = true;
        best.power = *power;
        best.assignment = current;
      }
      return;
    }
    for (std::size_t u = 0; u < problem.num_users(); ++u) {
      current.push_back(u);
      dfs();
      current.pop_back();
      if (nodes >= max_nodes) return;
    }
  }
};

}  // namespace

MinPowerSolution solve_min_power_exact(const RraProblem& problem,
                                       std::size_t max_nodes) {
  problem.validate();
  MinPowerSearch search{problem, max_nodes, MinPowerSolution{}, 0, {}};
  search.dfs();
  search.best.nodes_explored = search.nodes;
  return search.best;
}

MinPowerSolution solve_min_power_greedy(const RraProblem& problem) {
  problem.validate();
  const std::size_t n_rb = problem.num_rbs();
  const std::size_t users = problem.num_users();

  // Round-robin over users; each pick takes the user's strongest free RB.
  Assignment assignment(n_rb, 0);
  std::vector<bool> taken(n_rb, false);
  std::size_t assigned = 0;
  while (assigned < n_rb) {
    const std::size_t before = assigned;
    for (std::size_t u = 0; u < users && assigned < n_rb; ++u) {
      double best_gain = -1.0;
      std::size_t best_rb = 0;
      for (std::size_t rb = 0; rb < n_rb; ++rb)
        if (!taken[rb] && problem.gain(u, rb) > best_gain) {
          best_gain = problem.gain(u, rb);
          best_rb = rb;
        }
      if (best_gain >= 0.0) {
        assignment[best_rb] = u;
        taken[best_rb] = true;
        ++assigned;
      }
    }
    if (assigned == before) {
      // No user could pick: every free RB's gain is NaN for every user
      // (validate() admits NaN gains).  Each goes where
      // best_gain_assignment puts it -- user 0 on an all-NaN column.
      const Assignment fallback = best_gain_assignment(problem);
      for (std::size_t rb = 0; rb < n_rb; ++rb)
        if (!taken[rb]) {
          assignment[rb] = fallback[rb];
          taken[rb] = true;
          ++assigned;
        }
    }
  }

  MinPowerSolution sol;
  sol.assignment = assignment;
  const auto power = minimum_power_for_qos(problem, assignment);
  sol.feasible = power.has_value();
  sol.power = power.value_or(0.0);
  return sol;
}

RraSolution solve_pso(const RraProblem& problem, const RraPsoOptions& options) {
  problem.validate();
  const std::size_t n_rb = problem.num_rbs();
  const auto users = static_cast<double>(problem.num_users());

  pso::Objective objective;
  objective.name = "rra";
  objective.lower = Vec(n_rb, 0.0);
  objective.upper = Vec(n_rb, users - 1.0);
  objective.optimum = Vec(n_rb, 0.0);
  objective.optimum_value = -1e30;  // unknown; unused by the solver
  // Scale the QoS penalty by the achievable rate so no feasible solution is
  // ever dominated by an infeasible one with a slightly higher raw rate.
  const double penalty_scale =
      options.qos_penalty * (1.0 + relaxation_upper_bound(problem));
  objective.value = [&problem, penalty_scale](const Vec& x) {
    Assignment a(x.size());
    for (std::size_t rb = 0; rb < x.size(); ++rb)
      a[rb] = static_cast<std::size_t>(
          std::clamp(std::llround(x[rb]), 0ll,
                     static_cast<long long>(problem.num_users() - 1)));
    const RraSolution sol = evaluate_assignment(problem, a);
    double penalty = 0.0;
    for (std::size_t u = 0; u < problem.num_users(); ++u)
      penalty += std::max(0.0, problem.min_rate[u] - sol.user_rate[u]);
    return -sol.sum_rate + penalty_scale * penalty;
  };

  pso::PsoConfig config;
  config.swarm_size = options.swarm_size;
  config.max_iterations = options.max_iterations;
  config.rounding = pso::Rounding::kInteger;
  config.seed = options.seed;
  config.disperse_on_stagnation = true;
  config.budget = options.budget;

  std::unique_ptr<pso::InertiaSchedule> schedule =
      options.adaptive_inertia ? pso::adaptive_qp_inertia()
                               : pso::constant_inertia(0.7);
  const pso::PsoResult r = pso::minimize(objective, config, schedule.get());

  Assignment a(n_rb);
  for (std::size_t rb = 0; rb < n_rb; ++rb)
    a[rb] = static_cast<std::size_t>(
        std::clamp(std::llround(r.best_position[rb]), 0ll,
                   static_cast<long long>(problem.num_users() - 1)));
  RraSolution sol = evaluate_assignment(problem, a);
  sol.nodes_explored = r.evaluations;
  return sol;
}

}  // namespace rcr::qos
