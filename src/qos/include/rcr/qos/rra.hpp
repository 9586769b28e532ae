// Radio Resource Allocation -- the paper's flagship MINLP (Sec. I):
// "optimally assigning frequency-time blocks (integer variables) to a number
// of served connections while simultaneously determining the appropriate
// transmit powers (continuous variables)".
//
//   maximize   sum_rb log2(1 + p_rb * g(a_rb, rb))
//   subject to sum_rb p_rb <= P_max,  p_rb >= 0
//              a_rb in {0..U-1}            (RB exclusivity)
//              rate_u >= min_rate_u        (per-user QoS)
//
// Solvers: exact enumeration/branch-and-bound, continuous relaxation upper
// bound, greedy max-gain, and integer-rounded PSO -- the E11 comparison set.
#pragma once

#include <optional>
#include <string>

#include "rcr/qos/channel.hpp"
#include "rcr/robust/budget.hpp"
#include "rcr/robust/status.hpp"

namespace rcr::qos {

/// Problem data.
struct RraProblem {
  Matrix gain;          ///< users x RBs normalized channel gains.
  double total_power = 1.0;   ///< P_max (watts).
  Vec min_rate;         ///< Per-user minimum sum rate (bit/s/Hz); may be 0.

  std::size_t num_users() const { return gain.rows(); }
  std::size_t num_rbs() const { return gain.cols(); }
  void validate() const;  ///< Throws std::invalid_argument on inconsistency.
};

/// RB-to-user assignment (one user index per RB).
using Assignment = std::vector<std::size_t>;

/// A complete solution.
struct RraSolution {
  Assignment assignment;
  Vec power;            ///< Per-RB transmit power.
  double sum_rate = 0.0;
  Vec user_rate;        ///< Achieved per-user rates.
  bool feasible = false;  ///< All QoS minima met.
  std::size_t nodes_explored = 0;  ///< Exact solver accounting.
};

/// Water-filling over the RBs of a fixed assignment: maximize sum rate
/// subject to the power budget only (no per-user minima).  Exact: one sort
/// of the floors 1/g and one pass for the water level, so there is no
/// iteration count and the answer is scale-invariant (gains x s with budget
/// / s gives powers / s).  Zero, negative and NaN gains receive no power;
/// +inf gains have floor 0.  A budget that is not positive gives all zeros.
Vec waterfill(const Vec& gains, double total_power);

/// Each RB assigned to its best-gain user: the seed shared by the greedy
/// solver, the relaxation bound, and the serve tick loop.  Ties go to the
/// lowest user index (deterministic).
Assignment best_gain_assignment(const RraProblem& problem);

/// The same assignment written into `assignment` (resized; its capacity is
/// reused), scanning the gain matrix row by row with no heap allocation.
/// Throws what validate() throws, with the same messages; on a throw the
/// contents of `assignment` are unspecified.
void best_gain_assignment(const RraProblem& problem, Assignment& assignment);

/// Per-RB effective gains under a fixed assignment:
/// gains[rb] = gain(assignment[rb], rb).  Throws std::invalid_argument on an
/// assignment of the wrong length or with out-of-range user indices.
Vec assigned_gains(const RraProblem& problem, const Assignment& assignment);

/// The same gains written into `gains` (resized; its capacity is reused).
void assigned_gains(const RraProblem& problem, const Assignment& assignment,
                    Vec& gains);

/// Constraint residuals of an externally produced allocation — the
/// conformance grader's feasibility probe.  All violations are reported as
/// nonnegative magnitudes (0 = satisfied).
struct AllocationResiduals {
  double budget_excess = 0.0;    ///< max(0, sum(power) - total_power).
  double negative_power = 0.0;   ///< max(0, -min(power)).
  bool assignment_valid = true;  ///< Right length, in-range user indices.

  double max_violation() const {
    return budget_excess > negative_power ? budget_excess : negative_power;
  }
};

/// Measure `power`/`assignment` against the problem's power constraints.
/// Unlike assigned_gains this never throws: a malformed assignment is itself
/// the finding (assignment_valid = false).  Non-finite powers report an
/// infinite violation.
AllocationResiduals allocation_residuals(const RraProblem& problem,
                                         const Assignment& assignment,
                                         const Vec& power);

/// Achieved per-user rates of an externally produced allocation:
/// rate[u] = sum over RBs assigned to u of log2(1 + power[rb] * gain(u, rb)).
/// Throws std::invalid_argument on a malformed assignment or power length.
Vec per_user_rates(const RraProblem& problem, const Assignment& assignment,
                   const Vec& power);

/// Two-phase power allocation for a fixed assignment: first the minimum
/// power meeting each user's QoS floor (on that user's best assigned RBs),
/// then water-filling of the residual budget.  Both phases are exact water
/// levels: a closed form per floored user, sorted floors for the residual.
/// Returns std::nullopt when the QoS floors alone exceed the budget, or a
/// floored user holds no RB with a positive gain.
std::optional<Vec> qos_power_allocation(const RraProblem& problem,
                                        const Assignment& assignment);

/// Evaluate a (possibly infeasible) assignment with QoS-aware powers.
RraSolution evaluate_assignment(const RraProblem& problem,
                                const Assignment& assignment);

/// Exact solver: depth-first branch-and-bound over assignments with an
/// optimistic bound (best-gain relaxation) for pruning.
/// Throws std::invalid_argument when users^RBs would overflow the budget
/// of `max_nodes`... the search simply reports the best found with
/// `nodes_explored` == max_nodes when the budget is hit.
RraSolution solve_exact(const RraProblem& problem,
                        std::size_t max_nodes = 2000000);

/// Budget-aware exact solver: the DFS checks the wall-clock deadline every
/// 64 nodes and stops on expiry, reporting the best assignment found so far
/// with status kDeadlineExpired (usable, not exact).  A node-budget hit
/// reports kNonConverged; a completed search reports kOk.
robust::Result<RraSolution> solve_exact_budgeted(
    const RraProblem& problem, std::size_t max_nodes = 2000000,
    const robust::Budget& budget = {});

/// Continuous relaxation upper bound: every RB served by its best-gain user,
/// QoS minima dropped, water-filled power.  Always >= the exact optimum.
double relaxation_upper_bound(const RraProblem& problem);

/// Greedy baseline: each RB to its best-gain user, equal power split, then a
/// repair pass that reassigns RBs toward QoS-violating users.
RraSolution solve_greedy(const RraProblem& problem);

/// Minimum transmit power that meets every user's QoS floor under a fixed
/// assignment (Sec. I's "without excessive allocation of network
/// resources"), exact like qos_power_allocation's first phase;
/// std::nullopt when some constrained user holds no RB with a positive gain,
/// or its floor needs more power than a double can hold.
std::optional<double> minimum_power_for_qos(const RraProblem& problem,
                                            const Assignment& assignment);

/// Power-minimization outcome.
struct MinPowerSolution {
  Assignment assignment;
  double power = 0.0;          ///< Total transmit power needed.
  bool feasible = false;       ///< A serving assignment exists.
  std::size_t nodes_explored = 0;
};

/// Exact assignment search minimizing the total power that meets the QoS
/// floors (ignores the budget; compare the result against total_power to
/// decide admission).
MinPowerSolution solve_min_power_exact(const RraProblem& problem,
                                       std::size_t max_nodes = 2000000);

/// Greedy baseline: each user takes its strongest RBs round-robin.
MinPowerSolution solve_min_power_greedy(const RraProblem& problem);

/// PSO-based solver (integer-rounded particles over the assignment vector,
/// penalized QoS violations) -- the paper's MINLP-via-PSO route.
struct RraPsoOptions {
  std::size_t swarm_size = 24;
  std::size_t max_iterations = 120;
  double qos_penalty = 50.0;  ///< Scaled by the relaxation bound internally.
  std::uint64_t seed = 5;
  bool adaptive_inertia = true;  ///< Adaptive-QP schedule vs constant 0.7.
  robust::Budget budget;         ///< Forwarded to the swarm; unlimited default.
};
RraSolution solve_pso(const RraProblem& problem,
                      const RraPsoOptions& options = {});

}  // namespace rcr::qos
