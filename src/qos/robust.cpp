#include "rcr/qos/robust.hpp"

#include <utility>

namespace rcr::qos {

namespace {

template <typename SolutionT>
QosRobustResult<SolutionT> from_outcome(robust::ChainOutcome<SolutionT> o) {
  QosRobustResult<SolutionT> r;
  r.solution = std::move(o.value);
  r.method = o.step;
  r.soundness = o.soundness;
  r.status = std::move(o.status);
  r.attempts = o.attempts;
  return r;
}

}  // namespace

RraRobustResult solve_rra_robust(const RraProblem& problem,
                                 const RraRobustOptions& options) {
  problem.validate();

  robust::Budget exact_budget;
  exact_budget.deadline = options.deadline;
  RraPsoOptions pso_opts = options.pso;
  if (pso_opts.budget.deadline.is_unlimited())
    pso_opts.budget.deadline = options.deadline;

  robust::FallbackChain<RraSolution> chain("rra");
  chain.add("exact", robust::Soundness::kExact, [&]() {
    robust::Result<RraSolution> r =
        solve_exact_budgeted(problem, options.max_nodes, exact_budget);
    if (r.status.ok() && !r.value.feasible)
      r.status = robust::make_status(
          robust::StatusCode::kInfeasible,
          "no assignment meets every QoS floor within the power budget");
    return r;
  });
  chain.add("pso", robust::Soundness::kHeuristic, [&]() {
    robust::Result<RraSolution> r;
    r.value = solve_pso(problem, pso_opts);
    if (options.deadline.expired()) {
      r.status = robust::make_status(robust::StatusCode::kDeadlineExpired,
                                     "deadline fired during PSO search");
    } else if (!r.value.feasible) {
      r.status = robust::make_status(
          robust::StatusCode::kNonConverged,
          "PSO best assignment violates a QoS floor");
    }
    return r;
  });
  chain.add("greedy", robust::Soundness::kHeuristic, [&]() {
    robust::Result<RraSolution> r;
    r.value = solve_greedy(problem);
    if (!r.value.feasible)
      r.status = robust::make_status(
          robust::StatusCode::kNonConverged,
          "greedy + repair still violates a QoS floor");
    return r;
  });
  return from_outcome(chain.run(options.deadline));
}

MultiRatRobustResult solve_multirat_robust(const MultiRatProblem& problem,
                                           std::size_t max_nodes,
                                           const robust::Deadline& deadline) {
  problem.validate();
  robust::FallbackChain<MultiRatSolution> chain("multirat");
  chain.add("exact", robust::Soundness::kExact, [&]() {
    robust::Result<MultiRatSolution> r;
    r.value = solve_multirat_exact(problem, max_nodes);
    if (deadline.expired())
      r.status = robust::make_status(robust::StatusCode::kDeadlineExpired,
                                     "deadline fired during exact search");
    else if (!r.value.feasible)
      r.status = robust::make_status(robust::StatusCode::kNonConverged,
                                     "exact search returned no feasible "
                                     "selection within the node budget");
    return r;
  });
  chain.add("greedy", robust::Soundness::kHeuristic, [&]() {
    robust::Result<MultiRatSolution> r;
    r.value = solve_multirat_greedy(problem);
    if (!r.value.feasible)
      r.status = robust::make_status(robust::StatusCode::kNonConverged,
                                     "greedy selection infeasible");
    return r;
  });
  return from_outcome(chain.run(deadline));
}

SlicingRobustResult solve_slicing_robust(const SlicingProblem& problem,
                                         const robust::Deadline& deadline) {
  robust::FallbackChain<SlicingSolution> chain("slicing");
  chain.add("exact-dp", robust::Soundness::kExact, [&]() {
    robust::Result<SlicingSolution> r;
    r.value = solve_slicing_exact(problem);
    if (deadline.expired())
      r.status = robust::make_status(robust::StatusCode::kDeadlineExpired,
                                     "deadline fired during knapsack DP");
    return r;
  });
  chain.add("greedy", robust::Soundness::kHeuristic, [&]() {
    robust::Result<SlicingSolution> r;
    r.value = solve_slicing_greedy(problem);
    return r;
  });
  return from_outcome(chain.run(deadline));
}

}  // namespace rcr::qos
