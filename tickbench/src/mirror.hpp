// Traced replay of one AllocationService tick from outside the program.
//
// The service's per-cell solve is private, so the traced run re-issues, on
// the same inputs, the public calls solve_cell makes -- signature, cache
// lookup, assignment, QP coefficients, dense P assembly, prefactor and
// warm-started ADMM inside a FallbackChain, cache insert -- with its own
// per-cell AdmmWarmState and its own ShardedLruCache, each call under a
// span.  On a fault-free workload the replay makes exactly the service's
// decisions (same signatures, same stamps, same cache protocol, same warm
// states), so its ADMM iteration and cache-hit totals must equal the
// service's TickReport totals; a mismatch means the per-layer numbers would
// describe a different program.  Under faults and overload the replay
// follows the step the service served (snapshot, waterfill, equal power)
// and is not held to the equality.  On every workload the replay rebuilds
// the tick's admission plan with serve::plan_admission from the staleness
// and quarantine windows it tracks, and that plan must give every cell the
// decision the service acted on.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rcr/learn/predictor.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/serve/cache.hpp"
#include "rcr/serve/service.hpp"
#include "spans.hpp"

namespace tickbench {

/// Counts accumulated by the replay.
struct MirrorTotals {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_puts = 0;
  std::uint64_t iterations = 0;      ///< ADMM iterations across solves.
  std::uint64_t warm_attempted = 0;  ///< Solves handed a non-empty state.
  std::uint64_t warm_accepted = 0;
  std::uint64_t predicts = 0;        ///< Learned-head probes.
  std::int64_t iterations_saved = 0; ///< Sum of (warm - learned) iterations.
  std::uint64_t plan_mismatches = 0; ///< Ticks the replayed plan got wrong.

  MirrorTotals& operator+=(const MirrorTotals& o) {
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_puts += o.cache_puts;
    iterations += o.iterations;
    warm_attempted += o.warm_attempted;
    warm_accepted += o.warm_accepted;
    predicts += o.predicts;
    iterations_saved += o.iterations_saved;
    plan_mismatches += o.plan_mismatches;
    return *this;
  }
};

class Mirror {
 public:
  using ProblemFn = rcr::serve::AllocationService::ProblemFn;

  /// `predictor` (may be null) is probed on every solve to price the
  /// learned head the service has switched off.
  Mirror(const rcr::serve::ServiceConfig& config, std::size_t cells,
         SpanRecorder& spans, const rcr::learn::WarmStartPredictor* predictor);

  /// Replay tick `tick` after the service served it: `service` holds the
  /// served allocations and `report` the service's accounting.
  void replay_tick(std::uint64_t tick, const ProblemFn& problem_of,
                   const rcr::serve::AllocationService& service,
                   const rcr::serve::TickReport& report);

  const MirrorTotals& totals() const { return totals_; }

 private:
  void replay_cell(std::uint64_t tick, std::size_t cell,
                   const rcr::qos::RraProblem& problem,
                   const rcr::serve::CellAllocation& served,
                   bool from_snapshot, std::size_t max_iterations);

  rcr::serve::ServiceConfig config_;
  SpanRecorder& spans_;
  const rcr::learn::WarmStartPredictor* predictor_;
  rcr::serve::ShardedLruCache<rcr::serve::CellAllocation> cache_;
  std::vector<rcr::opt::AdmmWarmState> warm_;
  std::vector<std::uint64_t> last_fresh_;
  std::vector<std::uint64_t> quarantine_until_;
  MirrorTotals totals_;
};

}  // namespace tickbench
