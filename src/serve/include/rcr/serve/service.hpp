// Tick-driven QoS allocation service over rcr::qos (DESIGN.md §13).
//
// Every tick the service re-solves radio resource allocation for a fleet of
// cells under a per-tick deadline.  Three mechanisms keep the tick cheap:
//
//  1. Warm starting -- each cell carries the ADMM splitting state of its
//     previous solve; on a slowly-drifting channel the warm solve converges
//     in a fraction of the cold iteration count.  The carried state is the
//     only warm-start source: the rcr::learn head cuts iterations further
//     but costs more wall-clock than it saves, so it is not served
//     (DESIGN.md §16).
//  2. Solution caching -- a sharded LRU keyed by quantized problem
//     signature returns the previous allocation outright when the problem
//     did not change materially (block-fading coherence intervals).
//  3. Batched parallel solves -- cells fan out across the global ThreadPool
//     via rt::parallel_for in groups of cells_per_chunk rounded up to a
//     multiple of kSignatureChains, whose cache signatures are hashed
//     together; the chunk decomposition and per-cell state make results
//     bit-exact for every RCR_THREADS setting.
//
// Degradation: each cell solves through a FallbackChain "serve.cell"
// (warm-started ADMM power QP -> water-filling -> equal power); when the
// tick deadline expires before any step answers, the cell is filled with
// the equal-power allocation inline so every cell always has an answer.
// An answer is typed data: how it was served (CellAllocation::served),
// the chain run's per-step records and whether an injected shed made it.
// The breakers, the brownout depth, the tick report, the exported
// rcr.serve.cell_outcome counter and the scn grader read nothing else.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "rcr/opt/admm.hpp"
#include "rcr/qos/rra.hpp"
#include "rcr/robust/fallback.hpp"
#include "rcr/serve/cache.hpp"
#include "rcr/serve/cached_answer.hpp"
#include "rcr/serve/overload.hpp"
#include "rcr/serve/signature.hpp"
#include "rcr/serve/workload.hpp"

namespace rcr::serve {

/// Service knobs.
struct ServiceConfig {
  bool warm_start = true;     ///< Reuse each cell's previous ADMM state.
  bool cache_enabled = true;  ///< Consult the solution cache before solving.
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 16;
  SignatureConfig signature;
  /// Per-tick wall-clock deadline in seconds; <= 0 runs unlimited (the
  /// deterministic default -- an armed deadline makes degradation
  /// timing-dependent by design).
  double tick_deadline_s = 0.0;
  /// ADMM knobs for the per-cell power QP; admm_rho must be finite and > 0.
  double admm_rho = 1.0;
  double admm_tolerance = 1e-8;
  std::size_t admm_max_iterations = 4000;
  /// Scale of the soft power-budget penalty added to the QP Hessian
  /// (multiplied by the largest curvature entry); must be finite and > 0.
  double budget_penalty = 1.0;
  /// parallel_for grain: cells per chunk, rounded up to a multiple of
  /// kSignatureChains (signature.hpp).
  std::size_t cells_per_chunk = 1;
  /// Overload-control layer (DESIGN.md §15); every piece defaults off, so a
  /// default-configured service behaves exactly as before this layer existed.
  AdmissionConfig admission;
  BrownoutConfig brownout;
  BreakerConfig breaker;
  WatchdogConfig watchdog;
};

/// How a cell's answer was produced this tick: a typed record the breaker,
/// the brownout depth, the tick report and the scn grader switch over.
/// kAdmm, kWaterfill and kEqualPower are the serve.cell chain's steps, in
/// chain order; the last three are the overload layer's snapshot paths.
enum class Served : std::uint8_t {
  kCache,         ///< Solution-cache hit.
  kAdmm,          ///< Chain head: warm-started ADMM power QP.
  kWaterfill,     ///< Chain step 2: water-filling.
  kEqualPower,    ///< Chain tail: equal power (heuristic).
  kDeadlineFill,  ///< Deadline fired before any step ran: equal-power fill.
  kSnapshot,      ///< Deferred by admission: last-known-good snapshot.
  kShedFill,      ///< Shed by admission (policy or injected).
  kQuarantine,    ///< Watchdog quarantine window.
};

/// Stable name of a Served value ("cache", "admm", "waterfill",
/// "equal-power", "deadline-fill", "snapshot", "shed-fill", "quarantine");
/// the serve.cell chain's step names are taken from it.
const char* to_string(Served served);

/// One cell's allocation for the current tick.
struct CellAllocation {
  qos::Assignment assignment;  ///< RB -> user.
  Vec power;                   ///< Per-RB transmit power (sums to budget).
  double sum_rate = 0.0;       ///< Achieved sum spectral efficiency.
  std::size_t iterations = 0;  ///< ADMM iterations spent (0 on hit/fallback).
  opt::WarmUse warm_use = opt::WarmUse::kCold;
  Served served = Served::kAdmm;  ///< How this answer was produced.
  /// The serve.cell chain run that produced this answer, a record per step
  /// (robust::fallthrough counts how far it fell); a cache hit carries the
  /// cached run's records, and an answer no chain ran this tick (snapshot,
  /// shed, quarantine) all kNotRun.
  robust::StepRecords records{};
  bool injected = false;       ///< An injected (serve.admit.shed) shed.
  std::string step;            ///< to_string(served), for readers that
                               ///< still take the name.
};

/// True when the watchdog passes `alloc` and the solution cache may keep
/// it: every power finite and a sum rate that is not NaN or -inf.  A +inf
/// gain on a powered RB rates +inf with finite powers and is a sound
/// answer; serve.solve.corrupt poisons a power, which is caught.  Anything
/// that replays the service's cache decisions should ask this predicate.
bool servable(const CellAllocation& alloc);

/// Per-tick accounting.
struct TickReport {
  std::size_t tick = 0;
  std::size_t cells = 0;
  std::size_t cache_hits = 0;
  std::size_t solves = 0;           ///< Cells that ran the fallback chain.
  std::size_t warm_accepted = 0;    ///< Solves that reused warm state.
  std::size_t degraded = 0;         ///< Cells answered below the ADMM head.
  std::size_t deadline_fills = 0;   ///< Cells filled after deadline expiry.
  std::size_t total_iterations = 0; ///< ADMM iterations across solves.
  double sum_rate = 0.0;            ///< Fleet sum rate this tick.
  double tick_seconds = 0.0;
  // Overload-control accounting (all zero when the layer is off).
  std::size_t admitted = 0;     ///< Cells admitted to the solve chain.
  std::size_t deferred = 0;     ///< Cells served stale from snapshot.
  std::size_t shed = 0;         ///< Cells shed (budget/staleness/injection).
  std::size_t quarantined = 0;  ///< Cells in a watchdog quarantine window.
  int brownout_state = 0;       ///< BrownoutState at the start of the tick.
  /// solution_hash over every cell's answer: the cross-thread determinism
  /// witness.
  std::uint64_t solution_hash = 0;
};

/// The tick report's witness over `cells`' answers.  Each cell's chain
/// starts at kHashBasis and takes, one mix_word step a word, its assignment
/// and power lengths, its assignment entries and its powers' bit patterns;
/// the chains of four cells advance together (mix_chains), and the cells'
/// end states then fold into one chain in cell order.  A pure function of
/// the answers, so it is the same on every thread count and dispatch path,
/// and it moves when any one power bit or assignment entry does.
std::uint64_t solution_hash(std::span<const CellAllocation> cells);

/// The tick loop.  Construct once per fleet; call tick() with consecutive
/// tick indices.  Not itself thread-safe (one driver thread); the internal
/// per-cell solves fan out across the pool.
class AllocationService {
 public:
  /// Reads cell c's current problem; must be valid for the tick() call.
  using ProblemFn = std::function<const RraProblem&(std::size_t)>;

  /// Throws std::invalid_argument on zero cells, or when budget_penalty or
  /// admm_rho is not finite and positive.
  AllocationService(const ServiceConfig& config, std::size_t num_cells);

  /// Solve every cell for `tick_index`.  `problem_of` is called once per
  /// cell (from pool threads; it must be safe to call concurrently for
  /// distinct cells -- a const workload qualifies).
  TickReport tick(std::size_t tick_index, const ProblemFn& problem_of);

  /// Convenience: tick against a DiurnalWorkload (advance() it first).
  TickReport tick(std::size_t tick_index, const DiurnalWorkload& workload);

  std::size_t num_cells() const { return warm_.size(); }

  /// Cell c's allocation from the most recent tick().
  const CellAllocation& allocation(std::size_t c) const { return current_[c]; }

  CacheStats cache_stats() const { return cache_.stats(); }

  /// The brownout state machine (advances once per tick when enabled).
  const BrownoutController& brownout() const { return brownout_; }

 private:
  /// Per-cell overload state: the last-known-good snapshot the cell serves
  /// from while deferred/shed/quarantined, plus its breakers.  Mutated only
  /// by the cell's own pool task or the serial tick boundary.
  struct CellRuntime {
    qos::Assignment snapshot_assignment;
    Vec snapshot_power;
    bool has_snapshot = false;
    std::uint64_t last_fresh_tick = 0;  ///< Tick of the last fresh answer.
    std::uint64_t quarantine_until = 0;
    CircuitBreaker admm_breaker;
    CircuitBreaker waterfill_breaker;
  };

  /// Per-cell solve buffers, kept from tick to tick so a steady tick
  /// solves, caches and serves into storage it already owns: the best-gain
  /// assignment, the assigned gains, q and the box, the structured factor
  /// and the ADMM result; the power buffer the chain's steps write into,
  /// which trades places with current_'s on every solve; and the cache entry
  /// a hit is copied into and a put is staged in.  Touched only by the
  /// cell's own pool task.
  struct CellScratch {
    qos::Assignment assignment;
    Vec gains;
    Vec q;
    Vec lo;
    Vec hi;
    robust::Result<opt::BoxQpFactor> factor;
    opt::AdmmResult admm;
    Vec power;
    detail::CachedAnswer entry;
  };

  /// Serve cells [c0, c1), one fan-out group, for this tick: best-gain
  /// assignments and cache signatures for the admitted cells, then each
  /// cell in turn.
  void serve_group(std::size_t c0, std::size_t c1, std::uint64_t tick,
                   const AdmissionPlan& plan,
                   const robust::Deadline& deadline,
                   const ProblemFn& problem_of);
  /// Solve admitted cell `cell` into current_[cell]: cache lookup under
  /// `sig`, then the fallback chain, breakers, sum rate and cache put.
  /// Its assignment is already in scratch_[cell].
  void solve_cell(const RraProblem& problem, std::size_t cell,
                  std::uint64_t tick, std::uint64_t stamp, std::uint64_t sig,
                  const robust::Deadline& deadline);
  /// Serve a non-admitted cell from its snapshot (or an equal-power
  /// rebuild when the snapshot no longer matches the problem shape).
  CellAllocation serve_from_snapshot(const RraProblem& problem,
                                     std::size_t cell, AdmitDecision reason,
                                     bool injected);
  /// The tick's admission plan, into plan_ (gates_ holds its inputs).
  void build_plan(std::uint64_t tick, bool full_shed, BrownoutState state);

  ServiceConfig config_;
  ShardedLruCache<detail::CachedAnswer> cache_;
  std::vector<opt::AdmmWarmState> warm_;
  std::vector<CellScratch> scratch_;
  std::vector<CellAllocation> current_;
  std::vector<CellRuntime> runtime_;
  std::vector<CellGate> gates_;
  AdmissionPlan plan_;
  BrownoutController brownout_;
};

}  // namespace rcr::serve
