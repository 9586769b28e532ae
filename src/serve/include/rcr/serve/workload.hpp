// Diurnal multi-cell workload generator for the allocation-service soak
// bench and tests.
//
// Each cell carries a population of users that tracks a sinusoidal diurnal
// curve (phase-shifted per cell so the fleet never peaks at once) and a
// block-fading channel: gains hold still for `coherence_ticks`, then refresh
// by an AR(1) blend toward a fresh fading draw.  Holding the channel still
// between refreshes is what gives the solution cache its hits; the AR(1)
// blend (rather than an independent redraw) is what keeps consecutive
// problems close enough that warm-started solves converge in a few
// iterations.
//
// Determinism: every cell owns its own seeded Rng stream, and advance() is
// called from one thread, so the generated problem sequence depends only on
// (config, tick) -- never on thread count or scheduling.
#pragma once

#include <cstdint>
#include <vector>

#include "rcr/learn/qp.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/qos/channel.hpp"
#include "rcr/qos/rra.hpp"

namespace rcr::serve {

using num::Matrix;
using qos::RraProblem;

/// Workload shape.
struct WorkloadConfig {
  std::size_t num_cells = 8;
  std::size_t num_rbs = 12;
  std::size_t min_users = 2;    ///< Trough of the diurnal curve.
  std::size_t peak_users = 6;   ///< Crest of the diurnal curve.
  std::size_t period_ticks = 128;  ///< Diurnal period.
  /// Channel coherence: fading refreshes every this many ticks (>= 1);
  /// between refreshes a cell's problem is bit-identical tick to tick.
  std::size_t coherence_ticks = 4;
  /// AR(1) innovation weight of a fading refresh: 0 freezes the channel,
  /// 1 redraws it independently.  Small values keep consecutive problems
  /// close (the warm-start regime).
  double fade_blend = 0.3;
  double total_power = 4.0;    ///< Per-cell budget (watts).
  double min_rate = 0.05;      ///< Per-user QoS floor (bit/s/Hz).
  qos::ChannelConfig channel;  ///< Geometry/path-loss template per cell.
  std::uint64_t seed = 42;
};

/// Tick-stepped generator.  Call advance(t) with consecutive t starting at
/// 0, then read cell(c) / changed(c).
class DiurnalWorkload {
 public:
  explicit DiurnalWorkload(const WorkloadConfig& config);

  /// Step every cell to tick `t` (arrivals/departures toward the diurnal
  /// target, fading refresh on coherence expiry).  Must be called with
  /// consecutive ticks; throws std::invalid_argument otherwise.
  void advance(std::size_t tick);

  std::size_t num_cells() const { return cells_.size(); }

  /// Cell c's problem at the current tick.
  const RraProblem& cell(std::size_t c) const { return cells_[c].problem; }

  /// True when cell c's problem changed at the last advance() (arrival,
  /// departure, or fading refresh).  Always true at tick 0.
  bool changed(std::size_t c) const { return cells_[c].changed; }

  /// Diurnal target user count for cell c at tick t.
  std::size_t target_users(std::size_t c, std::size_t tick) const;

 private:
  struct CellState {
    num::Rng rng;
    Vec distances;        ///< Per-user geometry (slow state).
    Matrix fading;        ///< Per-user x RB fading power (fast state).
    RraProblem problem;   ///< Assembled gains + budget + floors.
    bool changed = true;

    explicit CellState(std::uint64_t seed) : rng(seed) {}
  };

  void rebuild_problem(CellState& cell) const;
  void add_user(CellState& cell);
  void remove_user(CellState& cell);
  void refresh_fading(CellState& cell);

  WorkloadConfig config_;
  std::vector<CellState> cells_;
  std::size_t next_tick_ = 0;
};

/// Sample the per-cell power QPs a serve run would solve over the first
/// `ticks` ticks of a DiurnalWorkload(config): best-gain assignment +
/// Taylor coefficients, built exactly the way solve_cell builds them.
/// This is the training/eval dataset for rcr::learn's warm-start
/// predictor -- generated here so it sees the serving distribution without
/// depending on the service itself.
std::vector<learn::PowerQpData> sample_power_qps(const WorkloadConfig& config,
                                                 std::size_t ticks,
                                                 double budget_penalty = 1.0);

}  // namespace rcr::serve
