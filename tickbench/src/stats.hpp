// Pure helpers behind the tick benchmark's end-to-end numbers: the
// percentile rule, the waterfill-reference quality ratio and the served
// allocation feasibility checker.  Kept free of clocks and global state so
// the unit tests can pin them on hand-built inputs.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rcr/qos/rra.hpp"

namespace tickbench {

/// Minimum number of samples that must lie strictly above a reported
/// percentile; a tail thinner than this is noise, not a percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank `q`-quantile (q in (0, 1]) of `samples`, or nullopt when
/// fewer than `min_tail` samples lie strictly above it (the value would rest
/// on a handful of outliers) or `samples` is empty.
std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_tail = kMinTailSamples);

/// Linear-interpolation `q`-quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Block statistics.  A run is cut into contiguous, equal-count blocks and a
// figure is computed per block; the run reports the `across`-quantile of the
// block figures.  Interference from other tenants of a shared host comes in
// bursts and phases that only ever slow a block down; a quantile across
// blocks keeps a few disturbed blocks from setting the run's figure, where
// a whole-run tail percentile would take in every burst.

/// `across`-quantile over `segments` blocks of sum(work) / sum(seconds).
/// Fewer samples than segments fall back to one block.
double segmented_rate(const std::vector<double>& work,
                      const std::vector<double>& seconds,
                      std::size_t segments, double across);

/// `across`-quantile over blocks of each block's nearest-rank `q`-quantile,
/// using as many blocks (at most `max_segments`) as still leave `min_tail`
/// samples above each block's quantile; nullopt when even one block cannot.
std::optional<double> segmented_percentile(
    const std::vector<double>& samples, double q, std::size_t max_segments,
    double across, std::size_t min_tail = kMinTailSamples);

/// Sum spectral efficiency sum_rb log2(1 + power[rb] * gains[rb]).
double sum_rate(const rcr::Vec& gains, const rcr::Vec& power);

/// Served and reference sum rate of one cell-tick.  The reference is
/// qos::waterfill on the served assignment: the exact optimum of the cell's
/// power problem once the assignment is fixed, so served <= reference up to
/// rounding and served / reference is the power solver's quality.
struct QualitySample {
  double served = 0.0;
  double reference = 0.0;
};
QualitySample quality_sample(const rcr::qos::RraProblem& problem,
                             const rcr::qos::Assignment& assignment,
                             const rcr::Vec& power);

/// Ratio of summed served to summed reference sum rate (1 when both are 0).
double quality_ratio(const std::vector<QualitySample>& samples);

/// Feasibility verdict for one served allocation: empty when the power
/// vector is finite, non-negative, sums to the cell budget within
/// `rel_tol` (relative), and the assignment has one in-range user index per
/// RB; otherwise the first violation found.
std::string check_allocation(const rcr::qos::RraProblem& problem,
                             const rcr::qos::Assignment& assignment,
                             const rcr::Vec& power, double rel_tol = 1e-9);

}  // namespace tickbench
