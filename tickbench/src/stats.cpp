#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tickbench {

std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_tail) {
  if (samples.empty() || !(q > 0.0) || q > 1.0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const double value = samples[rank - 1];
  const std::size_t above = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), value));
  if (above < min_tail) return std::nullopt;
  return value;
}

std::optional<double> segmented_percentile(
    const std::vector<double>& samples, double q, std::size_t max_segments,
    double across, std::size_t min_tail) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0) || q >= 1.0) return percentile(samples, q, min_tail);
  // A block of m samples leaves about (1 - q) m above its quantile.
  const double per_block = static_cast<double>(min_tail + 1) / (1.0 - q);
  std::size_t segments =
      static_cast<std::size_t>(static_cast<double>(n) / per_block);
  segments = std::clamp<std::size_t>(segments, 1,
                                     std::max<std::size_t>(1, max_segments));
  std::vector<double> values;
  values.reserve(segments);
  for (std::size_t s = 0; s < segments; ++s) {
    const auto lo = samples.begin() + static_cast<std::ptrdiff_t>(s * n / segments);
    const auto hi =
        samples.begin() + static_cast<std::ptrdiff_t>((s + 1) * n / segments);
    const std::optional<double> v =
        percentile(std::vector<double>(lo, hi), q, min_tail);
    if (!v) return std::nullopt;
    values.push_back(*v);
  }
  return quantile(std::move(values), across);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double segmented_rate(const std::vector<double>& work,
                      const std::vector<double>& seconds,
                      std::size_t segments, double across) {
  const std::size_t n = std::min(work.size(), seconds.size());
  if (n == 0) return 0.0;
  if (segments == 0 || n < segments) segments = 1;
  std::vector<double> rates;
  rates.reserve(segments);
  for (std::size_t s = 0; s < segments; ++s) {
    const std::size_t lo = s * n / segments;
    const std::size_t hi = (s + 1) * n / segments;
    double w = 0.0, t = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      w += work[i];
      t += seconds[i];
    }
    if (t > 0.0) rates.push_back(w / t);
  }
  return quantile(std::move(rates), across);
}

double sum_rate(const rcr::Vec& gains, const rcr::Vec& power) {
  double rate = 0.0;
  for (std::size_t rb = 0; rb < gains.size() && rb < power.size(); ++rb)
    rate += std::log2(1.0 + power[rb] * gains[rb]);
  return rate;
}

QualitySample quality_sample(const rcr::qos::RraProblem& problem,
                             const rcr::qos::Assignment& assignment,
                             const rcr::Vec& power) {
  const rcr::Vec gains = rcr::qos::assigned_gains(problem, assignment);
  QualitySample s;
  s.served = sum_rate(gains, power);
  s.reference =
      sum_rate(gains, rcr::qos::waterfill(gains, problem.total_power));
  return s;
}

double quality_ratio(const std::vector<QualitySample>& samples) {
  double served = 0.0, reference = 0.0;
  for (const QualitySample& s : samples) {
    served += s.served;
    reference += s.reference;
  }
  if (reference == 0.0) return served == 0.0 ? 1.0 : 0.0;
  return served / reference;
}

std::string check_allocation(const rcr::qos::RraProblem& problem,
                             const rcr::qos::Assignment& assignment,
                             const rcr::Vec& power, double rel_tol) {
  char buf[160];
  const std::size_t n = problem.num_rbs();
  if (assignment.size() != n) {
    std::snprintf(buf, sizeof(buf), "assignment has %zu entries for %zu RBs",
                  assignment.size(), n);
    return buf;
  }
  for (std::size_t rb = 0; rb < n; ++rb)
    if (assignment[rb] >= problem.num_users()) {
      std::snprintf(buf, sizeof(buf),
                    "RB %zu assigned to user %zu of %zu", rb, assignment[rb],
                    problem.num_users());
      return buf;
    }
  if (power.size() != n) {
    std::snprintf(buf, sizeof(buf), "power has %zu entries for %zu RBs",
                  power.size(), n);
    return buf;
  }
  double total = 0.0;
  for (std::size_t rb = 0; rb < n; ++rb) {
    if (!std::isfinite(power[rb])) {
      std::snprintf(buf, sizeof(buf), "non-finite power on RB %zu", rb);
      return buf;
    }
    if (power[rb] < 0.0) {
      std::snprintf(buf, sizeof(buf), "negative power %.3g on RB %zu",
                    power[rb], rb);
      return buf;
    }
    total += power[rb];
  }
  const double budget = problem.total_power;
  if (std::fabs(total - budget) > rel_tol * std::fabs(budget)) {
    std::snprintf(buf, sizeof(buf), "power sums to %.17g, budget %.17g",
                  total, budget);
    return buf;
  }
  return {};
}

}  // namespace tickbench
