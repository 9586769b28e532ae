// The box-QP ADMM's adaptive rho (OSQP's residual-balanced rule, every 100
// iterations, acting beyond 5x).  An exact oracle for the structured
// box-QP holds adapted solves to the optimum across six decades of
// curvature, under an iteration cap that a fixed rho = 1 misses; the
// remaining tests pin the step's contracts: a poisoned iterate on an
// adaptation iteration never adapts and clears the warm state, the warm
// state an adapted solve leaves is a fixed point in the base rho's units,
// and the iterates are the same bits on every dispatch path and pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rcr/numerics/rng.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/simd.hpp"
#include "rcr/rt/thread_pool.hpp"

namespace rcr::opt {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// minimize 1/2 x^T (diag(p_diag) - c I + c 11^T) x + q^T x on [lo, hi].
struct StructuredQp {
  Vec p_diag, q, lo, hi;
  double c = 0.0;

  double objective(const Vec& x) const {
    double quad = 0.0, total = 0.0, lin = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      quad += (p_diag[i] - c) * x[i] * x[i];
      total += x[i];
      lin += q[i] * x[i];
    }
    return 0.5 * (quad + c * total * total) + lin;
  }
};

/// A random structured QP with curvature (P and q) scaled by `kappa`: the
/// optimum does not move, but a fixed rho = 1 is mis-scaled by kappa.
StructuredQp random_qp(std::size_t n, double kappa, num::Rng& rng) {
  StructuredQp qp;
  qp.c = kappa * (0.25 + rng.uniform());
  for (std::size_t i = 0; i < n; ++i) {
    qp.p_diag.push_back(qp.c + kappa * (0.05 + 2.0 * rng.uniform()));
    qp.q.push_back(kappa * 2.0 * rng.normal());
    qp.lo.push_back(-0.1 - rng.uniform());
    qp.hi.push_back(0.1 + rng.uniform());
  }
  return qp;
}

/// The exact optimum.  With a_i = P_ii - c > 0 and s = sum_j x_j the KKT
/// conditions give x_i(s) = clamp(-(q_i + c s) / a_i, lo_i, hi_i), so s is
/// the root of the monotone (non-increasing) sum_i x_i(s) - s on
/// [sum lo, sum hi], found by bisection to adjacent doubles.
Vec exact_optimum(const StructuredQp& qp) {
  const std::size_t n = qp.q.size();
  const auto x_of = [&](double s, Vec& x) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = std::clamp(-(qp.q[i] + qp.c * s) / (qp.p_diag[i] - qp.c),
                        qp.lo[i], qp.hi[i]);
      total += x[i];
    }
    return total - s;
  };
  Vec x(n);
  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    lo += qp.lo[i];
    hi += qp.hi[i];
  }
  for (int k = 0; k < 2000; ++k) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    (x_of(mid, x) > 0.0 ? lo : hi) = mid;
  }
  x_of(0.5 * (lo + hi), x);
  return x;
}

/// Iterations a fixed-rho ADMM (the same splitting, dpr1_solve's x-update,
/// no adaptation) needs to meet `tolerance`, or `cap` + 1 when it does not
/// within `cap`.
std::size_t fixed_rho_iterations(const StructuredQp& qp, double rho,
                                 double tolerance, std::size_t cap) {
  const std::size_t n = qp.q.size();
  Vec d(n), rhs(n), x(n), z(n, 0.0), u(n, 0.0);
  double sum_inv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = qp.p_diag[i] - qp.c + rho;
    sum_inv += 1.0 / d[i];
    z[i] = std::clamp(0.0, qp.lo[i], qp.hi[i]);
  }
  double q_norm = 0.0;
  for (double v : qp.q) q_norm = std::max(q_norm, std::abs(v));
  const double scale = 1.0 + q_norm;
  for (std::size_t it = 1; it <= cap; ++it) {
    for (std::size_t i = 0; i < n; ++i) rhs[i] = rho * (z[i] - u[i]) - qp.q[i];
    dpr1_solve(d.data(), 0.0, qp.c, sum_inv, rhs.data(), x.data(), n);
    double primal2 = 0.0, dual2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double zi = std::clamp(x[i] + u[i], qp.lo[i], qp.hi[i]);
      u[i] += x[i] - zi;
      primal2 += (x[i] - zi) * (x[i] - zi);
      dual2 += (zi - z[i]) * (zi - z[i]);
      z[i] = zi;
    }
    if (std::sqrt(primal2) <= tolerance * scale &&
        rho * std::sqrt(dual2) <= tolerance * scale)
      return it;
  }
  return cap + 1;
}

BoxQpFactor factor_of(const StructuredQp& qp, double rho = 1.0) {
  const std::optional<robust::Result<BoxQpFactor>> f = try_prefactor_dpr1(
      qp.p_diag.data(), qp.q.size(), qp.c, rho);
  EXPECT_TRUE(f.has_value());
  return f->value;
}

TEST(AdmmAdaptiveRho, AdaptedSolvesMeetTheExactOracleAcrossCurvatureScales) {
  // Adapted solves take 121-332 iterations here; a fixed rho = 1 takes
  // 6k-57k at kappa = 1e-3 and 1e3 (and 37-136 at kappa = 1, where the
  // step never acts).
  num::Rng rng(2929);
  AdmmOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iterations = 400;
  for (const double kappa : {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3}) {
    for (const std::size_t n : {4u, 12u, 48u}) {
      SCOPED_TRACE("kappa=" + std::to_string(kappa) +
                   " n=" + std::to_string(n));
      const StructuredQp qp = random_qp(n, kappa, rng);
      const AdmmResult r =
          admm_box_qp(factor_of(qp), qp.q, qp.lo, qp.hi, opts);
      ASSERT_TRUE(r.converged);
      if (kappa != 1.0) EXPECT_GT(r.rho_updates, 0u);
      if (kappa <= 1e-3 || kappa >= 1e3)
        EXPECT_GT(fixed_rho_iterations(qp, 1.0, opts.tolerance,
                                       opts.max_iterations),
                  opts.max_iterations);
      const double best = qp.objective(exact_optimum(qp));
      EXPECT_LE(std::abs(r.objective - best), 1e-9 * std::abs(best));
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_GE(r.x[i], qp.lo[i]);
        EXPECT_LE(r.x[i], qp.hi[i]);
      }
    }
  }
}

/// A fault config whose admm.iterate.nan stream fires first (and, capped,
/// only) on hit `hit`, found by scanning seeds at a 1% rate.
robust::faults::FaultConfig nan_on_hit(std::uint64_t hit) {
  robust::faults::FaultConfig fc;
  fc.enabled = true;
  fc.rate = 0.01;
  fc.sites = "admm.iterate.nan";
  fc.max_per_site = 1;
  for (fc.seed = 1;; ++fc.seed) {
    robust::faults::ScopedFaults probe(fc);
    std::uint64_t first = 0;
    for (std::uint64_t h = 1; h <= hit && first == 0; ++h)
      if (robust::faults::should_inject("admm.iterate.nan")) first = h;
    if (first == hit) return fc;
  }
}

TEST(AdmmAdaptiveRho, NanOnAnAdaptationIterationNeverAdaptsAndClearsWarm) {
  num::Rng rng(77);
  const StructuredQp qp = random_qp(12, 1e3, rng);
  const BoxQpFactor f = factor_of(qp);
  AdmmOptions opts;
  opts.max_iterations = 101;
  // Unfaulted, the solve adapts on iteration 100.
  const AdmmResult clean = admm_box_qp(f, qp.q, qp.lo, qp.hi, opts);
  ASSERT_FALSE(clean.converged);
  ASSERT_EQ(clean.rho_updates, 1u);

  AdmmWarmState warm;
  const robust::faults::FaultConfig fc = nan_on_hit(100);
  AdmmResult faulted;
  {
    robust::faults::ScopedFaults scoped(fc);
    faulted = admm_box_qp(f, qp.q, qp.lo, qp.hi, opts, &warm);
  }
  EXPECT_EQ(faulted.status.code, robust::StatusCode::kNumericalFailure);
  EXPECT_EQ(faulted.iterations, 100u);
  EXPECT_EQ(faulted.rho_updates, 0u);
  EXPECT_TRUE(warm.empty());
  for (std::size_t i = 0; i < qp.q.size(); ++i) {
    EXPECT_TRUE(std::isfinite(faulted.x[i]));
    EXPECT_GE(faulted.x[i], qp.lo[i]);
    EXPECT_LE(faulted.x[i], qp.hi[i]);
  }
}

TEST(AdmmAdaptiveRho, WarmStateOfAnAdaptedSolveIsAFixedPointAtTheBaseRho) {
  num::Rng rng(91);
  for (const double kappa : {1e-3, 1e-2, 1e2, 1e3}) {
    for (const std::size_t n : {4u, 12u, 48u}) {
      SCOPED_TRACE("kappa=" + std::to_string(kappa) +
                   " n=" + std::to_string(n));
      const StructuredQp qp = random_qp(n, kappa, rng);
      const BoxQpFactor f = factor_of(qp);
      AdmmOptions opts;
      AdmmWarmState warm;
      const AdmmResult first = admm_box_qp(f, qp.q, qp.lo, qp.hi, opts, &warm);
      ASSERT_TRUE(first.converged);
      ASSERT_GT(first.rho_updates, 0u);
      const AdmmResult again = admm_box_qp(f, qp.q, qp.lo, qp.hi, opts, &warm);
      EXPECT_EQ(again.warm_use, WarmUse::kAccepted);
      EXPECT_TRUE(again.converged);
      EXPECT_LE(again.iterations, 2u);
      EXPECT_EQ(again.rho_updates, 0u);
      // The restart moves z by no more than the stopping test allows.
      double q_norm = 0.0;
      for (double v : qp.q) q_norm = std::max(q_norm, std::abs(v));
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(again.x[i], first.x[i], opts.tolerance * (1.0 + q_norm));
    }
  }
}

struct Solve {
  Vec x, u;
  std::size_t iterations = 0;
  std::size_t rho_updates = 0;
};

Solve solve(const StructuredQp& qp) {
  AdmmOptions opts;
  AdmmWarmState warm;
  const AdmmResult r =
      admm_box_qp(factor_of(qp), qp.q, qp.lo, qp.hi, opts, &warm);
  return {r.x, warm.u, r.iterations, r.rho_updates};
}

void expect_same_bits(const Solve& a, const Solve& b, const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.rho_updates, b.rho_updates) << what;
  ASSERT_EQ(a.x.size(), b.x.size()) << what;
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_EQ(bits(a.x[i]), bits(b.x[i])) << what << " x[" << i << "]";
    EXPECT_EQ(bits(a.u[i]), bits(b.u[i])) << what << " u[" << i << "]";
  }
}

TEST(AdmmAdaptiveRho, AdaptedIteratesAreTheSameOnEveryPathAndPool) {
  num::Rng rng(5150);
  std::vector<StructuredQp> qps;
  for (const double kappa : {1e-3, 1e-1, 1e1, 1e3})
    for (const std::size_t n : {3u, 12u, 48u, 49u})
      qps.push_back(random_qp(n, kappa, rng));
  std::vector<Solve> reference;
  std::size_t adapted = 0;
  for (const StructuredQp& qp : qps) {
    reference.push_back(solve(qp));
    adapted += reference.back().rho_updates;
  }
  ASSERT_GT(adapted, 0u);
  {
    rt::simd::ForceScalarGuard scalar;
    for (std::size_t k = 0; k < qps.size(); ++k)
      expect_same_bits(solve(qps[k]), reference[k],
                       "scalar, problem " + std::to_string(k));
  }
  const std::size_t saved = rt::global_threads();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    rt::set_global_threads(threads);
    std::vector<Solve> pooled(qps.size());
    rt::parallel_for(0, qps.size(), 1, [&](std::size_t k0, std::size_t k1) {
      for (std::size_t k = k0; k < k1; ++k) pooled[k] = solve(qps[k]);
    });
    for (std::size_t k = 0; k < qps.size(); ++k)
      expect_same_bits(pooled[k], reference[k],
                       std::to_string(threads) + " threads, problem " +
                           std::to_string(k));
  }
  rt::set_global_threads(saved);
}

}  // namespace
}  // namespace rcr::opt
