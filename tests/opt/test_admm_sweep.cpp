// The structured box-QP iteration runs as the two-pass rt::simd sweep.
// These tests hold it, bit for bit and on every dispatch path, to the
// iteration written out plainly: the diagonal solve by the reciprocal
// diagonal inv_d, the x-sum and residual sums in the sweep's four-lane
// order, the rank-one correction, the std::clamp projection and the dual
// update.  A second reference runs the Sherman-Morrison solve in
// dpr1_solve's order (divides, one ascending sum), which the sweep matches
// to rounding.  This file builds with -ffp-contract=off (see
// tests/CMakeLists.txt) so a global -mfma build cannot contract the
// reference loops below.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "rcr/numerics/rng.hpp"
#include "rcr/numerics/vector_ops.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/rt/simd.hpp"

namespace rcr::opt {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const Vec& a, const Vec& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(bits(a[i]), bits(b[i])) << what << "[" << i << "]";
}

/// rt::simd::SweepSums' order: lane j adds the entries i = j mod 4 below
/// the last multiple of 4 from 0.0, the lanes combine as (l0 + l1) +
/// (l2 + l3), then the tail adds in ascending order.
double lane_sum(const Vec& v) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= v.size(); i += 4)
    for (std::size_t j = 0; j < 4; ++j) lane[j] += v[i + j];
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < v.size(); ++i) sum += v[i];
  return sum;
}

double ascending_sum(const Vec& v) {
  double sum = 0.0;
  for (double e : v) sum += e;
  return sum;
}

struct Outcome {
  Vec z, u;
  std::size_t iterations = 0;
  bool converged = false;
};

/// The box-QP iteration from the warm start (z, u): x = S^-1 (rho (z - u) -
/// q), gamma, the correction, projection, dual update and residual sums.
/// `sweep_order` takes S^-1 as a multiply by inv_d with four-lane sums (the
/// sweep's order); otherwise as dpr1_solve computes it, dividing by d with
/// ascending sums.
Outcome reference_solve(const BoxQpFactor& f, const Vec& q, const Vec& lo,
                        const Vec& hi, const AdmmOptions& options, Vec z,
                        Vec u, bool sweep_order) {
  const std::size_t n = q.size();
  for (std::size_t i = 0; i < n; ++i) z[i] = std::clamp(z[i], lo[i], hi[i]);
  Vec rhs(n), x(n), z_prev(n), primal_terms(n), dual_terms(n);
  const double scale = 1.0 + num::norm_inf(q);
  const auto sum = sweep_order ? lane_sum : ascending_sum;
  Outcome out;
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i)
      rhs[i] = options.rho * (z[i] - u[i]) - q[i];
    if (sweep_order) {
      for (std::size_t i = 0; i < n; ++i) x[i] = rhs[i] * f.dpr1.inv_d[i];
      const double gamma = (f.dpr1.c * lane_sum(x)) /
                           (1.0 + f.dpr1.c * f.dpr1.sum_inv);
      for (std::size_t i = 0; i < n; ++i) x[i] -= gamma * f.dpr1.inv_d[i];
    } else {
      dpr1_solve(f.dpr1.d.data(), 0.0, f.dpr1.c, f.dpr1.sum_inv, rhs.data(),
                 x.data(), n);
    }
    z_prev = z;
    for (std::size_t i = 0; i < n; ++i)
      z[i] = std::clamp(x[i] + u[i], lo[i], hi[i]);
    for (std::size_t i = 0; i < n; ++i) {
      const double pd = x[i] - z[i];
      u[i] += pd;
      primal_terms[i] = pd * pd;
      const double dd = z[i] - z_prev[i];
      dual_terms[i] = dd * dd;
    }
    out.iterations = it + 1;
    if (std::sqrt(sum(primal_terms)) <= options.tolerance * scale &&
        options.rho * std::sqrt(sum(dual_terms)) <= options.tolerance * scale) {
      out.converged = true;
      break;
    }
  }
  out.z = z;
  out.u = u;
  return out;
}

struct Problem {
  Vec p_diag, q, lo, hi, z0, u0;
  double c = 0.0;
};

Problem random_problem(std::size_t n, num::Rng& rng) {
  Problem p;
  p.c = 0.25 + rng.uniform();
  for (std::size_t i = 0; i < n; ++i) {
    p.p_diag.push_back(p.c + 0.05 + 2.0 * rng.uniform());
    p.q.push_back(2.0 * rng.normal());
    p.lo.push_back(-0.1 - rng.uniform());
    p.hi.push_back(0.1 + rng.uniform());
    // Warm starts partly outside the box: the solve re-clamps them.
    p.z0.push_back(1.5 * rng.normal());
    p.u0.push_back(0.3 * rng.normal());
  }
  return p;
}

TEST(AdmmSweep, FusedSweepIsTheReciprocalLaneIterationBitForBit) {
  num::Rng rng(4242);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 12u, 48u, 49u}) {
    const Problem pr = random_problem(n, rng);
    const std::optional<robust::Result<BoxQpFactor>> f =
        try_prefactor_dpr1(pr.p_diag.data(), n, pr.c, 1.0);
    ASSERT_TRUE(f.has_value());
    ASSERT_TRUE(f->status.ok());
    // Fixed trajectories (a negative tolerance never converges), then a
    // converging solve whose stopping iteration the residual sums decide.
    for (const double tolerance : {-1.0, 1e-9}) {
      for (const std::size_t iterations : {1u, 2u, 7u, 400u}) {
        for (const bool force_scalar : {false, true}) {
          SCOPED_TRACE("n=" + std::to_string(n) +
                       " tol=" + std::to_string(tolerance) +
                       " iters=" + std::to_string(iterations) +
                       " scalar=" + std::to_string(force_scalar));
          AdmmOptions opts;
          opts.tolerance = tolerance;
          opts.max_iterations = iterations;
          const Outcome ref = reference_solve(f->value, pr.q, pr.lo, pr.hi,
                                              opts, pr.z0, pr.u0, true);
          AdmmWarmState warm{pr.z0, pr.u0};
          std::optional<rt::simd::ForceScalarGuard> guard;
          if (force_scalar) guard.emplace();
          const AdmmResult r =
              admm_box_qp(f->value, pr.q, pr.lo, pr.hi, opts, &warm);
          EXPECT_EQ(r.warm_use, WarmUse::kAccepted);
          EXPECT_EQ(r.iterations, ref.iterations);
          EXPECT_EQ(r.converged, ref.converged);
          expect_bitwise_equal(r.x, ref.z, "z");
          expect_bitwise_equal(warm.z, ref.z, "warm z");
          expect_bitwise_equal(warm.u, ref.u, "warm u");
        }
      }
    }
  }
}

TEST(AdmmSweep, SweepMatchesTheDpr1SolveOrderToRounding) {
  num::Rng rng(4243);
  for (const std::size_t n : {1u, 5u, 12u, 48u, 49u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Problem pr = random_problem(n, rng);
    const std::optional<robust::Result<BoxQpFactor>> f =
        try_prefactor_dpr1(pr.p_diag.data(), n, pr.c, 1.0);
    ASSERT_TRUE(f.has_value());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(bits(f->value.dpr1.inv_d[i]),
                bits(1.0 / f->value.dpr1.d[i]));
    AdmmOptions opts;
    opts.tolerance = 1e-12;
    opts.max_iterations = 4000;
    const Outcome ref = reference_solve(f->value, pr.q, pr.lo, pr.hi, opts,
                                        pr.z0, pr.u0, false);
    AdmmWarmState warm{pr.z0, pr.u0};
    const AdmmResult r = admm_box_qp(f->value, pr.q, pr.lo, pr.hi, opts, &warm);
    ASSERT_TRUE(ref.converged);
    ASSERT_TRUE(r.converged);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(r.x[i], ref.z[i], 1e-9) << "index " << i;
  }
}

}  // namespace
}  // namespace rcr::opt
