// The structured box-QP iteration runs as the two-pass rt::simd sweep.
// These tests hold it, bit for bit and on every dispatch path, to the loop
// it replaced: dpr1_solve (the one definition of the Sherman-Morrison
// order), then the std::clamp projection, the dual update and the residual
// sums in ascending order.  This file builds with -ffp-contract=off (see
// tests/CMakeLists.txt) so a global -mfma build cannot contract the
// reference loop below.
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

struct Outcome {
  Vec z, u;
  std::size_t iterations = 0;
  bool converged = false;
};

/// The box-QP iteration as it read before the sweep: rhs, dpr1_solve, then
/// projection, dual update and residual sums, from the warm start (z, u).
Outcome reference_solve(const BoxQpFactor& f, const Vec& q, const Vec& lo,
                        const Vec& hi, const AdmmOptions& options, Vec z,
                        Vec u) {
  const std::size_t n = q.size();
  for (std::size_t i = 0; i < n; ++i) z[i] = std::clamp(z[i], lo[i], hi[i]);
  Vec rhs(n), x(n), z_prev(n);
  const double scale = 1.0 + num::norm_inf(q);
  Outcome out;
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i)
      rhs[i] = options.rho * (z[i] - u[i]) - q[i];
    dpr1_solve(f.dpr1.d.data(), 0.0, f.dpr1.c, f.dpr1.sum_inv, rhs.data(),
               x.data(), n);
    z_prev = z;
    for (std::size_t i = 0; i < n; ++i)
      z[i] = std::clamp(x[i] + u[i], lo[i], hi[i]);
    for (std::size_t i = 0; i < n; ++i) u[i] += x[i] - z[i];
    double primal2 = 0.0;
    double dual2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double pd = x[i] - z[i];
      primal2 += pd * pd;
      const double dd = z[i] - z_prev[i];
      dual2 += dd * dd;
    }
    out.iterations = it + 1;
    if (std::sqrt(primal2) <= options.tolerance * scale &&
        options.rho * std::sqrt(dual2) <= options.tolerance * scale) {
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

TEST(AdmmSweep, FusedSweepIsDpr1SolveThenProjectionBitForBit) {
  num::Rng rng(4242);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 12u, 48u, 49u}) {
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
                                              opts, pr.z0, pr.u0);
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

}  // namespace
}  // namespace rcr::opt
