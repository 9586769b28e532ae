// Differential tests for the kernels of the serve tick's fixed per-cell
// path: the register-blocked best-gain scan, the Taylor power-QP
// coefficients, the structured factor's reciprocals, the box-QP start and
// objective, and the sum rate on rate_log2.
//
// Each kernel is held three ways: the active table against the scalar
// table, bit for bit; the scalar table against a reference written out
// here (the pre-vector loops, or the four-lane order the kernel documents);
// and the library entry point that calls it (qos::best_gain_assignment,
// learn::power_qp_coeffs, opt::try_prefactor_dpr1, opt::admm_box_qp) under
// active dispatch and under ForceScalarGuard.  Built with -ffp-contract=off
// (tests/CMakeLists.txt), like test_simd_kernels.cpp, because the
// references restate the kernels' multiply-adds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "rcr/learn/qp.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/qos/rra.hpp"
#include "rcr/rt/simd.hpp"
#include "rcr/testkit/ulp.hpp"

namespace simd = rcr::rt::simd;
namespace num = rcr::num;
namespace opt = rcr::opt;
namespace qos = rcr::qos;
namespace tk = rcr::testkit;
using rcr::Vec;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kSub = std::numeric_limits<double>::denorm_min() * 3.0;

void expect_bits(const Vec& a, const Vec& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(tk::same_bits(a[i], b[i]))
        << what << " index " << i << ": " << a[i] << " vs " << b[i];
}

/// Non-negative gains with the scan's edge values mixed in: ties, NaN, +-0,
/// +inf and subnormals.
num::Matrix edge_gains(std::size_t users, std::size_t rbs, num::Rng& rng) {
  num::Matrix g(users, rbs);
  for (std::size_t u = 0; u < users; ++u)
    for (std::size_t rb = 0; rb < rbs; ++rb) {
      const double r = rng.uniform();
      double v = std::exp(rng.normal());
      if (r < 0.06) v = kNaN;
      else if (r < 0.10) v = 0.0;
      else if (r < 0.14) v = -0.0;
      else if (r < 0.17) v = kInf;
      else if (r < 0.21) v = kSub;
      else if (r < 0.35 && u > 0) v = g(u - 1, rb);  // a tie
      g(u, rb) = v;
    }
  return g;
}

/// The row scan best_gain_assignment ran before the blocked kernel: per RB
/// a running best, its owner and the lowest gain (from 0.0), each user row
/// applied in turn with a strict > and a strict <.
struct RowScan {
  std::vector<std::size_t> owner;
  Vec best;
  bool negative = false;
};
RowScan row_scan(const num::Matrix& g) {
  RowScan out;
  const std::size_t rbs = g.cols();
  out.owner.assign(rbs, 0);
  out.best.resize(rbs);
  Vec lowest(rbs, 0.0);
  for (std::size_t rb = 0; rb < rbs; ++rb) {
    out.best[rb] = g(0, rb);
    if (g(0, rb) < 0.0) lowest[rb] = g(0, rb);
  }
  for (std::size_t u = 1; u < g.rows(); ++u)
    for (std::size_t rb = 0; rb < rbs; ++rb) {
      const double v = g(u, rb);
      if (v > out.best[rb]) {
        out.best[rb] = v;
        out.owner[rb] = u;
      }
      if (v < lowest[rb]) lowest[rb] = v;
    }
  for (double l : lowest) out.negative |= l < 0.0;
  return out;
}

qos::RraProblem problem_of(const num::Matrix& g) {
  qos::RraProblem p;
  p.gain = g;
  p.min_rate.assign(g.rows(), 0.0);
  p.total_power = 1.0;
  return p;
}

/// The four-lane order every summing kernel documents.
template <typename Term>
double lanes(std::size_t n, Term term) {
  double l[4] = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    for (std::size_t j = 0; j < 4; ++j) l[j] += term(i + j);
  double s = (l[0] + l[1]) + (l[2] + l[3]);
  for (; i < n; ++i) s += term(i);
  return s;
}

}  // namespace

TEST(FixedPathKernels, BestGainScanIsTheRowScanOnEveryShape) {
  num::Rng rng(2801);
  const simd::Kernels& A = simd::active();
  const simd::Kernels& S = simd::scalar_kernels();
  for (std::size_t users = 1; users <= 17; ++users)
    for (std::size_t rbs = 1; rbs <= 49; ++rbs) {
      const num::Matrix g = edge_gains(users, rbs, rng);
      const RowScan ref = row_scan(g);
      std::vector<std::size_t> oa(rbs), os(rbs);
      Vec ba(rbs), bs(rbs);
      const bool na =
          A.best_gain_scan(g.data().data(), users, rbs, oa.data(), ba.data());
      const bool ns =
          S.best_gain_scan(g.data().data(), users, rbs, os.data(), bs.data());
      ASSERT_EQ(oa, ref.owner) << users << "x" << rbs;
      ASSERT_EQ(os, ref.owner) << users << "x" << rbs;
      expect_bits(ba, ref.best, "active best");
      expect_bits(bs, ref.best, "scalar best");
      EXPECT_FALSE(ref.negative);
      EXPECT_EQ(na, ref.negative);
      EXPECT_EQ(ns, ref.negative);

      // The library entry point, on both dispatch paths: the same owners,
      // and winning gains equal to assigned_gains bit for bit.
      const qos::RraProblem p = problem_of(g);
      for (bool forced : {false, true}) {
        std::optional<simd::ForceScalarGuard> guard;
        if (forced) guard.emplace();
        qos::Assignment a;
        Vec gains;
        qos::best_gain_assignment(p, a, gains);
        ASSERT_EQ(a, ref.owner) << users << "x" << rbs << " forced " << forced;
        expect_bits(gains, qos::assigned_gains(p, a), "assigned gains");
        ASSERT_EQ(qos::best_gain_assignment(p), ref.owner);
      }
    }
}

TEST(FixedPathKernels, ANegativeGainAnywhereStillThrows) {
  num::Rng rng(2802);
  for (std::size_t users : {1u, 2u, 5u, 17u})
    for (std::size_t rbs : {1u, 3u, 4u, 16u, 17u, 48u, 49u}) {
      num::Matrix g = edge_gains(users, rbs, rng);
      // Neither NaN nor -0.0 is negative.
      ASSERT_NO_THROW(qos::best_gain_assignment(problem_of(g)));
      for (std::size_t u : {std::size_t{0}, users - 1})
        for (std::size_t rb : {std::size_t{0}, rbs / 2, rbs - 1}) {
          num::Matrix bad = g;
          bad(u, rb) = -1e-300;
          const qos::RraProblem p = problem_of(bad);
          for (bool forced : {false, true}) {
            std::optional<simd::ForceScalarGuard> guard;
            if (forced) guard.emplace();
            qos::Assignment a;
            EXPECT_THROW(qos::best_gain_assignment(p, a),
                         std::invalid_argument)
                << users << "x" << rbs << " at (" << u << "," << rb << ")";
          }
        }
    }
}

TEST(FixedPathKernels, PowerQpCoeffsAreTheScalarLoopBitForBit) {
  num::Rng rng(2803);
  for (std::size_t n = 1; n <= 49; ++n) {
    Vec gains(n);
    for (double& g : gains) g = std::exp(2.0 * rng.normal());
    // Edge gains: zero, subnormal, huge, +inf and NaN (never the maximum).
    if (n > 1) gains[n - 1] = 0.0;
    if (n > 2) gains[1] = kSub;
    if (n > 5) gains[5] = 1e300;
    if (n > 6) gains[6] = kNaN;
    if (n > 9) gains[9] = kInf;
    const double p0 = 0.37 / static_cast<double>(n);
    // The loop power_qp_coeffs ran before the kernel, written out.
    Vec curv_ref(n), slope_ref(n);
    double max_ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double g = gains[i];
      const double denom = 1.0 + g * p0;
      curv_ref[i] = g * g * rcr::learn::detail::kInvLn2 / (denom * denom);
      slope_ref[i] = -g * rcr::learn::detail::kInvLn2 / denom;
      if (curv_ref[i] > max_ref) max_ref = curv_ref[i];
    }
    for (bool forced : {false, true}) {
      std::optional<simd::ForceScalarGuard> guard;
      if (forced) guard.emplace();
      Vec curv(n), slope(n);
      const double mx = rcr::learn::power_qp_coeffs(gains.data(), n, p0,
                                                    curv.data(), slope.data());
      expect_bits(curv, curv_ref, "curv");
      expect_bits(slope, slope_ref, "slope");
      EXPECT_TRUE(tk::same_bits(mx, max_ref)) << "n=" << n;
    }
  }
}

TEST(FixedPathKernels, StructuredFactorMatchesItsLaneReference) {
  num::Rng rng(2804);
  const double rho = 1.0;
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 48u, 49u})
    for (double c : {0.0, 0.8}) {
      Vec p_diag(n);
      for (double& v : p_diag) v = c + std::exp(rng.normal());
      // n == 1 has no off-diagonal entry: c is taken as 0.
      const double ce = n == 1 ? 0.0 : c;
      Vec d_ref(n), inv_ref(n);
      for (std::size_t i = 0; i < n; ++i) {
        d_ref[i] = p_diag[i] - ce + rho + 0.0;
        inv_ref[i] = 1.0 / d_ref[i];
      }
      const double sum_ref = lanes(n, [&](std::size_t i) { return inv_ref[i]; });
      for (bool forced : {false, true}) {
        std::optional<simd::ForceScalarGuard> guard;
        if (forced) guard.emplace();
        const auto f = opt::try_prefactor_dpr1(p_diag.data(), n, c, rho);
        ASSERT_TRUE(f.has_value()) << "n=" << n;
        const opt::BoxQpFactor::Dpr1& s = f->value.dpr1;
        expect_bits(s.p_diag, p_diag, "p_diag");
        expect_bits(s.d, d_ref, "d");
        expect_bits(s.inv_d, inv_ref, "inv_d");
        EXPECT_TRUE(tk::same_bits(s.sum_inv, sum_ref)) << "n=" << n;
        EXPECT_EQ(s.c, ce);
      }
    }
}

TEST(FixedPathKernels, EveryStructuredDeclineStillDeclines) {
  const double rho = 1.0;
  const double c = 0.5;
  for (std::size_t n : {1u, 3u, 4u, 5u, 9u}) {
    for (std::size_t at : {std::size_t{0}, n - 1}) {
      // A non-finite d_i: +inf, NaN; a non-positive d_i: P_ii - c + rho <= 0.
      for (double bad : {kInf, kNaN, -kInf, -2.0, -1.0 + (n == 1 ? 0.0 : c)}) {
        Vec p_diag(n, 2.0);
        p_diag[at] = bad;
        for (bool forced : {false, true}) {
          std::optional<simd::ForceScalarGuard> guard;
          if (forced) guard.emplace();
          EXPECT_FALSE(opt::try_prefactor_dpr1(p_diag.data(), n, c, rho))
              << "n=" << n << " at " << at << " P_ii=" << bad;
        }
      }
    }
    // Every d_i = 2e-308 finite and positive, yet sum_i 1/d_i = n * 5e307
    // overflows.
    if (n >= 4) {
      const Vec tiny(n, 1e-308);
      ASSERT_TRUE(std::isfinite(1.0 / (tiny[0] + 1e-308)));
      for (bool forced : {false, true}) {
        std::optional<simd::ForceScalarGuard> guard;
        if (forced) guard.emplace();
        EXPECT_FALSE(opt::try_prefactor_dpr1(tiny.data(), n, 0.0, 1e-308))
            << "n=" << n;
      }
    }
  }
  // A negative or non-finite c declines too.
  Vec p_diag(4, 2.0);
  for (double bad_c : {-1.0, kInf, kNaN})
    EXPECT_FALSE(opt::try_prefactor_dpr1(p_diag.data(), 4, bad_c, rho));
}

TEST(FixedPathKernels, BoxStartAndObjectiveMatchScalar) {
  num::Rng rng(2805);
  const simd::Kernels& A = simd::active();
  const simd::Kernels& S = simd::scalar_kernels();
  for (std::size_t n = 0; n <= 33; ++n) {
    Vec lo(n), hi(n), z0(n), q(n), pd(n);
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = -std::exp(rng.normal());
      hi[i] = std::exp(rng.normal());
      z0[i] = 3.0 * rng.normal();
      q[i] = rng.normal();
      pd[i] = 1.0 + std::exp(rng.normal());
    }
    if (n > 3) {
      q[2] = kNaN;  // never raises the norm
      z0[3] = -0.0;
      lo[1] = hi[1];  // a degenerate box
    }
    if (n >= 8) {
      // The largest |q|, then a NaN in its lane of the last full block:
      // the NaN must not take the lane's maximum with it.
      q[1] = -50.0;
      q[4 * (n / 4) - 3] = kNaN;
    }
    double norm_ref = 0.0;
    for (double v : q) norm_ref = std::max(norm_ref, std::abs(v));
    for (const double* start : {static_cast<const double*>(nullptr),
                                static_cast<const double*>(z0.data())}) {
      Vec za(n), zs(n), zref(n);
      for (std::size_t i = 0; i < n; ++i)
        zref[i] = std::clamp(start != nullptr ? start[i] : 0.0, lo[i], hi[i]);
      const double na =
          A.box_start(lo.data(), hi.data(), start, q.data(), za.data(), n);
      const double ns =
          S.box_start(lo.data(), hi.data(), start, q.data(), zs.data(), n);
      expect_bits(za, zref, "active z");
      expect_bits(zs, zref, "scalar z");
      EXPECT_TRUE(tk::same_bits(na, norm_ref)) << "n=" << n;
      EXPECT_TRUE(tk::same_bits(ns, norm_ref)) << "n=" << n;
    }
    if (n > 0) {
      Vec inverted = lo;
      inverted[n - 1] = hi[n - 1] + 1.0;
      Vec z(n);
      EXPECT_EQ(A.box_start(inverted.data(), hi.data(), nullptr, q.data(),
                            z.data(), n),
                -1.0);
      EXPECT_EQ(S.box_start(inverted.data(), hi.data(), nullptr, q.data(),
                            z.data(), n),
                -1.0);
    }
    q = z0;  // finite q for the objective
    const double c = 0.3;
    const simd::ObjectiveSums oa = A.box_objective(pd.data(), c, q.data(),
                                                   z0.data(), n);
    const simd::ObjectiveSums os = S.box_objective(pd.data(), c, q.data(),
                                                   z0.data(), n);
    const double quad = lanes(
        n, [&](std::size_t i) { return (pd[i] - c) * z0[i] * z0[i]; });
    const double total = lanes(n, [&](std::size_t i) { return z0[i]; });
    const double lin = lanes(n, [&](std::size_t i) { return q[i] * z0[i]; });
    for (const simd::ObjectiveSums& o : {oa, os}) {
      EXPECT_TRUE(tk::same_bits(o.quad, quad)) << "n=" << n;
      EXPECT_TRUE(tk::same_bits(o.total, total)) << "n=" << n;
      EXPECT_TRUE(tk::same_bits(o.lin, lin)) << "n=" << n;
    }
  }
}

TEST(FixedPathKernels, AdmmSolveIsTheSameOnBothDispatchPaths) {
  // The head's whole solve -- coefficients, factor, start, sweep and
  // objective -- on a Taylor QP with n mod 4 != 0, warm and cold.
  num::Rng rng(2806);
  for (std::size_t n : {1u, 5u, 18u, 47u}) {
    Vec gains(n);
    for (double& g : gains) g = std::exp(2.0 * rng.normal());
    const double budget = 2.0;
    const double p0 = budget / static_cast<double>(n);
    struct Run {
      opt::AdmmResult r;
      opt::AdmmWarmState warm;
    };
    Run runs[2];
    for (int forced = 0; forced < 2; ++forced) {
      std::optional<simd::ForceScalarGuard> guard;
      if (forced) guard.emplace();
      Vec p_diag(n), q(n);
      const double mx =
          rcr::learn::power_qp_coeffs(gains.data(), n, p0, p_diag.data(),
                                      q.data());
      const double off = 2.0 * (mx > 0.0 ? mx : 1.0);
      for (double& v : p_diag) v += off;
      const auto f = opt::try_prefactor_dpr1(p_diag.data(), n, off, 1.0);
      ASSERT_TRUE(f.has_value());
      opt::AdmmOptions o;
      o.max_iterations = 400;
      const Vec lo(n, -p0), hi(n, budget - p0);
      Run& run = runs[forced];
      opt::admm_box_qp(f->value, q, lo, hi, o, &run.warm, run.r);  // cold
      q[0] *= 1.01;
      opt::admm_box_qp(f->value, q, lo, hi, o, &run.warm, run.r);  // warm
      EXPECT_EQ(run.r.warm_use, opt::WarmUse::kAccepted);
    }
    EXPECT_EQ(runs[0].r.iterations, runs[1].r.iterations);
    expect_bits(runs[0].r.x, runs[1].r.x, "x");
    expect_bits(runs[0].warm.z, runs[0].r.x, "warm z");
    expect_bits(runs[0].warm.u, runs[1].warm.u, "warm u");
    EXPECT_TRUE(tk::same_bits(runs[0].r.objective, runs[1].r.objective));
  }
}

TEST(FixedPathKernels, ScaledRateMatchesRateLog2InLanes) {
  num::Rng rng(2807);
  const simd::Kernels& A = simd::active();
  const simd::Kernels& S = simd::scalar_kernels();
  for (std::size_t n = 0; n <= 49; ++n) {
    Vec power(n), gain(n);
    for (std::size_t i = 0; i < n; ++i) {
      power[i] = rng.uniform() < 0.15 ? 0.0 : std::exp(rng.normal());
      gain[i] = std::exp(3.0 * rng.normal());
    }
    if (n > 4) {
      power[1] = 0.0;
      gain[1] = kNaN;  // unpowered: adds nothing
      power[2] = -0.0;
      gain[2] = kInf;  // unpowered: adds nothing
      gain[3] = kSub;  // 1 + p g rounds to 1
      power[4] = 1e-300;
    }
    for (double scale : {1.0, 0.731}) {
      Vec pref = power;
      for (double& p : pref) p *= scale;
      const double ref = lanes(n, [&](std::size_t i) {
        return pref[i] != 0.0 ? simd::rate_log2(1.0 + pref[i] * gain[i])
                              : 0.0;
      });
      Vec pa = power, ps = power;
      const double ra = A.scaled_rate(scale, pa.data(), gain.data(), n);
      const double rs = S.scaled_rate(scale, ps.data(), gain.data(), n);
      expect_bits(pa, pref, "active power");
      expect_bits(ps, pref, "scalar power");
      EXPECT_TRUE(tk::same_bits(ra, ref)) << "n=" << n;
      EXPECT_TRUE(tk::same_bits(rs, ref)) << "n=" << n;
      EXPECT_TRUE(std::isfinite(ra)) << "n=" << n;
    }
    if (n > 4) {
      // A +inf gain on a powered RB rates +inf; a NaN power rates NaN.
      for (const simd::Kernels* k : {&A, &S}) {
        Vec p = power, g = gain;
        g[n - 1] = kInf;
        p[n - 1] = 0.5;
        EXPECT_EQ(k->scaled_rate(1.0, p.data(), g.data(), n), kInf);
        p[0] = kNaN;
        EXPECT_TRUE(std::isnan(k->scaled_rate(1.0, p.data(), g.data(), n)));
        p = power;
        p[n - 2] = kNaN;
        EXPECT_TRUE(std::isnan(k->scaled_rate(1.0, p.data(), gain.data(), n)));
      }
    }
  }
}

TEST(FixedPathKernels, RateLog2IsWithinAFewUlpsOfLog2) {
  num::Rng rng(2808);
  // Exact where log2 is: 1 and the powers of two.
  EXPECT_EQ(simd::rate_log2(1.0), 0.0);
  EXPECT_FALSE(std::signbit(simd::rate_log2(1.0)));
  for (int k = -1000; k <= 1000; k += 7)
    EXPECT_EQ(simd::rate_log2(std::ldexp(1.0, k)), static_cast<double>(k));
  // Anything but a normal positive finite x is std::log2's.
  for (double x : {0.0, -0.0, kSub, -1.0, kInf, -kInf, kNaN}) {
    const double a = simd::rate_log2(x);
    const double b = std::log2(x);
    EXPECT_TRUE(tk::same_bits(a, b) || (std::isnan(a) && std::isnan(b)))
        << x;
  }
  // The rate's arguments 1 + p g: within 4 ulps of log2 from sqrt(2) up
  // (log2 x >= 0.5), and below it within 1e-16 + 4e-16 log2 x absolute.
  for (int i = 0; i < 200000; ++i) {
    const double x = 1.0 + std::exp(6.0 * rng.normal());
    const double a = simd::rate_log2(x);
    const double b = std::log2(x);
    if (b >= 0.5)
      ASSERT_LE(tk::ulp_distance(a, b), 4u) << "x=" << x;
    else
      ASSERT_LE(std::abs(a - b), 1e-16 + 4e-16 * b) << "x=" << x;
  }
}
