// Differential oracle for the structured box-QP factor.
//
// When P is diagonal-plus-rank-one (every off-diagonal entry bitwise equal
// to one constant c >= 0), prefactor_box_qp keeps an O(n) Sherman-Morrison
// operator instead of an LU.  These tests pin that path against the dense
// LU solve of the same P (a BoxQpFactor holding lu_decompose(P + rho I)),
// pin that every near-miss input stays on the LU path, and pin the P-free
// builder (try_prefactor_dpr1 + the P-free admm_box_qp) bit for bit to the
// dense-P structured path on the serve tick's own Taylor QPs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "rcr/numerics/decompositions.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/serve/workload.hpp"

namespace rcr::opt {
namespace {

struct BoxQp {
  Matrix p;
  Vec q, lo, hi;
};

enum class Curvature { kRandom, kNearZero };

/// P = diag(curv) + c 11^T built the way the serve tick builds it: fill
/// with c, then add the curvature on the diagonal.
BoxQp random_dpr1(std::size_t n, double c, Curvature kind, num::Rng& rng) {
  BoxQp b;
  b.p = Matrix(n, n, c);
  b.q.resize(n);
  b.lo.resize(n);
  b.hi.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double curv = kind == Curvature::kNearZero
                            ? (i % 3 == 0 ? 0.0 : 1e-12 * rng.uniform())
                            : 0.05 + 2.0 * rng.uniform();
    b.p(i, i) += curv;
    b.q[i] = rng.normal();
    b.lo[i] = -0.1 - rng.uniform();
    b.hi[i] = 0.1 + rng.uniform();
  }
  return b;
}

/// The dense reference: the LU of P + rho I, exactly what the LU path of
/// try_prefactor_box_qp stores.
BoxQpFactor lu_factor(const Matrix& p, double rho) {
  Matrix m = p;
  for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += rho;
  BoxQpFactor f;
  f.factor = num::lu_decompose(std::move(m));
  f.rho = rho;
  return f;
}

double max_rel_diff(const Vec& a, const Vec& b) {
  double diff = 0.0;
  double scale = 1.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return diff / scale;
}

TEST(AdmmStructured, AgreesWithDenseLuOnRandomDpr1Problems) {
  num::Rng rng(2024);
  AdmmOptions opts;
  opts.tolerance = 1e-12;
  opts.max_iterations = 200000;
  for (const std::size_t n : {2u, 12u, 48u, 192u}) {
    for (const double c : {0.0, 0.3, 4.0}) {
      for (const Curvature kind : {Curvature::kRandom, Curvature::kNearZero}) {
        for (const bool warm_start : {false, true}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " c=" + std::to_string(c) +
                       " near_zero=" +
                       std::to_string(kind == Curvature::kNearZero) +
                       " warm=" + std::to_string(warm_start));
          const BoxQp b = random_dpr1(n, c, kind, rng);
          const BoxQpFactor fast = prefactor_box_qp(b.p, opts.rho);
          ASSERT_TRUE(fast.structured());
          EXPECT_EQ(fast.dpr1.c, c);
          const BoxQpFactor dense = lu_factor(b.p, opts.rho);
          ASSERT_FALSE(dense.structured());

          AdmmWarmState warm_fast;
          AdmmWarmState warm_dense;
          if (warm_start) {
            for (std::size_t i = 0; i < n; ++i) {
              warm_fast.z.push_back(b.lo[i] + (b.hi[i] - b.lo[i]) *
                                                  rng.uniform());
              warm_fast.u.push_back(0.1 * rng.normal());
            }
            warm_dense = warm_fast;
          }
          const AdmmResult rf =
              admm_box_qp(b.p, fast, b.q, b.lo, b.hi, opts,
                          warm_start ? &warm_fast : nullptr);
          const AdmmResult rd =
              admm_box_qp(b.p, dense, b.q, b.lo, b.hi, opts,
                          warm_start ? &warm_dense : nullptr);
          EXPECT_EQ(rf.converged, rd.converged);
          EXPECT_EQ(rf.status.code, rd.status.code);
          EXPECT_EQ(rf.warm_use, rd.warm_use);
          ASSERT_EQ(rf.x.size(), n);
          EXPECT_LE(max_rel_diff(rf.x, rd.x), 1e-9);
          EXPECT_NEAR(rf.objective, rd.objective,
                      1e-9 * (1.0 + std::abs(rd.objective)));
        }
      }
    }
  }
}

TEST(AdmmStructured, FixedIterationTrajectoriesAgree) {
  // Run both operators for the same fixed number of iterations (a negative
  // tolerance never converges): the iterates, not just the optima, agree.
  num::Rng rng(7);
  AdmmOptions opts;
  opts.tolerance = -1.0;
  opts.max_iterations = 40;
  for (const std::size_t n : {2u, 12u, 48u, 192u}) {
    const BoxQp b = random_dpr1(n, 1.5, Curvature::kRandom, rng);
    const AdmmResult rf = admm_box_qp(
        b.p, prefactor_box_qp(b.p, opts.rho), b.q, b.lo, b.hi, opts);
    const AdmmResult rd =
        admm_box_qp(b.p, lu_factor(b.p, opts.rho), b.q, b.lo, b.hi, opts);
    EXPECT_EQ(rf.iterations, rd.iterations);
    EXPECT_EQ(rf.status.code, rd.status.code);
    EXPECT_LE(max_rel_diff(rf.x, rd.x), 1e-9) << "n=" << n;
  }
}

TEST(AdmmStructured, RidgeShiftsTheStructuredDiagonal) {
  num::Rng rng(11);
  const BoxQp b = random_dpr1(12, 0.5, Curvature::kRandom, rng);
  const robust::Result<BoxQpFactor> f =
      try_prefactor_box_qp(b.p, 1.0, /*ridge=*/1e-6);
  ASSERT_TRUE(f.status.ok());
  ASSERT_TRUE(f.value.structured());
  double sum_inv = 0.0;
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(f.value.dpr1.d[i], b.p(i, i) - 0.5 + 1.0 + 1e-6);
    sum_inv += 1.0 / f.value.dpr1.d[i];
  }
  EXPECT_EQ(f.value.dpr1.sum_inv, sum_inv);
}

TEST(AdmmStructured, NearMissesStayOnTheLuPath) {
  num::Rng rng(5);
  const std::size_t n = 12;
  const double rho = 1.0;
  const BoxQp base = random_dpr1(n, 0.8, Curvature::kRandom, rng);
  ASSERT_TRUE(prefactor_box_qp(base.p, rho).structured());

  BoxQp perturbed = base;  // one off-diagonal pair, one ulp apart
  perturbed.p(3, 7) = std::nextafter(0.8, 1.0);
  perturbed.p(7, 3) = perturbed.p(3, 7);
  BoxQp asymmetric = base;  // a single entry, not mirrored
  asymmetric.p(n - 1, 0) = 0.9;
  BoxQp negative = base;  // c < 0 with a dominant diagonal (still PD)
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      negative.p(i, j) = i == j ? 20.0 : -0.5;

  AdmmOptions opts;
  for (const BoxQp* b : {&perturbed, &asymmetric, &negative}) {
    const BoxQpFactor f = prefactor_box_qp(b->p, rho);
    EXPECT_FALSE(f.structured());
    // And the LU path is the one it always was: bit-identical to a
    // hand-built LU factor.
    const AdmmResult r = admm_box_qp(b->p, f, b->q, b->lo, b->hi, opts);
    const AdmmResult ref =
        admm_box_qp(b->p, lu_factor(b->p, rho), b->q, b->lo, b->hi, opts);
    EXPECT_EQ(r.iterations, ref.iterations);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(r.x[i], ref.x[i]) << i;
    EXPECT_EQ(r.objective, ref.objective);
  }
  // A non-positive shifted diagonal (P not PSD along a coordinate) too.
  BoxQp indefinite = base;
  indefinite.p(2, 2) = 0.8 - 5.0;
  EXPECT_FALSE(try_prefactor_box_qp(indefinite.p, rho).value.structured());
}

TEST(AdmmStructured, Dpr1SolveMatchesDenseSolve) {
  num::Rng rng(13);
  const std::size_t n = 9;
  const double c = 0.7;
  const double shift = 0.25;
  Vec d(n), b(n);
  Matrix m(n, n, c);
  double sum_inv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = 0.1 + rng.uniform();
    b[i] = rng.normal();
    m(i, i) += d[i] + shift;
    sum_inv += 1.0 / (d[i] + shift);
  }
  Vec x(n);
  dpr1_solve(d.data(), shift, c, sum_inv, b.data(), x.data(), n);
  const Vec ref = num::lu_decompose(m).solve(b);
  EXPECT_LE(max_rel_diff(x, ref), 1e-12);
  // In place (x aliasing b) is the same computation.
  Vec inplace = b;
  dpr1_solve(d.data(), shift, c, sum_inv, inplace.data(), inplace.data(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(inplace[i], x[i]);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const Vec& a, const Vec& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(bits(a[i]), bits(b[i])) << what << "[" << i << "]";
}

/// The serve tick's Taylor QPs at `n` RBs, plus one built from gains with
/// every third RB dead (zero curvature and slope).
std::vector<learn::PowerQpData> taylor_qps(std::size_t n) {
  serve::WorkloadConfig wc;
  wc.num_cells = 4;
  wc.num_rbs = n;
  wc.coherence_ticks = 1;
  std::vector<learn::PowerQpData> qps = serve::sample_power_qps(wc, 3);
  num::Rng rng(n);
  Vec gains(n);
  for (std::size_t i = 0; i < n; ++i)
    gains[i] = i % 3 == 0 ? 0.0 : std::exp(rng.normal(0.0, 2.0));
  qps.push_back(learn::make_power_qp(gains, 4.0));
  return qps;
}

/// P = diag(curv) + 2 lambda 11^T exactly as solve_cell assembled it densely.
Matrix dense_p(const learn::PowerQpData& qp) {
  Matrix p(qp.n, qp.n, 2.0 * qp.lambda);
  for (std::size_t i = 0; i < qp.n; ++i) p(i, i) += qp.curv[i];
  return p;
}

std::optional<robust::Result<BoxQpFactor>> p_free_factor(
    const learn::PowerQpData& qp, double rho) {
  const double off_diag = 2.0 * qp.lambda;
  Vec p_diag(qp.n);
  for (std::size_t i = 0; i < qp.n; ++i) p_diag[i] = qp.curv[i] + off_diag;
  return try_prefactor_dpr1(p_diag.data(), qp.n, off_diag, rho);
}

TEST(AdmmStructured, PFreeBuildMatchesTheDensePathBitForBit) {
  AdmmOptions opts;
  opts.tolerance = 1e-6;
  opts.max_iterations = 2000;
  for (const std::size_t n : {1u, 2u, 12u, 48u, 192u}) {
    const std::vector<learn::PowerQpData> qps = taylor_qps(n);
    AdmmWarmState warm_dense;
    AdmmWarmState warm_free;
    for (std::size_t k = 0; k < qps.size(); ++k) {
      const learn::PowerQpData& qp = qps[k];
      SCOPED_TRACE("n=" + std::to_string(n) + " qp=" + std::to_string(k));
      const Matrix p = dense_p(qp);
      const robust::Result<BoxQpFactor> dense =
          try_prefactor_box_qp(p, opts.rho);
      const std::optional<robust::Result<BoxQpFactor>> free =
          p_free_factor(qp, opts.rho);
      ASSERT_TRUE(free.has_value());
      ASSERT_TRUE(dense.status.ok());
      ASSERT_TRUE(free->status.ok());
      ASSERT_TRUE(dense.value.structured());
      ASSERT_TRUE(free->value.structured());
      // n = 1 has no off-diagonal entry: both sides take c = 0.
      if (n == 1) {
        EXPECT_EQ(free->value.dpr1.c, 0.0);
      }
      Vec diag_of_p(n);
      for (std::size_t i = 0; i < n; ++i) diag_of_p[i] = p(i, i);
      expect_bitwise_equal(dense.value.dpr1.p_diag, diag_of_p, "P_ii");
      EXPECT_EQ(bits(free->value.dpr1.c), bits(dense.value.dpr1.c));
      EXPECT_EQ(bits(free->value.dpr1.sum_inv), bits(dense.value.dpr1.sum_inv));
      expect_bitwise_equal(free->value.dpr1.d, dense.value.dpr1.d, "d");
      expect_bitwise_equal(free->value.dpr1.p_diag, dense.value.dpr1.p_diag,
                           "p_diag");

      // Cold, then warm from the state the previous QP left behind (the
      // first QP of each size runs cold on both).
      for (const bool warm : {false, true}) {
        AdmmWarmState cold_dense;
        AdmmWarmState cold_free;
        AdmmWarmState* wd = warm ? &warm_dense : &cold_dense;
        AdmmWarmState* wf = warm ? &warm_free : &cold_free;
        const AdmmResult rd = admm_box_qp(p, dense.value, qp.slope, qp.lo,
                                          qp.hi, opts, wd);
        const AdmmResult rf =
            admm_box_qp(free->value, qp.slope, qp.lo, qp.hi, opts, wf);
        EXPECT_EQ(rf.iterations, rd.iterations);
        EXPECT_EQ(rf.converged, rd.converged);
        EXPECT_EQ(rf.status.code, rd.status.code);
        EXPECT_EQ(rf.warm_use, rd.warm_use);
        EXPECT_EQ(bits(rf.objective), bits(rd.objective));
        expect_bitwise_equal(rf.x, rd.x, "x");
        expect_bitwise_equal(wf->z, wd->z, "warm z");
        expect_bitwise_equal(wf->u, wd->u, "warm u");
      }
    }
  }
}

TEST(AdmmStructured, PFreeBuildDeclinesWhatTheDenseScanDeclines) {
  const double rho = 1.0;
  const double p_diag[] = {2.0, 3.0, 4.0};
  EXPECT_FALSE(try_prefactor_dpr1(p_diag, 0, 0.5, rho).has_value());
  EXPECT_FALSE(try_prefactor_dpr1(p_diag, 3, -0.5, rho).has_value());
  EXPECT_FALSE(
      try_prefactor_dpr1(p_diag, 3, std::numeric_limits<double>::infinity(),
                         rho)
          .has_value());
  EXPECT_FALSE(
      try_prefactor_dpr1(p_diag, 3, std::numeric_limits<double>::quiet_NaN(),
                         rho)
          .has_value());
  // P_00 - c + rho <= 0: not positive along a coordinate.
  EXPECT_FALSE(try_prefactor_dpr1(p_diag, 3, 3.5, rho).has_value());
  const double nan_diag[] = {2.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_FALSE(try_prefactor_dpr1(nan_diag, 2, 0.5, rho).has_value());
  // n = 1 ignores c, as the dense scan does.
  EXPECT_TRUE(try_prefactor_dpr1(p_diag, 1, -0.5, rho).has_value());
  // And the P-free solve refuses a dense factor.
  const BoxQpFactor dense = lu_factor(Matrix::identity(2), rho);
  AdmmOptions opts;
  EXPECT_THROW(admm_box_qp(dense, Vec(2, 0.0), Vec(2, -1.0), Vec(2, 1.0),
                           opts),
               std::invalid_argument);
}

TEST(AdmmStructured, SingularFaultSiteFiresOnThePFreeBuilder) {
  namespace faults = robust::faults;
  const learn::PowerQpData qp = taylor_qps(12).front();
  faults::ScopedFaults scope("seed=1,rate=1,sites=admm.factor.singular,max=1");
  const std::optional<robust::Result<BoxQpFactor>> hit =
      p_free_factor(qp, 1.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status.code, robust::StatusCode::kSingular);
  EXPECT_TRUE(hit->value.factor.singular);
  EXPECT_EQ(faults::injection_count("admm.factor.singular"), 1u);
  // max=1: the next build is clean.
  const std::optional<robust::Result<BoxQpFactor>> clean =
      p_free_factor(qp, 1.0);
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->status.ok());
}

}  // namespace
}  // namespace rcr::opt
