#include "rcr/opt/admm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "rcr/opt/qcqp.hpp"

namespace rcr::opt {
namespace {

TEST(AdmmBoxQp, DimensionChecks) {
  EXPECT_THROW(admm_box_qp(Matrix(2, 2), {1.0}, {0.0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      admm_box_qp(Matrix::identity(1), {0.0}, {1.0}, {0.0}),  // lo > hi
      std::invalid_argument);
}

TEST(AdmmBoxQp, InteriorOptimum) {
  // min (x-0.3)^2 on [0,1] -> 0.3.
  const AdmmResult r = admm_box_qp(Matrix{{2.0}}, {-0.6}, {0.0}, {1.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.3, 1e-6);
}

TEST(AdmmBoxQp, ClampedOptimum) {
  // min (x-3)^2 on [0,1] -> 1.
  const AdmmResult r = admm_box_qp(Matrix{{2.0}}, {-6.0}, {0.0}, {1.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
}

TEST(AdmmBoxQp, MatchesBarrierSolverOnRandomProblems) {
  num::Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 4;
    const Matrix p0 = random_psd(n, n, rng) + Matrix::identity(n);
    const Vec q = rng.normal_vec(n);
    const Vec lo(n, -1.0);
    const Vec hi(n, 1.0);

    const AdmmResult admm = admm_box_qp(p0, q, lo, hi);
    ASSERT_TRUE(admm.converged);

    Qp qp;
    qp.p = p0;
    qp.q = q;
    qp.g = Matrix(2 * n, n);
    qp.h.assign(2 * n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      qp.g(i, i) = 1.0;
      qp.g(n + i, i) = -1.0;
    }
    const QcqpResult barrier = solve_qp(qp, Vec(n, 0.0));
    ASSERT_TRUE(barrier.converged);

    EXPECT_NEAR(admm.objective, barrier.value,
                1e-4 * (1.0 + std::abs(barrier.value)));
  }
}

TEST(AdmmBoxQp, SolutionAlwaysFeasible) {
  num::Rng rng(2);
  const Matrix p = random_psd(3, 3, rng);
  const Vec q = rng.normal_vec(3, 0.0, 10.0);
  const AdmmResult r = admm_box_qp(p, q, Vec(3, -0.5), Vec(3, 0.5));
  for (double v : r.x) {
    EXPECT_GE(v, -0.5 - 1e-12);
    EXPECT_LE(v, 0.5 + 1e-12);
  }
}

}  // namespace
}  // namespace rcr::opt
