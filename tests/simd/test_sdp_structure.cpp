// Structure-exploiting SDP projection and KKT solves.
//
// solve_sdp has one path: a Schur-complement KKT solve and a warm-started
// PSD projection.  Its oracle is the analytic optimum: for
// min <C, X> s.t. tr X = 1, X >= 0 that is lambda_min(C), and with an extra
// X_00 <= t on a diagonal C it is t c_0 + (1 - t) c_1.  Bit contracts: the
// workspace overload is bit-identical to the allocating solve, and
// project_psd_into's cold path is bit-identical to project_psd.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "rcr/numerics/eigen.hpp"
#include "rcr/numerics/matrix.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/opt/quadratic.hpp"
#include "rcr/opt/sdp.hpp"
#include "rcr/testkit/ulp.hpp"

namespace num = rcr::num;
namespace opt = rcr::opt;
namespace tk = rcr::testkit;
using rcr::Vec;
using rcr::num::Matrix;

namespace {

opt::Sdp seeded_problem(unsigned seed, std::size_t n) {
  num::Rng rng(seed);
  opt::Sdp problem;
  problem.c = opt::random_psd(n, n, rng) - Matrix::identity(n);
  problem.a_eq.push_back(Matrix::identity(n));
  problem.b_eq.push_back(1.0);
  return problem;
}

// min <C, X> s.t. tr X = 1, X >= 0 has the optimum lambda_min(C).
void expect_trace_one_optimum(unsigned seed, std::size_t n,
                              opt::SdpWorkspace& ws) {
  const opt::Sdp problem = seeded_problem(seed, n);
  opt::SdpOptions options;
  options.max_iterations = 4000;
  const opt::SdpResult r = opt::solve_sdp(problem, options, ws);
  const double lambda_min = num::eigen_symmetric(problem.c).eigenvalues[0];
  ASSERT_TRUE(r.converged) << "seed " << seed;
  EXPECT_NEAR(r.objective, lambda_min, 1e-4 * (1.0 + problem.c.max_abs()))
      << "seed " << seed << " n " << n;
}

Matrix random_symmetric(std::size_t n, num::Rng& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.normal();
  m.symmetrize();
  return m;
}

}  // namespace

TEST(SdpStructure, WorkspaceOverloadBitIdenticalToDefault) {
  const opt::Sdp problem = seeded_problem(31, 8);
  opt::SdpOptions options;
  options.max_iterations = 2000;
  const opt::SdpResult plain = opt::solve_sdp(problem, options);
  opt::SdpWorkspace ws;
  const opt::SdpResult first = opt::solve_sdp(problem, options, ws);
  // Reused (warm) workspace must not drift either: the default config never
  // carries state between solves.
  const opt::SdpResult second = opt::solve_sdp(problem, options, ws);
  EXPECT_EQ("", tk::expect_bits(plain.x, first.x, "first"));
  EXPECT_EQ("", tk::expect_bits(plain.x, second.x, "second"));
  EXPECT_EQ(plain.iterations, first.iterations);
  EXPECT_EQ(plain.iterations, second.iterations);
  EXPECT_EQ(plain.objective, first.objective);
}

// The next three tests keep the names they had when a dense KKT solve was
// their reference; the oracle is now the analytic optimum lambda_min(C).
TEST(SdpStructure, StructuredKktMatchesDenseClosely) {
  for (const auto& [seed, n] : {std::pair<unsigned, std::size_t>{61u, 6},
                                {41u, 8}, {42u, 8}, {43u, 8}}) {
    opt::SdpWorkspace ws;
    expect_trace_one_optimum(seed, n, ws);
  }
}

TEST(SdpStructure, WarmStartedProjectionMatchesClosely) {
  // The allocating overload: its workspace, and so its carried eigenbasis,
  // lives only for the one solve.
  const opt::Sdp problem = seeded_problem(44, 8);
  opt::SdpOptions options;
  options.max_iterations = 4000;
  const opt::SdpResult r = opt::solve_sdp(problem, options);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.objective, num::eigen_symmetric(problem.c).eigenvalues[0],
              1e-4 * (1.0 + problem.c.max_abs()));
}

TEST(SdpStructure, FastConfigConvergesAcrossSeededInstances) {
  // One workspace across *different* problems on purpose: a stale
  // eigenbasis may cost sweeps but never correctness.
  opt::SdpWorkspace ws;
  for (unsigned seed : {51u, 52u, 53u, 54u})
    expect_trace_one_optimum(seed, 10, ws);
}

TEST(SdpStructure, StructuredRespectsInequalitiesAndSlacks) {
  // Diagonal C with ascending entries: X_00 <= 0.05 moves the mass the
  // trace-one optimum would put on c_0 onto c_1.
  num::Rng rng(61);
  const std::size_t n = 6;
  Vec diag(n);
  for (double& v : diag) v = rng.normal();
  std::sort(diag.begin(), diag.end());
  opt::Sdp problem;
  problem.c = Matrix::diag(diag);
  problem.a_eq.push_back(Matrix::identity(n));
  problem.b_eq.push_back(1.0);
  Matrix pin(n, n);
  pin(0, 0) = 1.0;
  problem.a_in.push_back(pin);
  problem.b_in.push_back(0.05);  // X_00 <= 0.05

  opt::SdpOptions options;
  options.max_iterations = 6000;
  const opt::SdpResult r = opt::solve_sdp(problem, options);
  ASSERT_TRUE(r.converged);
  const double optimum = 0.05 * diag[0] + 0.95 * diag[1];
  EXPECT_NEAR(r.objective, optimum, 1e-4 * (1.0 + problem.c.max_abs()));
  EXPECT_LE(r.x(0, 0), 0.05 + 1e-4);
}

TEST(SdpStructure, ProjectPsdIntoColdPathBitIdenticalToProjectPsd) {
  for (unsigned seed : {71u, 72u, 73u}) {
    num::Rng rng(seed);
    const Matrix a = random_symmetric(12, rng);
    const Matrix legacy = num::project_psd(a);
    num::PsdProjectWorkspace ws;
    Matrix out;
    num::project_psd_into(a, ws, out);
    EXPECT_EQ("", tk::expect_bits(legacy, out, "cold projection"));
    // Warm reuse of a cold-configured workspace stays bit-identical.
    num::project_psd_into(a, ws, out);
    EXPECT_EQ("", tk::expect_bits(legacy, out, "cold projection reuse"));
  }
}

TEST(SdpStructure, WarmStartedProjectionCloseToColdOnDriftingIterates) {
  num::Rng rng(74);
  const std::size_t n = 10;
  Matrix a = random_symmetric(n, rng);
  num::PsdProjectWorkspace warm_ws;
  num::PsdProjectOptions warm;
  warm.warm_start = true;
  Matrix warm_out, cold_out;
  for (int step = 0; step < 20; ++step) {
    num::project_psd_into(a, warm_ws, warm_out, warm);
    num::PsdProjectWorkspace cold_ws;
    num::project_psd_into(a, cold_ws, cold_out);
    const double scale = 1.0 + a.max_abs();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_NEAR(warm_out(i, j), cold_out(i, j), 1e-9 * scale)
            << "step " << step << " entry (" << i << "," << j << ")";
    // Small drift, mimicking successive ADMM iterates.
    Matrix bump(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) bump(i, j) = 0.02 * rng.normal();
    bump.symmetrize();
    a = a + bump;
  }
}

TEST(SdpStructure, EigenSymIntoWarmReuseBitIdentical) {
  num::Rng rng(76);
  const Matrix a = random_symmetric(16, rng);
  const num::EigenDecomposition fresh = num::eigen_symmetric(a);
  num::EigenWorkspace ws;
  num::EigenDecomposition out;
  num::eigen_sym_into(a, ws, out);
  EXPECT_EQ("", tk::expect_bits(fresh.eigenvectors, out.eigenvectors, "V"));
  EXPECT_EQ("", tk::expect_bits(fresh.eigenvalues, out.eigenvalues, "lambda"));
  // A second decomposition through the same workspace (different matrix
  // first, then the original again) must land on the same bits.
  const Matrix b = random_symmetric(16, rng);
  num::eigen_sym_into(b, ws, out);
  num::eigen_sym_into(a, ws, out);
  EXPECT_EQ("", tk::expect_bits(fresh.eigenvectors, out.eigenvectors, "V2"));
  EXPECT_EQ("", tk::expect_bits(fresh.eigenvalues, out.eigenvalues, "l2"));
}
