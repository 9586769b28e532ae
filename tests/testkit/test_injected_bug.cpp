// Acceptance test for the whole testkit pipeline: a deliberately broken
// cache-blocked matmul (the inner-dimension remainder tile is dropped, a
// classic blocking off-by-one) must be caught by a property sweep, shrunk to
// a minimal counterexample, and the printed seed must replay the failure
// deterministically via RCR_TESTKIT_SEED.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "rcr/numerics/matrix.hpp"
#include "rcr/testkit/testkit.hpp"

namespace tk = rcr::testkit;
using rcr::num::Matrix;

namespace {

// Blocked matmul with the injected bug: the k-loop walks full tiles only, so
// any inner dimension with k % kTile != 0 silently loses the tail products.
constexpr std::size_t kTile = 4;

Matrix buggy_blocked_multiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  const std::size_t k_full = (a.cols() / kTile) * kTile;  // BUG: no remainder
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kTile) {
    const std::size_t i1 = std::min(a.rows(), i0 + kTile);
    for (std::size_t k0 = 0; k0 < k_full; k0 += kTile) {
      const std::size_t k1 = k0 + kTile;
      for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = a(i, k);
          for (std::size_t j = 0; j < b.cols(); ++j)
            out(i, j) += aik * b(k, j);
        }
    }
  }
  return out;
}

// Correct control: same blocking, with the remainder tile handled.
Matrix fixed_blocked_multiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kTile) {
    const std::size_t i1 = std::min(a.rows(), i0 + kTile);
    for (std::size_t k0 = 0; k0 < a.cols(); k0 += kTile) {
      const std::size_t k1 = std::min(a.cols(), k0 + kTile);
      for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = a(i, k);
          for (std::size_t j = 0; j < b.cols(); ++j)
            out(i, j) += aik * b(k, j);
        }
    }
  }
  return out;
}

struct MatmulCase {
  Matrix a;
  Matrix b;
};

// Structured generator: dims in [1, 9] hit both full-tile and remainder
// shapes; shrinking peels dimensions and simplifies entries toward +/-1 so
// the minimal counterexample is human-readable.
tk::Gen<MatmulCase> gen_matmul_case() {
  tk::Gen<MatmulCase> g;
  g.sample = [](rcr::num::Rng& rng) {
    MatmulCase c;
    const auto dim = [&rng] {
      return static_cast<std::size_t>(rng.uniform_int(1, 9));
    };
    const std::size_t r = dim(), k = dim(), cc = dim();
    c.a = Matrix(r, k);
    c.b = Matrix(k, cc);
    for (std::size_t i = 0; i < r; ++i)
      for (std::size_t j = 0; j < k; ++j) c.a(i, j) = rng.normal();
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < cc; ++j) c.b(i, j) = rng.normal();
    return c;
  };
  g.shrink = [](const MatmulCase& c) {
    std::vector<MatmulCase> out;
    const auto truncated = [](const Matrix& m, std::size_t r, std::size_t cc) {
      Matrix t(r, cc);
      for (std::size_t i = 0; i < r; ++i)
        for (std::size_t j = 0; j < cc; ++j) t(i, j) = m(i, j);
      return t;
    };
    const std::size_t r = c.a.rows(), k = c.a.cols(), cc = c.b.cols();
    if (k > 2) {  // most aggressive first: inner dim straight to 1
      MatmulCase s;
      s.a = truncated(c.a, r, 1);
      s.b = truncated(c.b, 1, cc);
      out.push_back(std::move(s));
    }
    if (k > 1) {
      MatmulCase s;
      s.a = truncated(c.a, r, k - 1);
      s.b = truncated(c.b, k - 1, cc);
      out.push_back(std::move(s));
    }
    if (r > 1) {
      MatmulCase s;
      s.a = truncated(c.a, r - 1, k);
      s.b = c.b;
      out.push_back(std::move(s));
    }
    if (cc > 1) {
      MatmulCase s;
      s.a = c.a;
      s.b = truncated(c.b, k, cc - 1);
      out.push_back(std::move(s));
    }
    for (Matrix MatmulCase::*field : {&MatmulCase::a, &MatmulCase::b}) {
      const Matrix& m = c.*field;
      std::size_t budget = 8;
      for (std::size_t i = 0; i < m.rows() && budget > 0; ++i)
        for (std::size_t j = 0; j < m.cols() && budget > 0; ++j)
          for (double candidate : tk::shrink_double(m(i, j))) {
            MatmulCase s = c;
            (s.*field)(i, j) = candidate;
            out.push_back(std::move(s));
            --budget;
            if (budget == 0) break;
          }
    }
    return out;
  };
  g.show = [](const MatmulCase& c) {
    return "A = " + tk::show_matrix(c.a) + ", B = " + tk::show_matrix(c.b);
  };
  return g;
}

std::string agrees_with_reference(const MatmulCase& c,
                                  Matrix (*impl)(const Matrix&,
                                                 const Matrix&)) {
  const Matrix reference = c.a * c.b;
  const Matrix candidate = impl(c.a, c.b);
  // A forward-error oracle: a sum of k products computed in any order, with
  // or without FMA contraction, lies within gamma_k (|A||B|)_ij of the exact
  // sum, so two such sums agree within 2 gamma_k (|A||B|)_ij.  The bound
  // below keeps a factor of two in hand; the injected bug is off by entire
  // products.
  const std::size_t k = c.a.cols();
  const double u = std::numeric_limits<double>::epsilon() / 2.0;
  for (std::size_t i = 0; i < reference.rows(); ++i)
    for (std::size_t j = 0; j < reference.cols(); ++j) {
      double magnitude = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        magnitude += std::abs(c.a(i, p)) * std::abs(c.b(p, j));
      const double bound = 4.0 * static_cast<double>(k) * u * magnitude;
      if (!(std::abs(reference(i, j) - candidate(i, j)) <= bound)) {
        std::ostringstream os;
        os.precision(17);
        os << "blocked matmul vs reference mismatch at (" << i << ", " << j
           << "): " << reference(i, j) << " vs " << candidate(i, j)
           << ", forward-error bound " << bound;
        return os.str();
      }
    }
  return "";
}

TEST(TestkitInjectedBug, CorrectBlockedKernelPassesTheSweep) {
  const auto r = tk::check<MatmulCase>(
      "fixed blocked matmul matches the reference", gen_matmul_case(),
      [](const MatmulCase& c) {
        return agrees_with_reference(c, &fixed_blocked_multiply);
      });
  EXPECT_TRUE(r.ok) << r.report;
}

TEST(TestkitInjectedBug, BuggyKernelIsCaughtShrunkAndReplayable) {
  const auto prop = [](const MatmulCase& c) {
    return agrees_with_reference(c, &buggy_blocked_multiply);
  };
  const auto r = tk::check<MatmulCase>("buggy blocked matmul",
                                       gen_matmul_case(), prop);

  // 1. Caught: the sweep must fail (remainder shapes are drawn constantly).
  ASSERT_FALSE(r.ok);

  // 2. Reported: the failure block carries a replayable seed and the
  //    shrunk counterexample.
  EXPECT_NE(r.report.find("RCR_TESTKIT_SEED="), std::string::npos);
  EXPECT_NE(r.report.find("counterexample"), std::string::npos);
  EXPECT_FALSE(r.counterexample.empty());

  // 3. Shrunk: greedy shrinking must reach the minimal failing shape --
  //    a 1x1 times 1x1 product (inner dim 1 is the smallest remainder).
  EXPECT_GT(r.shrink_steps, 0u);
  EXPECT_NE(r.counterexample.find("matrix 1x1"), std::string::npos)
      << r.counterexample;

  // 4. Replayable: pinning RCR_TESTKIT_SEED to the printed seed reproduces
  //    the identical failure in a single case.
  const std::string seed_str = std::to_string(r.failing_seed);
  ::setenv("RCR_TESTKIT_SEED", seed_str.c_str(), 1);
  const auto replay =
      tk::check<MatmulCase>("buggy blocked matmul", gen_matmul_case(), prop);
  ::unsetenv("RCR_TESTKIT_SEED");
  ASSERT_FALSE(replay.ok);
  EXPECT_EQ(replay.cases_run, 1u);
  EXPECT_EQ(replay.failing_seed, r.failing_seed);
  EXPECT_EQ(replay.counterexample, r.counterexample);
  EXPECT_EQ(replay.report, r.report);
}

TEST(TestkitInjectedBug, BugIsInvisibleOnFullTileShapes) {
  // Sanity: on k % 4 == 0 the buggy kernel is exact -- the property pipeline
  // is what surfaces the remainder case, not luck.
  rcr::num::Rng rng(4242);
  Matrix a(4, 8), b(8, 4);
  for (auto& v : a.data()) v = rng.normal();
  for (auto& v : b.data()) v = rng.normal();
  const MatmulCase c{a, b};
  EXPECT_EQ(agrees_with_reference(c, &buggy_blocked_multiply), "");
}

}  // namespace
