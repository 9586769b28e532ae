// Optimizer properties: prefactored ADMM operators are bit-identical to the
// fresh-factorization path, and the Shor SDP relaxation lower-bounds the
// QCQP barrier optimum (the paper's relaxation-ordering guarantee).
#include <gtest/gtest.h>

#include "rcr/opt/admm.hpp"
#include "rcr/opt/quadratic.hpp"
#include "rcr/testkit/gtest.hpp"
#include "rcr/testkit/metamorphic.hpp"
#include "rcr/testkit/testkit.hpp"

namespace tk = rcr::testkit;
namespace opt = rcr::opt;
using rcr::num::Matrix;
using rcr::Vec;

namespace {

struct BoxQpCase {
  Matrix p;
  Vec q, lo, hi;
};

tk::Gen<BoxQpCase> gen_box_qp() {
  tk::Gen<BoxQpCase> g;
  g.sample = [](rcr::num::Rng& rng) {
    const std::size_t n =
        static_cast<std::size_t>(rng.uniform_int(1, 6));
    BoxQpCase c;
    c.p = opt::random_psd(n, n, rng);
    for (std::size_t i = 0; i < n; ++i) c.p(i, i) += 0.5;  // keep P + rho I sane
    c.q = rng.normal_vec(n);
    c.lo = Vec(n);
    c.hi = Vec(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = rng.uniform(-2.0, 0.0);
      c.lo[i] = a;
      c.hi[i] = a + rng.uniform(0.5, 3.0);
    }
    return c;
  };
  g.show = [](const BoxQpCase& c) {
    return "P = " + tk::show_matrix(c.p) + ", q = " + tk::show_vec(c.q) +
           ", box = [" + tk::show_vec(c.lo) + ", " + tk::show_vec(c.hi) + "]";
  };
  return g;
}

TEST(OptProperties, PrefactoredBoxQpBitIdenticalToFresh) {
  RCR_EXPECT_PROP(tk::check<BoxQpCase>(
      "admm_box_qp prefactored == fresh", gen_box_qp(),
      [](const BoxQpCase& c) {
        opt::AdmmOptions options;
        options.max_iterations = 2000;
        const opt::AdmmResult fresh =
            opt::admm_box_qp(c.p, c.q, c.lo, c.hi, options);
        const opt::BoxQpFactor factor =
            opt::prefactor_box_qp(c.p, options.rho);
        const opt::AdmmResult cached =
            opt::admm_box_qp(c.p, factor, c.q, c.lo, c.hi, options);
        if (fresh.iterations != cached.iterations)
          return std::string("iteration counts diverge");
        if (!tk::same_bits(fresh.objective, cached.objective))
          return std::string("objectives diverge");
        return tk::expect_bits(fresh.x, cached.x, "prefactored x");
      },
      [] {
        tk::CheckOptions o;
        o.cases = 30;
        return o;
      }()));
}

tk::Gen<opt::Qcqp> gen_qcqp() {
  tk::Gen<opt::Qcqp> g;
  g.sample = [](rcr::num::Rng& rng) {
    const std::size_t n =
        static_cast<std::size_t>(rng.uniform_int(2, 4));
    const std::size_t m =
        static_cast<std::size_t>(rng.uniform_int(1, 3));
    return opt::random_convex_qcqp(n, m, 0, rng);
  };
  g.show = [](const opt::Qcqp& q) {
    return "qcqp n=" + std::to_string(q.dim()) +
           " m=" + std::to_string(q.constraints.size());
  };
  return g;
}

TEST(OptProperties, ShorRelaxationLowerBoundsQcqp) {
  RCR_EXPECT_PROP(tk::check<opt::Qcqp>(
      "Shor SDP bound <= barrier optimum", gen_qcqp(),
      [](const opt::Qcqp& q) {
        return tk::check_shor_lower_bounds_qcqp(q);
      },
      [] {
        tk::CheckOptions o;
        o.cases = 10;  // each case solves an SDP; keep the sweep bounded
        return o;
      }()));
}

}  // namespace
