// Allocation-regression tests: the hot paths must perform zero steady-state
// heap allocations once their workspaces are warm (measured with the
// counting global operator new from rcr_allocprobe).
//
// Exact-zero assertions run under ForceSerialGuard: the parallel runtime
// itself allocates per dispatch (task closures and completion state), which
// is runtime overhead, not kernel workspace churn.  Iterative solvers are
// instead checked for iteration-count independence: doubling the iterations
// must not change the allocation count.
#include <gtest/gtest.h>

#include <cstddef>

#include "rcr/nn/conv.hpp"
#include "rcr/numerics/decompositions.hpp"
#include "rcr/numerics/eigen.hpp"
#include "rcr/numerics/matrix.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/opt/sdp.hpp"
#include "rcr/rt/alloc_probe.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/signal/stft.hpp"
#include "rcr/signal/window.hpp"
#include "rcr/verify/bounds.hpp"
#include "rcr/verify/relu_network.hpp"

namespace rt = rcr::rt;
namespace num = rcr::num;
using rcr::Vec;
using rcr::num::Matrix;

namespace {

Matrix random_matrix(std::size_t r, std::size_t c, num::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  return m;
}

}  // namespace

TEST(AllocRegression, ProbeIsInstalled) {
  ASSERT_TRUE(rt::alloc_probe_active());
  const rt::AllocDelta delta;
  // Call the allocation function directly: a new-expression here could be
  // legally elided by the optimizer, a direct call cannot.
  void* p = ::operator new(32);
  ::operator delete(p);
  EXPECT_GE(delta.delta(), 1u);
}

TEST(AllocRegression, MatmulIntoIsAllocationFreeWarm) {
  rt::ForceSerialGuard serial;
  num::Rng rng(5);
  const Matrix a = random_matrix(48, 32, rng);
  const Matrix b = random_matrix(32, 40, rng);
  Matrix c, g, o, t;
  Vec x = rng.normal_vec(32);
  Vec y;
  num::multiply_into(a, b, c);
  num::multiply_at_b_into(a, a, g);
  num::multiply_abt_into(a, a, o);
  num::transpose_into(a, t);
  num::matvec_into(a, x, y);

  const rt::AllocDelta delta;
  for (int r = 0; r < 20; ++r) {
    num::multiply_into(a, b, c);
    num::multiply_at_b_into(a, a, g);
    num::multiply_abt_into(a, a, o);
    num::transpose_into(a, t);
    num::matvec_into(a, x, y);
  }
  EXPECT_EQ(delta.delta(), 0u);
}

TEST(AllocRegression, LuSolveIntoIsAllocationFreeWarm) {
  rt::ForceSerialGuard serial;
  num::Rng rng(9);
  Matrix a = random_matrix(24, 24, rng);
  for (std::size_t i = 0; i < 24; ++i) a(i, i) += 24.0;
  const Vec b = rng.normal_vec(24);
  num::LuDecomposition lu;
  Vec x;
  num::lu_decompose_into(a, lu);
  lu.solve_into(b, x);

  const rt::AllocDelta delta;
  for (int r = 0; r < 20; ++r) {
    num::lu_decompose_into(a, lu);
    lu.solve_into(b, x);
  }
  EXPECT_EQ(delta.delta(), 0u);
}

TEST(AllocRegression, StftIntoFrameLoopIsAllocationFreeWarm) {
  rt::ForceSerialGuard serial;
  num::Rng rng(17);
  const Vec signal = rng.normal_vec(64 * 40);
  rcr::sig::StftConfig config;
  config.window = rcr::sig::make_window(rcr::sig::WindowKind::kHann, 64);
  config.hop = 16;
  config.fft_size = 64;
  rcr::sig::TfGrid grid;
  rcr::sig::stft_into(signal, config, grid);  // warm: FFT tables + buffers

  const rt::AllocDelta delta;
  for (int r = 0; r < 10; ++r) rcr::sig::stft_into(signal, config, grid);
  EXPECT_EQ(delta.delta(), 0u);
}

TEST(AllocRegression, Conv2dForwardIntoIsAllocationFreeWarm) {
  rt::ForceSerialGuard serial;
  num::Rng rng(23);
  num::Rng init(1);
  rcr::nn::Conv2d conv(3, 8, 3, 1, 1, init);
  rcr::nn::Tensor input({2, 3, 16, 16});
  for (auto& v : input.data()) v = rng.normal();
  rcr::nn::Tensor out;
  conv.forward_into(input, out);  // warm: output, input cache, arena scratch

  const rt::AllocDelta delta;
  for (int r = 0; r < 10; ++r) conv.forward_into(input, out);
  EXPECT_EQ(delta.delta(), 0u);
}

TEST(AllocRegression, AdmmBoxQpAllocsIndependentOfIterationCount) {
  rt::ForceSerialGuard serial;
  num::Rng rng(31);
  const std::size_t n = 24;
  // A dense PSD P (LU x-update) and a diagonal-plus-rank-one P (the O(n)
  // structured x-update): both loops must be allocation-free.
  Matrix dense = random_matrix(n, n, rng);
  dense = num::multiply_at_b(dense, dense);
  for (std::size_t i = 0; i < n; ++i) dense(i, i) += 1.0;
  Matrix dpr1(n, n, 0.75);
  for (std::size_t i = 0; i < n; ++i) dpr1(i, i) += 0.1 + rng.uniform();
  const Vec q = rng.normal_vec(n);
  const Vec lo(n, -1.0);
  const Vec hi(n, 1.0);

  for (const Matrix* p : {&dense, &dpr1}) {
    rcr::opt::AdmmOptions opts;
    // Negative tolerance: the convergence test can never pass (residuals
    // are >= 0), so the solver runs exactly max_iterations.
    opts.tolerance = -1.0;
    const rcr::opt::BoxQpFactor factor =
        rcr::opt::prefactor_box_qp(*p, opts.rho);
    EXPECT_EQ(factor.structured(), p == &dpr1);

    auto allocs_for = [&](std::size_t iterations) {
      opts.max_iterations = iterations;
      rcr::opt::admm_box_qp(*p, factor, q, lo, hi, opts);  // warm
      const rt::AllocDelta delta;
      const rcr::opt::AdmmResult res =
          rcr::opt::admm_box_qp(*p, factor, q, lo, hi, opts);
      EXPECT_EQ(res.iterations, iterations);
      return delta.delta();
    };

    const std::uint64_t short_run = allocs_for(10);
    const std::uint64_t long_run = allocs_for(200);
    EXPECT_EQ(short_run, long_run);
  }
}

TEST(AllocRegression, CappedStructuredAdmmSolveIsAllocationFree) {
  // A solve that exhausts max_iterations reports kNonConverged with the
  // text "max_iterations exhausted", one character past the small-string
  // buffer; written in place into a reused result it allocates nothing.
  rt::ForceSerialGuard serial;
  num::Rng rng(41);
  const std::size_t n = 48;
  Vec p_diag(n);
  for (std::size_t i = 0; i < n; ++i) p_diag[i] = 0.9 + rng.uniform();
  const Vec q = rng.normal_vec(n);
  const Vec lo(n, -0.5);
  const Vec hi(n, 0.5);
  rcr::opt::AdmmOptions opts;
  opts.tolerance = -1.0;  // never converges
  opts.max_iterations = 64;
  const auto factor = rcr::opt::try_prefactor_dpr1(p_diag.data(), n, 0.7,
                                                   opts.rho);
  ASSERT_TRUE(factor.has_value());
  rcr::opt::AdmmWarmState warm;
  rcr::opt::AdmmResult result;
  const auto solve = [&] {
    warm.clear();
    rcr::opt::admm_box_qp(factor->value, q, lo, hi, opts, &warm, result);
  };
  solve();  // grows the result, warm state and arena
  ASSERT_EQ(result.status.code, rcr::robust::StatusCode::kNonConverged);
  const rt::AllocDelta delta;
  solve();
  EXPECT_EQ(delta.delta(), 0u);
  EXPECT_EQ(result.status.code, rcr::robust::StatusCode::kNonConverged);
  EXPECT_EQ(result.status.detail, "max_iterations exhausted");
  EXPECT_TRUE(result.status.trail.empty());
  EXPECT_EQ(result.iterations, 64u);
}

TEST(AllocRegression, StructuredAdmmSolveIsAllocationFreeWarm) {
  // The serve tick's solve: a structured factor rebuilt in place, a warm
  // state and a result reused from the previous solve, iterate buffers
  // from the thread's arena.  Once all of them have grown to n, a converged
  // warm re-solve performs no heap allocation at all.
  rt::ForceSerialGuard serial;
  num::Rng rng(37);
  const std::size_t n = 48;
  Vec p_diag(n);
  for (std::size_t i = 0; i < n; ++i) p_diag[i] = 0.8 + rng.uniform();
  const Vec q = rng.normal_vec(n);
  const Vec lo(n, -1.0);
  const Vec hi(n, 1.0);
  rcr::opt::AdmmOptions opts;
  opts.max_iterations = 4000;
  rcr::robust::Result<rcr::opt::BoxQpFactor> factor;
  rcr::opt::AdmmWarmState warm;
  rcr::opt::AdmmResult result;
  auto solve = [&] {
    ASSERT_TRUE(rcr::opt::try_prefactor_dpr1(p_diag.data(), n, 0.75,
                                             opts.rho, factor));
    rcr::opt::admm_box_qp(factor.value, q, lo, hi, opts, &warm, result);
  };
  solve();  // cold: grows the factor, warm state, result and arena
  ASSERT_TRUE(result.converged);
  const rt::AllocDelta delta;
  solve();
  EXPECT_EQ(delta.delta(), 0u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.warm_use, rcr::opt::WarmUse::kAccepted);
}

TEST(AllocRegression, EigenSymIntoIsAllocationFreeWarm) {
  rt::ForceSerialGuard serial;
  num::Rng rng(41);
  Matrix a = random_matrix(16, 16, rng);
  a.symmetrize();
  num::EigenWorkspace ws;
  num::EigenDecomposition e;
  num::eigen_sym_into(a, ws, e);

  const rt::AllocDelta delta;
  for (int r = 0; r < 10; ++r) num::eigen_sym_into(a, ws, e);
  EXPECT_EQ(delta.delta(), 0u);
}

TEST(AllocRegression, ProjectPsdIntoIsAllocationFreeWarm) {
  rt::ForceSerialGuard serial;
  num::Rng rng(43);
  Matrix a = random_matrix(12, 12, rng);
  a.symmetrize();
  num::PsdProjectWorkspace cold_ws, warm_ws;
  num::PsdProjectOptions warm;
  warm.warm_start = true;
  Matrix out;
  num::project_psd_into(a, cold_ws, out);
  num::project_psd_into(a, warm_ws, out, warm);

  const rt::AllocDelta delta;
  for (int r = 0; r < 10; ++r) {
    num::project_psd_into(a, cold_ws, out);
    num::project_psd_into(a, warm_ws, out, warm);
  }
  EXPECT_EQ(delta.delta(), 0u);
}

TEST(AllocRegression, SdpSolveAllocsIndependentOfIterationCount) {
  rt::ForceSerialGuard serial;
  num::Rng rng(47);
  const std::size_t n = 6;
  rcr::opt::Sdp problem;
  Matrix c = random_matrix(n, n, rng);
  problem.c = num::multiply_at_b(c, c);
  problem.a_eq.push_back(Matrix::identity(n));
  problem.b_eq.push_back(1.0);
  rcr::opt::SdpOptions opts;
  opts.tolerance = -1.0;  // never converges: runs exactly max_iterations
  rcr::opt::SdpWorkspace ws;

  auto allocs_for = [&](std::size_t iterations) {
    opts.max_iterations = iterations;
    rcr::opt::solve_sdp(problem, opts, ws);  // warm
    const rt::AllocDelta delta;
    const rcr::opt::SdpResult res = rcr::opt::solve_sdp(problem, opts, ws);
    EXPECT_EQ(res.iterations, iterations);
    return delta.delta();
  };

  const std::uint64_t short_run = allocs_for(10);
  const std::uint64_t long_run = allocs_for(200);
  EXPECT_EQ(short_run, long_run);
}

TEST(AllocRegression, CrownBoundsWarmCallsAllocateEqually) {
  // Full zero-alloc is not the contract here (the per-layer result boxes
  // are freshly returned each call); the regression guard is that warm
  // calls allocate a stable, input-independent amount -- workspace growth
  // has stopped.
  rt::ForceSerialGuard serial;
  rcr::verify::ReluNetwork net;
  num::Rng rng(7);
  const std::vector<std::size_t> dims = {8, 24, 24, 4};
  for (std::size_t k = 0; k + 1 < dims.size(); ++k) {
    rcr::verify::AffineLayer layer;
    layer.w = Matrix(dims[k + 1], dims[k]);
    layer.b = Vec(dims[k + 1], 0.0);
    for (std::size_t i = 0; i < dims[k + 1]; ++i)
      for (std::size_t j = 0; j < dims[k]; ++j)
        layer.w(i, j) = rng.normal() / 4.0;
    net.layers.push_back(std::move(layer));
  }
  const rcr::verify::Box input = rcr::verify::Box::around(Vec(8, 0.1), 0.05);

  rcr::verify::crown_bounds(net, input);  // warm
  const rt::AllocDelta d1;
  rcr::verify::crown_bounds(net, input);
  const std::uint64_t first = d1.delta();
  const rt::AllocDelta d2;
  rcr::verify::crown_bounds(net, input);
  EXPECT_EQ(first, d2.delta());
}
