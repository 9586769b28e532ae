// SIMD kernel layer + the solvers built on it.
//
// Two layers of measurement:
//
//   kernels   rcr::rt::simd primitives (dot, axpy, matmul, matvec, FFT,
//             and the serve tick's fixed-path kernels on a 16-user x
//             48-RB wide-refresh cell) timed on the active dispatch table
//             and again under ForceScalarGuard -- the intra-run
//             vectorization gain.
//   solvers   the obs-bench ADMM / SDP workload (same Rng(7) draw, same
//             sizes): the box-QP, and the SDP through a reused workspace.
//
// Writes BENCH_perf_simd.json.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "rcr/numerics/matrix.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/obs/obs.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/opt/quadratic.hpp"
#include "rcr/opt/sdp.hpp"
#include "rcr/rt/simd.hpp"
#include "rcr/signal/fft.hpp"

namespace {

using rcr::Vec;
using rcr::num::Matrix;
using rcr::num::Rng;
namespace simd = rcr::rt::simd;

// Kernel timings should price the arithmetic, not the dispatch telemetry.
class DisarmObs {
 public:
  DisarmObs()
      : metrics_(rcr::obs::metrics_enabled()),
        trace_(rcr::obs::trace_enabled()) {
    rcr::obs::set_metrics_enabled(false);
    rcr::obs::set_trace_enabled(false);
  }
  ~DisarmObs() {
    rcr::obs::set_metrics_enabled(metrics_);
    rcr::obs::set_trace_enabled(trace_);
  }

 private:
  bool metrics_;
  bool trace_;
};

volatile double g_sink = 0.0;

}  // namespace

int main() {
  const bool smoke = rcr::bench::smoke_mode();
  const int reps = smoke ? 3 : 12;
  std::printf("=== simd kernels (path=%s, threads=%zu%s) ===\n\n",
              simd::path_name(), rcr::rt::global_threads(),
              smoke ? ", smoke" : "");

  rcr::bench::Harness h("simd_kernels");

  DisarmObs off;
  Rng rng(7);

  // --- kernel layer: active table vs forced-scalar -----------------------
  {
    const std::size_t len = smoke ? 1024 : 4096;
    const Vec a = rng.normal_vec(len);
    const Vec b = rng.normal_vec(len);
    Vec c(len, 0.0);
    const std::string size = "len=" + std::to_string(len);
    const int kreps = reps * 64;

    const auto dot = [&] {
      g_sink = simd::active().dot_seq(0.0, a.data(), b.data(), len);
    };
    const auto axpy = [&] {
      simd::active().axpy(1.0 + 1e-9, a.data(), c.data(), len);
    };
    h.run("dot/simd", size, kreps, dot);
    h.run("axpy/simd", size, kreps, axpy);
    {
      simd::ForceScalarGuard scalar;
      h.run("dot/scalar", size, kreps, dot);
      h.run("axpy/scalar", size, kreps, axpy);
    }
  }
  {
    const std::size_t n = smoke ? 48 : 96;
    Rng mrng(11);
    const Matrix ma = rcr::opt::random_psd(n, n, mrng);
    const Matrix mb = rcr::opt::random_psd(n, n, mrng);
    Matrix mc(n, n);
    Vec x = mrng.normal_vec(n);
    Vec y(n, 0.0);
    const std::string size = "n=" + std::to_string(n);

    const auto matmul = [&] { rcr::num::multiply_into(ma, mb, mc); };
    const auto matvec = [&] { rcr::num::matvec_into(ma, x, y); };
    h.run("matmul/simd", size, reps, matmul);
    h.run("matvec/simd", size, reps * 16, matvec);
    {
      simd::ForceScalarGuard scalar;
      h.run("matmul/scalar", size, reps, matmul);
      h.run("matvec/scalar", size, reps * 16, matvec);
    }
  }
  {
    const std::size_t n = smoke ? 1024 : 8192;
    Rng frng(13);
    rcr::sig::CVec sig(n);
    for (auto& v : sig) v = {frng.normal(), frng.normal()};
    rcr::sig::FftWorkspace fws;
    rcr::sig::CVec work;
    const std::string size = "n=" + std::to_string(n);

    const auto fft = [&] {
      work = sig;
      rcr::sig::fft_inplace(work, fws);
    };
    h.run("fft/simd", size, reps * 4, fft);
    {
      simd::ForceScalarGuard scalar;
      h.run("fft/scalar", size, reps * 4, fft);
    }
  }

  // --- solver layer: the obs-bench workload -----------------------------
  // Same generator stream as bench_obs_overhead (Rng(7), box-QP drawn
  // first) so the records here are directly comparable to its off legs.
  {
    const std::size_t n = smoke ? 24 : 64;
    const Matrix p = rcr::opt::random_psd(n, n, rng) + Matrix::identity(n);
    const Vec q = rng.normal_vec(n);
    const Vec lo(n, -1.0), hi(n, 1.0);
    const std::string size = "n=" + std::to_string(n);

    h.run("admm_boxqp", size, reps,
          [&] { rcr::opt::admm_box_qp(p, q, lo, hi); });
  }
  for (const std::size_t n : {std::size_t{6}, smoke ? std::size_t{12}
                                                     : std::size_t{48}}) {
    // The serve head's solve: a structured (diagonal-plus-rank-one) factor,
    // warm state and result reused, 64 fixed iterations of the box-QP sweep
    // (a negative tolerance never converges), so ns/op / 64 is the cost of
    // one iteration.  n = 6 is a conformance-fleet cell, n = 48 a
    // wide-refresh one.  Its own generator keeps the rows below unchanged.
    Rng srng(13);
    Vec p_diag(n);
    for (double& v : p_diag) v = 0.9 + srng.uniform();
    const Vec q = srng.normal_vec(n);
    const Vec lo(n, -0.5), hi(n, 0.5);
    const auto factor = rcr::opt::try_prefactor_dpr1(p_diag.data(), n, 0.7, 1.0);
    rcr::opt::AdmmOptions opts;
    opts.tolerance = -1.0;
    opts.max_iterations = 64;
    rcr::opt::AdmmWarmState warm;
    rcr::opt::AdmmResult result;
    const auto sweep = [&] {
      warm.clear();
      rcr::opt::admm_box_qp(factor->value, q, lo, hi, opts, &warm, result);
    };
    const std::string size = "n=" + std::to_string(n) + ",iters=64";
    h.run("admm_dpr1/simd", size, reps * 64, sweep);
    {
      simd::ForceScalarGuard scalar;
      h.run("admm_dpr1/scalar", size, reps * 64, sweep);
    }
  }
  {
    // The serve tick's fixed per-cell path on one wide-refresh cell: the
    // best-gain scan, the Taylor coefficients, the structured factor's
    // reciprocals, the box-QP start and objective, and the finish.  Its
    // own generator keeps the rows below unchanged.
    const std::size_t users = 16;
    const std::size_t n = 48;
    Rng krng(17);
    Vec gain(users * n);
    for (double& g : gain) g = std::exp(krng.normal());
    Vec best(n), curv(n), slope(n), d(n), inv_d(n), z(n), power(n);
    std::vector<std::size_t> owner(n);
    const Vec lo(n, -0.02), hi(n, 0.9);
    for (double& v : curv) v = 0.5 + krng.uniform();
    const auto fixed_path = [&](const char* path) {
      const simd::Kernels& k = simd::active();
      const std::string tag = std::string("/") + path;
      const int kreps = reps * 256;
      h.run("best_gain_scan" + tag, "users=16,n=48", kreps, [&] {
        g_sink = k.best_gain_scan(gain.data(), users, n, owner.data(),
                                  best.data());
      });
      h.run("power_qp_coeffs" + tag, "n=48", kreps, [&] {
        g_sink = k.power_qp_coeffs(best.data(), n, 0.02, curv.data(),
                                   slope.data());
      });
      h.run("dpr1_inverse" + tag, "n=48", kreps, [&] {
        g_sink = k.dpr1_inverse(curv.data(), 0.5, 1.0, 0.0, d.data(),
                                inv_d.data(), n);
      });
      h.run("box_start+objective" + tag, "n=48", kreps, [&] {
        g_sink = k.box_start(lo.data(), hi.data(), nullptr, slope.data(),
                             z.data(), n) +
                 k.box_objective(curv.data(), 0.5, slope.data(), z.data(), n)
                     .quad;
      });
      h.run("scaled_rate" + tag, "n=48", kreps, [&] {
        for (double& p : power) p = 0.02;
        g_sink = k.scaled_rate(1.0, power.data(), best.data(), n);
      });
    };
    fixed_path("simd");
    {
      simd::ForceScalarGuard scalar;
      fixed_path("scalar");
    }
  }
  {
    const std::size_t n = smoke ? 6 : 12;
    rcr::opt::Sdp problem;
    problem.c = rcr::opt::random_psd(n, n, rng) - Matrix::identity(n);
    problem.a_eq.push_back(Matrix::identity(n));
    problem.b_eq.push_back(1.0);
    const std::string size = "n=" + std::to_string(n);
    rcr::opt::SdpOptions options;
    options.max_iterations = smoke ? 500 : 2000;
    rcr::opt::SdpWorkspace ws;
    bool converged = true;
    const rcr::bench::Record& rec = h.run("sdp_admm", size, reps, [&] {
      converged = rcr::opt::solve_sdp(problem, options, ws).converged;
    });
    std::printf("sdp_admm %s: %.0f ns/op, %.1f allocs/op, converged=%d\n\n",
                size.c_str(), rec.ns_op, rec.allocs_op, converged ? 1 : 0);
  }

  h.print_table();
  std::printf("\n%s\n", h.to_json().c_str());
  return h.write_json("BENCH_perf_simd.json") ? 0 : 1;
}
