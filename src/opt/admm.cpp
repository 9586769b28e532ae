#include "rcr/opt/admm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "rcr/numerics/decompositions.hpp"
#include "rcr/obs/obs.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/scratch_arena.hpp"
#include "rcr/rt/simd.hpp"

namespace rcr::opt {

namespace {

// The rank-one coefficient of the Sherman-Morrison solve: gamma =
// (c 1^T S^-1 b) / (1 + c 1^T S^-1 1), given s_inv_b = 1^T S^-1 b.
double dpr1_gamma(double c, double sum_inv, double s_inv_b) {
  return (c * s_inv_b) / (1.0 + c * sum_inv);
}

}  // namespace

void dpr1_solve(const double* d, double shift, double c, double sum_inv,
                const double* b, double* x, std::size_t n) {
  // Sherman-Morrison with S = diag(d + shift):
  //   x = S^-1 b - (c 1^T S^-1 b) / (1 + c 1^T S^-1 1) S^-1 1.
  double s_inv_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = b[i] / (d[i] + shift);
    s_inv_b += x[i];
  }
  const double gamma = dpr1_gamma(c, sum_inv, s_inv_b);
  for (std::size_t i = 0; i < n; ++i) x[i] -= gamma / (d[i] + shift);
}

namespace {

// The one constructor of BoxQpFactor::Dpr1, for the P with diagonal
// p_diag[i * stride] and every off-diagonal entry c.  With n == 1 there is
// no off-diagonal entry and c is taken as 0.  Requires c >= 0 finite, every
// d_i = P_ii - c + rho + ridge finite and positive, and sum_i 1/d_i finite;
// fills `out` (each 1/d_i kept as inv_d) and returns true only then;
// otherwise `out` is left empty (not structured).  O(n), P is never formed,
// and `out`'s vectors keep their capacity.
bool build_dpr1(const double* p_diag, std::size_t stride, std::size_t n,
                double c, double rho, double ridge, BoxQpFactor::Dpr1& out) {
  const auto decline = [&out] {
    out.p_diag.clear();
    out.d.clear();
    out.inv_d.clear();
    return false;
  };
  if (n == 0) return decline();
  if (n == 1) c = 0.0;
  if (!(c >= 0.0) || !std::isfinite(c)) return decline();
  out.p_diag.resize(n);
  out.d.resize(n);
  out.inv_d.resize(n);
  double sum_inv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out.p_diag[i] = p_diag[i * stride];
    out.d[i] = out.p_diag[i] - c + rho + ridge;
    if (!(out.d[i] > 0.0) || !std::isfinite(out.d[i])) return decline();
    out.inv_d[i] = 1.0 / out.d[i];
    sum_inv += out.inv_d[i];
  }
  if (!std::isfinite(sum_inv)) return decline();
  out.c = c;
  out.sum_inv = sum_inv;
  return true;
}

// Exact diagonal-plus-rank-one test on P: every off-diagonal entry bitwise
// equal to one constant c, then build_dpr1 on P's diagonal.  Anything else
// keeps the dense LU path.
bool detect_dpr1(const Matrix& p, double rho, double ridge,
                 BoxQpFactor::Dpr1& out) {
  const std::size_t n = p.rows();
  if (n == 0 || p.cols() != n) return false;
  const double c = n > 1 ? p(0, 1) : 0.0;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && bits(p(i, j)) != bits(c)) return false;
  return build_dpr1(p.data().data(), n + 1, n, c, rho, ridge, out);
}

// Shared tail of both factor builders: record rho, run the
// admm.factor.singular fault site, and map a singular factor to kSingular.
void finish_factor(robust::Result<BoxQpFactor>& out, double rho,
                   double ridge) {
  out.value.rho = rho;
  if (robust::faults::enabled() &&
      robust::faults::should_inject("admm.factor.singular"))
    out.value.factor.singular = true;
  if (out.value.factor.singular)
    out.status = robust::make_status(
        robust::StatusCode::kSingular,
        "P + rho I singular (rho=" + std::to_string(rho) +
            ", ridge=" + std::to_string(ridge) + ")");
}

}  // namespace

robust::Result<BoxQpFactor> try_prefactor_box_qp(const Matrix& p, double rho,
                                                 double ridge) {
  // x-update solves (P + rho I) x = rho (z - u) - q; factor once.  A
  // diagonal-plus-rank-one P keeps only its O(n) Sherman-Morrison operator.
  // Otherwise the shifted matrix is moved straight into the LU -- no second
  // copy beyond the one the factorization itself owns.
  robust::Result<BoxQpFactor> out;
  if (!detect_dpr1(p, rho, ridge, out.value.dpr1)) {
    Matrix m = p;
    for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += rho + ridge;
    out.value.factor = num::lu_decompose(std::move(m));
  }
  finish_factor(out, rho, ridge);
  return out;
}

std::optional<robust::Result<BoxQpFactor>> try_prefactor_dpr1(
    const double* p_diag, std::size_t n, double c, double rho) {
  robust::Result<BoxQpFactor> out;
  if (!try_prefactor_dpr1(p_diag, n, c, rho, out)) return std::nullopt;
  return out;
}

bool try_prefactor_dpr1(const double* p_diag, std::size_t n, double c,
                        double rho, robust::Result<BoxQpFactor>& out) {
  out.status = robust::Status{};
  out.value.factor = num::LuDecomposition{};
  if (!build_dpr1(p_diag, 1, n, c, rho, 0.0, out.value.dpr1)) return false;
  finish_factor(out, rho, 0.0);
  return true;
}

BoxQpFactor prefactor_box_qp(const Matrix& p, double rho) {
  robust::Result<BoxQpFactor> r = try_prefactor_box_qp(p, rho);
  if (!r.status.ok())
    throw std::runtime_error("admm_box_qp: P + rho I singular (P not PSD?)");
  return std::move(r.value);
}

AdmmResult admm_box_qp(const Matrix& p, const Vec& q, const Vec& lo,
                       const Vec& hi, const AdmmOptions& options) {
  // Factor-recovery ladder: the requested (rho, 0), then escalating diagonal
  // ridge, then rho backoff (x10) with the ridge ladder re-run.  Every
  // failed rung is recorded in the degradation trail.
  robust::Status recovery;
  robust::Result<BoxQpFactor> factor = try_prefactor_box_qp(p, options.rho);
  AdmmOptions effective = options;
  if (!factor.status.ok() && options.max_factor_retries > 0) {
    const double ridge0 = 1e-10 * (1.0 + p.max_abs());
    double rho = options.rho;
    double ridge = ridge0;
    for (std::size_t attempt = 0;
         attempt < options.max_factor_retries && !factor.status.ok();
         ++attempt) {
      recovery.note("factor failed (" + factor.status.detail +
                    "); retrying with rho=" + std::to_string(rho) +
                    " ridge=" + std::to_string(ridge));
      factor = try_prefactor_box_qp(p, rho, ridge);
      if (factor.status.ok()) {
        effective.rho = rho;
        break;
      }
      // Escalate: two ridge rungs per rho, then back off rho itself.
      if (attempt % 2 == 0) {
        ridge *= 1e4;
      } else {
        rho *= 10.0;
        ridge = ridge0;
      }
    }
  }
  if (!factor.status.ok()) {
    // Unrecoverable: report instead of aborting; x = box projection of 0 is
    // always feasible, so even this worst case returns a valid point.
    AdmmResult result;
    result.x = num::clamp(Vec(q.size(), 0.0), lo, hi);
    result.objective = 0.5 * num::quad_form(result.x, p, result.x) +
                       num::dot(q, result.x);
    result.status = factor.status;
    result.status.trail = recovery.trail;
    return result;
  }
  AdmmResult result =
      admm_box_qp(p, factor.value, q, lo, hi, effective);
  if (!recovery.trail.empty()) {
    // Surface the recovery rungs ahead of whatever the solve recorded.
    recovery.trail.insert(recovery.trail.end(), result.status.trail.begin(),
                          result.status.trail.end());
    result.status.trail = std::move(recovery.trail);
    if (result.status.code == robust::StatusCode::kOk)
      result.status.code = robust::StatusCode::kDegraded;
  }
  return result;
}

namespace {

// The box-QP iteration behind every prefactored entry point, writing every
// field of `result`.  `p` is read only for a dense factor's objective; a
// structured factor carries P_ii.
void box_qp_core(const Matrix* p, const BoxQpFactor& factor, const Vec& q,
                 const Vec& lo, const Vec& hi, const AdmmOptions& options,
                 AdmmWarmState* warm, AdmmResult& result);

}  // namespace

AdmmResult admm_box_qp(const Matrix& p, const BoxQpFactor& factor,
                       const Vec& q, const Vec& lo, const Vec& hi,
                       const AdmmOptions& options) {
  return admm_box_qp(p, factor, q, lo, hi, options, nullptr);
}

AdmmResult admm_box_qp(const Matrix& p, const BoxQpFactor& factor,
                       const Vec& q, const Vec& lo, const Vec& hi,
                       const AdmmOptions& options, AdmmWarmState* warm) {
  const std::size_t n = q.size();
  if (p.rows() != n || p.cols() != n)
    throw std::invalid_argument("admm_box_qp: dimension mismatch");
  AdmmResult result;
  box_qp_core(&p, factor, q, lo, hi, options, warm, result);
  return result;
}

AdmmResult admm_box_qp(const BoxQpFactor& factor, const Vec& q, const Vec& lo,
                       const Vec& hi, const AdmmOptions& options,
                       AdmmWarmState* warm) {
  AdmmResult result;
  admm_box_qp(factor, q, lo, hi, options, warm, result);
  return result;
}

void admm_box_qp(const BoxQpFactor& factor, const Vec& q, const Vec& lo,
                 const Vec& hi, const AdmmOptions& options,
                 AdmmWarmState* warm, AdmmResult& result) {
  if (!factor.structured())
    throw std::invalid_argument(
        "admm_box_qp: a P-free solve needs a structured factor");
  box_qp_core(nullptr, factor, q, lo, hi, options, warm, result);
}

namespace {

void box_qp_core(const Matrix* p, const BoxQpFactor& factor, const Vec& q,
                 const Vec& lo, const Vec& hi, const AdmmOptions& options,
                 AdmmWarmState* warm, AdmmResult& result) {
  const std::size_t n = q.size();
  const bool structured = factor.structured();
  if (lo.size() != n || hi.size() != n ||
      (structured && factor.dpr1.d.size() != n))
    throw std::invalid_argument("admm_box_qp: dimension mismatch");
  if (factor.rho != options.rho)
    throw std::invalid_argument("admm_box_qp: factor rho != options rho");
  for (std::size_t i = 0; i < n; ++i)
    if (lo[i] > hi[i])
      throw std::invalid_argument("admm_box_qp: lo > hi");

  obs::Span span("admm.box_qp");
  result.objective = 0.0;
  result.iterations = 0;
  result.converged = false;
  // Reset in place, so a reused result keeps its strings' capacity.
  result.status.code = robust::StatusCode::kOk;
  result.status.detail.clear();
  result.status.trail.clear();
  result.warm_use = WarmUse::kCold;

  // Iterate storage from the calling thread's arena, rewound on return: z
  // and z_next ping-pong (z_next receives each projection, and a poisoned
  // iterate is rolled back by not swapping), so a warm arena makes the
  // iteration allocation-free.
  rt::ScratchArena& arena = rt::tls_arena();
  const auto arena_scope = arena.scope();
  double* z = arena.alloc<double>(n);
  double* z_next = arena.alloc<double>(n);
  double* u = arena.alloc<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = std::clamp(0.0, lo[i], hi[i]);
    u[i] = 0.0;
  }
  if (warm != nullptr && !warm->empty()) {
    if (detail::warm_vec_ok(warm->z, n) && detail::warm_vec_ok(warm->u, n)) {
      // Re-clamp the warm primal so z stays feasible-by-construction even
      // when the box moved between solves.
      for (std::size_t i = 0; i < n; ++i) {
        z[i] = std::clamp(warm->z[i], lo[i], hi[i]);
        u[i] = warm->u[i];
      }
      result.warm_use = WarmUse::kAccepted;
      obs::counter_add("rcr.warm.accepted", "solver", "admm");
    } else {
      result.warm_use = WarmUse::kRejected;
      result.status.note("warm state rejected (size mismatch or non-finite); "
                         "cold start");
      obs::counter_add("rcr.warm.rejected", "solver", "admm");
    }
  }

  // One iteration is two rt::simd passes (pass 1: x = S^-1 (rho (z - u) -
  // q) and its sum; pass 2: x -= gamma S^-1 1, project, dual update,
  // residual terms) -- the Sherman-Morrison update of dpr1_solve, fused,
  // with S^-1 applied as a multiply by inv_d and the sums added in four
  // lanes (rt::simd::SweepSums).  Pass 1 of the next iteration runs ahead of
  // the exit tests (x is scratch until then) and sums this iteration's
  // residual terms beside its own x-sum, so the add chains overlap.  The
  // dense path runs the same passes on a unit inv_d with gamma = 0:
  // multiplying by 1 and subtracting 0 * 1 = +0 are exact, so pass 1 forms
  // the LU right-hand side and pass 2 projects the LU solution unchanged.
  const rt::simd::Kernels& kernels = rt::simd::active();
  const double* inv_d = factor.dpr1.inv_d.data();
  double* x = arena.alloc<double>(n);  // pass-2 input
  double* pass1_out = x;
  double* primal_terms = arena.alloc<double>(n);
  double* dual_terms = arena.alloc<double>(n);
  std::fill(primal_terms, primal_terms + n, 0.0);
  std::fill(dual_terms, dual_terms + n, 0.0);
  Vec rhs;
  Vec x_dense;
  if (!structured) {
    double* unit = arena.alloc<double>(n);
    std::fill(unit, unit + n, 1.0);
    inv_d = unit;
    rhs.resize(n);
    x_dense.resize(n);
    pass1_out = rhs.data();
    x = x_dense.data();
  }
  const double scale = 1.0 + num::norm_inf(q);
  const bool faults_on = robust::faults::enabled();
  // The top of iteration `it`: false when the iteration cap or the
  // deadline ends the solve there.
  const auto ready = [&](std::size_t it) {
    if (it >= options.max_iterations) return false;
    if (options.budget.expired_at(it) ||
        (faults_on && robust::faults::should_inject("admm.deadline"))) {
      result.status = robust::make_status(
          robust::StatusCode::kDeadlineExpired,
          "deadline fired at iteration " + std::to_string(it));
      return false;
    }
    return true;
  };
  if (ready(0)) {
    double s_inv_b = kernels
                         .boxqp_x(options.rho, z, u, q.data(), inv_d,
                                  pass1_out, primal_terms, dual_terms, n)
                         .x;
    for (std::size_t it = 0;; ++it) {
      double gamma = 0.0;
      if (structured)
        gamma = dpr1_gamma(factor.dpr1.c, factor.dpr1.sum_inv, s_inv_b);
      else
        factor.factor.solve_into(rhs, x_dense);
      if (faults_on && n > 0 &&
          robust::faults::should_inject("admm.iterate.nan"))
        x[0] = std::numeric_limits<double>::quiet_NaN();
      kernels.boxqp_zu(gamma, inv_d, x, lo.data(), hi.data(), z, u, z_next,
                       primal_terms, dual_terms, n);
      const rt::simd::SweepSums sums =
          kernels.boxqp_x(options.rho, z_next, u, q.data(), inv_d, pass1_out,
                          primal_terms, dual_terms, n);
      result.iterations = it + 1;

      // NaN/Inf sentinel: a poisoned iterate shows up in the residual sums.
      // Keep the last clean feasible z and stop -- degraded, not dead.
      if (!std::isfinite(sums.primal2) || !std::isfinite(sums.dual2)) {
        result.status = robust::make_status(
            robust::StatusCode::kNumericalFailure,
            "non-finite iterate at iteration " + std::to_string(it + 1) +
                "; rolled back to last clean feasible point");
        break;
      }
      std::swap(z, z_next);
      // norm2(x - z) and norm2(z - z_prev): sqrt of the residual sums.
      const double primal = std::sqrt(sums.primal2);
      const double dual = options.rho * std::sqrt(sums.dual2);
      if (primal <= options.tolerance * scale &&
          dual <= options.tolerance * scale) {
        result.converged = true;
        break;
      }
      if (!ready(it + 1)) break;
      s_inv_b = sums.x;
    }
  }
  if (!result.converged && result.status.ok()) {
    // make_status's text, written in place: a reused result's capped exit
    // allocates nothing.
    result.status.code = robust::StatusCode::kNonConverged;
    result.status.detail.assign("max_iterations exhausted");
    result.status.trail.clear();
  }
  result.x.assign(z, z + n);  // feasible by construction
  if (structured) {
    // x^T P x = sum_i (P_ii - c) x_i^2 + c (1^T x)^2.
    const double c = factor.dpr1.c;
    double quad = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      quad += (factor.dpr1.p_diag[i] - c) * z[i] * z[i];
      total += z[i];
    }
    result.objective = 0.5 * (quad + c * total * total) + num::dot(q, result.x);
  } else {
    result.objective = 0.5 * num::quad_form(result.x, *p, result.x) +
                       num::dot(q, result.x);
  }
  if (warm != nullptr) {
    // Chainable state on a clean exit; cleared after a poisoned iterate so
    // the next solve cold-starts instead of inheriting the corruption.
    if (result.status.code == robust::StatusCode::kNumericalFailure) {
      warm->clear();
    } else {
      warm->z.assign(z, z + n);
      warm->u.assign(u, u + n);
    }
  }
  obs::counter_add("rcr.admm.solves");
  obs::counter_add("rcr.admm.iterations", result.iterations);
  span.attr("iterations", static_cast<double>(result.iterations));
  span.attr("converged", result.converged ? 1.0 : 0.0);
  span.attr("objective", result.objective);
}

}  // namespace

}  // namespace rcr::opt
