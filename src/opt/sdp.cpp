#include "rcr/opt/sdp.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "rcr/numerics/decompositions.hpp"
#include "rcr/numerics/eigen.hpp"
#include "rcr/obs/obs.hpp"
#include "rcr/robust/fault_injection.hpp"

namespace rcr::opt {

void Sdp::validate() const {
  const std::size_t n = dim();
  if (!c.square()) throw std::invalid_argument("Sdp: C not square");
  if (a_eq.size() != b_eq.size())
    throw std::invalid_argument("Sdp: equality count mismatch");
  if (a_in.size() != b_in.size())
    throw std::invalid_argument("Sdp: inequality count mismatch");
  for (const auto& m : a_eq)
    if (m.rows() != n || m.cols() != n)
      throw std::invalid_argument("Sdp: A_eq shape mismatch");
  for (const auto& m : a_in)
    if (m.rows() != n || m.cols() != n)
      throw std::invalid_argument("Sdp: A_in shape mismatch");
}

SdpResult solve_sdp(const Sdp& problem, const SdpOptions& options,
                    SdpWorkspace& ws) {
  return solve_sdp(problem, options, ws, nullptr);
}

SdpResult solve_sdp(const Sdp& problem, const SdpOptions& options,
                    SdpWorkspace& ws, SdpWarmState* warm) {
  problem.validate();
  obs::Span span("sdp.solve");
  const std::size_t n = problem.dim();
  const std::size_t nn = n * n;
  const std::size_t m_eq = problem.a_eq.size();
  const std::size_t m_in = problem.a_in.size();
  const std::size_t dim_y = nn + m_in;        // [vec(X); slacks]
  const std::size_t m = m_eq + m_in;          // affine rows
  const double rho = options.rho;

  SdpResult result;
  const bool faults_on = robust::faults::enabled();

  ws.d.assign(m, 0.0);
  for (std::size_t i = 0; i < m_eq; ++i) ws.d[i] = problem.b_eq[i];
  for (std::size_t j = 0; j < m_in; ++j) ws.d[m_eq + j] = problem.b_in[j];

  // Unrecoverable degeneracy: report instead of aborting.  X = 0 is PSD,
  // so even this worst case hands back a valid (if useless) point.
  auto fail_singular = [&]() {
    if (warm != nullptr) warm->clear();
    result.status.code = robust::StatusCode::kSingular;
    result.status.detail =
        "degenerate constraint system: KKT singular after " +
        std::to_string(options.max_kkt_retries) + " ridge retries";
    result.x = Matrix(n, n);
    double viol0 = 0.0;
    for (std::size_t i = 0; i < m_eq; ++i)
      viol0 = std::max(viol0, std::abs(problem.b_eq[i]));
    for (std::size_t j = 0; j < m_in; ++j)
      viol0 = std::max(viol0, -problem.b_in[j]);
    result.primal_residual = viol0;
    obs::counter_add("rcr.sdp.solves");
    span.attr("iterations", 0.0);
    span.attr("converged", 0.0);
    span.attr("primal_residual", result.primal_residual);
    return result;
  };

  // Factor the affine-step system.  The KKT matrix [rho*I, M^T; M, 0] is an
  // arrow -- rho*I over the whole y block -- so eliminating it leaves the
  // m x m Schur complement G = M M^T / rho.  Only the affine rows M are
  // materialized; per-iteration work is two thin matvecs and an m x m
  // solve.  A degenerate (rank-deficient) constraint set makes G singular;
  // instead of aborting, G gets an escalating ridge -- the damped
  // least-squares multiplier.  Each rung is recorded in the degradation
  // trail.
  ws.mrows.assign(m, dim_y, 0.0);
  for (std::size_t r = 0; r < m_eq; ++r) {
    const Matrix& a_mat = problem.a_eq[r];
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ws.mrows(r, i * n + j) = a_mat(i, j);
  }
  for (std::size_t s = 0; s < m_in; ++s) {
    const Matrix& a_mat = problem.a_in[s];
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ws.mrows(m_eq + s, i * n + j) = a_mat(i, j);
    ws.mrows(m_eq + s, nn + s) = 1.0;
  }
  if (m > 0) {
    auto factor_gram = [&](double ridge) {
      num::multiply_abt_into(ws.mrows, ws.mrows, ws.gram);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j) ws.gram(i, j) /= rho;
      for (std::size_t i = 0; i < m; ++i) ws.gram(i, i) += ridge;
      num::lu_decompose_into(ws.gram, ws.gram_lu);
      if (faults_on && robust::faults::should_inject("sdp.kkt.singular"))
        ws.gram_lu.singular = true;
    };
    factor_gram(0.0);
    if (ws.gram_lu.singular) {
      double ridge = 1e-10 * (1.0 + ws.gram.max_abs());
      for (std::size_t attempt = 0;
           attempt < options.max_kkt_retries && ws.gram_lu.singular;
           ++attempt) {
        result.status.note(
            "KKT factorization singular (degenerate constraint system); "
            "retrying with least-squares multiplier ridge=" +
            std::to_string(ridge));
        factor_gram(ridge);
        ridge *= 1e4;
      }
      if (ws.gram_lu.singular) return fail_singular();
      result.status.code = robust::StatusCode::kDegraded;
      result.status.detail =
          "KKT system regularized (least-squares multiplier)";
    }
  }

  ws.cvec.assign(dim_y, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) ws.cvec[i * n + j] = problem.c(i, j);

  ws.z.assign(dim_y, 0.0);
  ws.u.assign(dim_y, 0.0);
  if (warm != nullptr && !warm->empty()) {
    if (detail::warm_vec_ok(warm->z, dim_y) &&
        detail::warm_vec_ok(warm->u, dim_y)) {
      ws.z = warm->z;
      ws.u = warm->u;
      result.warm_use = WarmUse::kAccepted;
      obs::counter_add("rcr.warm.accepted", "solver", "sdp");
    } else {
      result.warm_use = WarmUse::kRejected;
      result.status.note("warm state rejected (size mismatch or non-finite); "
                         "cold start");
      obs::counter_add("rcr.warm.rejected", "solver", "sdp");
    }
  }
  ws.y.assign(dim_y, 0.0);
  ws.rhs.assign(dim_y, 0.0);
  ws.w.assign(dim_y, 0.0);
  ws.z_next.assign(dim_y, 0.0);
  ws.xw.assign(n, n, 0.0);
  Vec& cvec = ws.cvec;
  Vec& d = ws.d;
  Vec& z = ws.z;
  Vec& u = ws.u;
  Vec& y = ws.y;
  Vec& rhs = ws.rhs;
  Vec& w = ws.w;
  Vec& z_next = ws.z_next;
  Matrix& xw = ws.xw;

  num::PsdProjectOptions popts;
  popts.warm_start = true;

  const double scale = 1.0 + problem.c.max_abs() + num::norm_inf(d);

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    if (options.budget.expired_at(it) ||
        (faults_on && robust::faults::should_inject("sdp.deadline"))) {
      result.status.note("deadline fired at iteration " + std::to_string(it));
      result.status.code = robust::StatusCode::kDeadlineExpired;
      result.status.detail = "deadline fired at iteration " + std::to_string(it);
      break;
    }
    // y-update: min c^T y + rho/2 ||y - z + u||^2  s.t.  M y = d.
    for (std::size_t i = 0; i < dim_y; ++i)
      rhs[i] = rho * (z[i] - u[i]) - cvec[i];
    if (m > 0) {
      // lambda from (M M^T / rho + ridge*I) lambda = M rhs / rho - d,
      // then y = (rhs - M^T lambda) / rho.
      num::matvec_into(ws.mrows, rhs, ws.t_small);
      for (std::size_t i = 0; i < m; ++i)
        ws.t_small[i] = ws.t_small[i] / rho - d[i];
      ws.gram_lu.solve_into(ws.t_small, ws.lambda_small);
      num::matvec_transposed_into(ws.mrows, ws.lambda_small, ws.mty);
      for (std::size_t i = 0; i < dim_y; ++i)
        y[i] = (rhs[i] - ws.mty[i]) / rho;
    } else {
      for (std::size_t i = 0; i < dim_y; ++i) y[i] = rhs[i] / rho;
    }
    if (faults_on && dim_y > 0 &&
        robust::faults::should_inject("sdp.iterate.nan"))
      y[0] = std::numeric_limits<double>::quiet_NaN();
    // NaN/Inf sentinel BEFORE the PSD projection: feeding a poisoned iterate
    // to the eigendecomposition would waste a full sweep budget on garbage.
    // z still holds the last clean projected iterate, so stop on it.
    bool finite = true;
    for (std::size_t i = 0; i < dim_y; ++i)
      if (!std::isfinite(y[i])) {
        finite = false;
        break;
      }
    if (!finite) {
      result.status.code = robust::StatusCode::kNumericalFailure;
      result.status.detail =
          "non-finite iterate at iteration " + std::to_string(it + 1) +
          "; returning last clean PSD-projected point";
      result.iterations = it + 1;
      break;
    }

    // z-update: project y + u onto PSD-cone x nonnegative-orthant.
    for (std::size_t i = 0; i < dim_y; ++i) w[i] = y[i] + u[i];
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) xw(i, j) = w[i * n + j];
    num::project_psd_into(xw, ws.projection, ws.xp, popts);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) z_next[i * n + j] = ws.xp(i, j);
    for (std::size_t k = 0; k < m_in; ++k)
      z_next[nn + k] = std::max(0.0, w[nn + k]);

    // norm2 of the update deltas without the num::sub temporaries (sqrt of
    // an ascending sum of squares, matching num::norm2's order).
    double dual2 = 0.0;
    for (std::size_t i = 0; i < dim_y; ++i) {
      const double dd = z_next[i] - z[i];
      dual2 += dd * dd;
    }
    const double dual_res = rho * std::sqrt(dual2);
    std::swap(z, z_next);
    for (std::size_t i = 0; i < dim_y; ++i) u[i] += y[i] - z[i];
    double primal2 = 0.0;
    for (std::size_t i = 0; i < dim_y; ++i) {
      const double pd = y[i] - z[i];
      primal2 += pd * pd;
    }
    const double primal_res = std::sqrt(primal2);

    result.iterations = it + 1;
    if (primal_res <= options.tolerance * scale &&
        dual_res <= options.tolerance * scale) {
      result.converged = true;
      break;
    }
  }
  if (!result.converged &&
      (result.status.code == robust::StatusCode::kOk ||
       result.status.code == robust::StatusCode::kDegraded)) {
    if (result.status.code == robust::StatusCode::kDegraded)
      result.status.note(result.status.detail);
    result.status.code = robust::StatusCode::kNonConverged;
    result.status.detail = "max_iterations exhausted";
  }

  result.x = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) result.x(i, j) = z[i * n + j];
  result.x.symmetrize();
  result.objective = num::frobenius_dot(problem.c, result.x);
  if (warm != nullptr) {
    // z is the last clean projected iterate even on the NaN-sentinel path,
    // but u may have absorbed the poisoned y there -- clear instead.
    if (result.status.code == robust::StatusCode::kNumericalFailure) {
      warm->clear();
    } else {
      warm->z = z;
      warm->u = u;
    }
  }

  double viol = 0.0;
  for (std::size_t i = 0; i < m_eq; ++i)
    viol = std::max(viol, std::abs(num::frobenius_dot(problem.a_eq[i],
                                                      result.x) -
                                   problem.b_eq[i]));
  for (std::size_t j = 0; j < m_in; ++j)
    viol = std::max(viol, num::frobenius_dot(problem.a_in[j], result.x) -
                              problem.b_in[j]);
  result.primal_residual = viol;
  obs::counter_add("rcr.sdp.solves");
  obs::counter_add("rcr.sdp.iterations", result.iterations);
  span.attr("iterations", static_cast<double>(result.iterations));
  span.attr("converged", result.converged ? 1.0 : 0.0);
  span.attr("primal_residual", result.primal_residual);
  return result;
}

SdpResult solve_sdp(const Sdp& problem, const SdpOptions& options) {
  SdpWorkspace ws;
  return solve_sdp(problem, options, ws);
}

namespace {

// Embed f(x) = (1/2) x^T P x + q^T x + r as <M, [1 x^T; x xx^T]>.
Matrix lift_quadratic(const QuadraticForm& f) {
  const std::size_t n = f.dim();
  Matrix m(n + 1, n + 1);
  m(0, 0) = f.r;
  for (std::size_t i = 0; i < n; ++i) {
    m(0, i + 1) = f.q[i] / 2.0;
    m(i + 1, 0) = f.q[i] / 2.0;
    for (std::size_t j = 0; j < n; ++j) m(i + 1, j + 1) = f.p(i, j) / 2.0;
  }
  m.symmetrize();
  return m;
}

}  // namespace

Sdp shor_relaxation(const Qcqp& problem) {
  problem.validate();
  const std::size_t n = problem.dim();
  Sdp sdp;
  sdp.c = lift_quadratic(problem.objective);

  // Corner normalization X_00 = 1.
  {
    Matrix corner(n + 1, n + 1);
    corner(0, 0) = 1.0;
    sdp.a_eq.push_back(std::move(corner));
    sdp.b_eq.push_back(1.0);
  }
  // Linear equalities a_k^T x = b_k.
  for (std::size_t k = 0; k < problem.a.rows(); ++k) {
    Matrix e(n + 1, n + 1);
    for (std::size_t j = 0; j < n; ++j) {
      e(0, j + 1) = problem.a(k, j) / 2.0;
      e(j + 1, 0) = problem.a(k, j) / 2.0;
    }
    sdp.a_eq.push_back(std::move(e));
    sdp.b_eq.push_back(problem.b[k]);
  }
  // Quadratic inequalities f_i(x) <= 0.
  for (const auto& c : problem.constraints) {
    sdp.a_in.push_back(lift_quadratic(c));
    sdp.b_in.push_back(0.0);
  }
  return sdp;
}

ShorBound shor_lower_bound(const Qcqp& problem, const SdpOptions& options) {
  const Sdp sdp = shor_relaxation(problem);
  const SdpResult r = solve_sdp(sdp, options);
  ShorBound out;
  out.bound = r.objective;
  out.iterations = r.iterations;
  out.converged = r.converged;
  out.status = r.status;
  const std::size_t n = problem.dim();
  out.x_extracted.resize(n);
  const double corner = std::max(r.x(0, 0), 1e-12);
  for (std::size_t i = 0; i < n; ++i)
    out.x_extracted[i] = r.x(i + 1, 0) / corner;
  out.extraction_value = problem.objective.value(out.x_extracted);
  return out;
}

}  // namespace rcr::opt
