#include "rcr/learn/unrolled.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rcr/opt/admm.hpp"

namespace rcr::learn {

UnrolledParams UnrolledParams::plain(std::size_t k, double rho) {
  if (!(rho > 0.0))
    throw std::invalid_argument("UnrolledParams::plain: rho must be positive");
  UnrolledParams p;
  p.log_rho.assign(k, std::log(rho));
  p.alpha.assign(k, 1.0);
  return p;
}

Vec UnrolledParams::pack() const {
  Vec flat;
  flat.reserve(log_rho.size() + alpha.size());
  flat.insert(flat.end(), log_rho.begin(), log_rho.end());
  flat.insert(flat.end(), alpha.begin(), alpha.end());
  return flat;
}

UnrolledParams UnrolledParams::unpack(const Vec& flat) {
  if (flat.size() % 2 != 0)
    throw std::invalid_argument("UnrolledParams::unpack: odd length");
  const std::size_t k = flat.size() / 2;
  UnrolledParams p;
  p.log_rho.assign(flat.begin(), flat.begin() + static_cast<long>(k));
  p.alpha.assign(flat.begin() + static_cast<long>(k), flat.end());
  return p;
}

void rescale_dual(double* u, std::size_t n, double rho_from, double rho_to) {
  if (rho_from == rho_to) return;
  const double scale = rho_from / rho_to;
  for (std::size_t i = 0; i < n; ++i) u[i] *= scale;
}

void unrolled_admm_run(const PowerQp& qp, const UnrolledParams& params,
                       double* z, double* u, double* scratch) {
  if (params.alpha.size() != params.log_rho.size())
    throw std::invalid_argument("unrolled_admm_run: ragged params");
  const std::size_t n = qp.n;
  const double c = 2.0 * qp.lambda;
  double* x = scratch;
  double rho_prev = 0.0;
  for (std::size_t k = 0; k < params.steps(); ++k) {
    // Clamp the learnable knobs to a sane region: training explores freely
    // but a wild parameter (or corrupted artifact) cannot make a step
    // amplify the iterate unboundedly.
    const double rho =
        std::clamp(std::exp(std::clamp(params.log_rho[k], -20.0, 20.0)),
                   1e-8, 1e8);
    const double alpha = std::clamp(params.alpha[k], 0.1, 1.9);
    if (k > 0) rescale_dual(u, n, rho_prev, rho);
    rho_prev = rho;

    // x-update: (diag(curv) + c 11^T + rho I) x = rho (z - u) - slope, the
    // O(n) Sherman-Morrison solve the structured box-QP factor runs.
    double s_inv_1 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rho * (z[i] - u[i]) - qp.slope[i];
      s_inv_1 += 1.0 / (qp.curv[i] + rho);
    }
    opt::dpr1_solve(qp.curv, rho, c, s_inv_1, x, x, n);

    for (std::size_t i = 0; i < n; ++i) {
      const double xh = alpha * x[i] + (1.0 - alpha) * z[i];
      const double znew = std::clamp(xh + u[i], qp.lo[i], qp.hi[i]);
      u[i] += xh - znew;
      z[i] = znew;
    }
  }
}

}  // namespace rcr::learn
