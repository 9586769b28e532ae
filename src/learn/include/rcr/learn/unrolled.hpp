// Deep-unrolled ADMM head (He et al., arXiv:2201.08994 style).
//
// A fixed, small number K of ADMM iterations on the power QP, where the
// per-step penalty rho_k and over-relaxation alpha_k are *learnable*
// parameters instead of hand-picked constants.  Because the QP Hessian is
// diagonal-plus-rank-one, each step's x-update is a closed-form
// Sherman-Morrison solve (opt::dpr1_solve, the same routine the structured
// box-QP factor runs) -- the whole head is O(K n) with no factorization, so
// it can run inside the per-cell solve path.
//
// The head refines a starting point (typically the MLP's projected output)
// rather than replacing the exact solver: its output is still only a warm
// start, validated by the opt-layer accept/reject contract before the sound
// tail consumes it.  Parameters live in a flat Vec (log-rho so positivity
// is free) so the trainer can drive them with L-BFGS.
#pragma once

#include <cstddef>

#include "rcr/learn/qp.hpp"

namespace rcr::learn {

/// Learnable per-step parameters for K unrolled iterations.
struct UnrolledParams {
  Vec log_rho;  ///< log penalty per step (rho_k = exp(log_rho[k])).
  Vec alpha;    ///< Over-relaxation per step (classic ADMM: 1.0).

  std::size_t steps() const { return log_rho.size(); }

  /// K steps of plain ADMM at penalty `rho` (log_rho = log rho, alpha = 1):
  /// the do-no-harm initialization training starts from.
  static UnrolledParams plain(std::size_t k, double rho);

  /// Flatten to a single parameter vector [log_rho..., alpha...] for the
  /// numerical-gradient trainer, and back.
  Vec pack() const;
  static UnrolledParams unpack(const Vec& flat);
};

/// Run the K unrolled steps in place on scaled-dual state (z, u), each of
/// length qp.n.  `scratch` must hold >= qp.n doubles.  Standard scaled-dual
/// ADMM with per-step rho_k, alpha_k:
///   x   = argmin_x f(x) + rho_k/2 ||x - z + u||^2     (Sherman-Morrison)
///   xh  = alpha_k x + (1 - alpha_k) z
///   z   = clamp(xh + u, lo, hi)
///   u  += xh - z
/// When rho changes between steps the dual is rescaled (u *= rho_prev /
/// rho_k) so the unscaled multiplier rho*u is continuous.
void unrolled_admm_run(const PowerQp& qp, const UnrolledParams& params,
                       double* z, double* u, double* scratch);

/// Rescale a scaled dual from penalty `rho_from` to `rho_to` (the unscaled
/// multiplier y = rho * u is the invariant).  No-op when equal.
void rescale_dual(double* u, std::size_t n, double rho_from, double rho_to);

}  // namespace rcr::learn
