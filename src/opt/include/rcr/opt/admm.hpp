// Alternating Direction Method of Multipliers.
//
// Sec. I of the paper lists ADMM among the general-purpose routes "for
// nonconvex and nonsmooth functions" once a problem has been decomposed.
// This module provides the box-constrained QP decomposition the serve
// tick's power head runs (it also cross-checks the barrier solver).
#pragma once

#include <optional>

#include "rcr/numerics/decompositions.hpp"
#include "rcr/opt/quadratic.hpp"
#include "rcr/opt/warm.hpp"
#include "rcr/robust/budget.hpp"
#include "rcr/robust/status.hpp"

namespace rcr::opt {

/// Shared ADMM options.
struct AdmmOptions {
  double rho = 1.0;
  double tolerance = 1e-8;
  std::size_t max_iterations = 10000;
  /// Wall-clock budget; unlimited by default.  When the deadline fires the
  /// solver returns its best (feasible-by-construction) iterate with
  /// status kDeadlineExpired.
  robust::Budget budget;
  /// Recovery ladder for a singular P + rho I: escalating diagonal ridge,
  /// then rho backoff (x10) with the ridge ladder re-run.  0 disables.
  std::size_t max_factor_retries = 4;
};

/// Cached x-update operator for admm_box_qp.  Build once with
/// prefactor_box_qp and reuse across solves with the same P and rho.  When P
/// is diagonal-plus-rank-one -- every off-diagonal entry bitwise equal to
/// one constant c >= 0, as in the serve per-cell power QP -- only the O(n)
/// Sherman-Morrison operator `dpr1` is kept (O(n) per x-update); otherwise
/// the LU of P + rho I.  try_prefactor_dpr1 builds the structured operator
/// in O(n) straight from P's diagonal and c, without forming P;
/// try_prefactor_box_qp reaches the same builder after its O(n^2) bitwise
/// scan of a dense P, so both produce the same bits.
struct BoxQpFactor {
  num::LuDecomposition factor;  ///< LU of P + rho I (dense path only).
  double rho = 0.0;             ///< The rho the factor was built with.
  double ridge = 0.0;           ///< The extra diagonal shift beyond rho.
  struct Dpr1 {
    Vec p_diag;           ///< P_ii (the structured objective reads these).
    Vec d;                ///< d_i = P_ii - c + rho + ridge, all > 0.
    Vec inv_d;            ///< 1 / d_i: the sweep multiplies by these.
    double c = 0.0;       ///< The common off-diagonal entry of P.
    double sum_inv = 0.0; ///< sum_i inv_d_i, in the sweep's four lanes.
  } dpr1;

  /// True when the x-update runs in O(n) on the structured operator.
  bool structured() const { return !dpr1.d.empty(); }
};

/// O(n) Sherman-Morrison solve of (diag(d_i + shift) + c 11^T) x = b, given
/// sum_inv = sum_i 1 / (d_i + shift) in ascending order; `x` may alias `b`.
/// The operation order (x_i = b_i / s_i, ascending sum, gamma = (c sum x) /
/// (1 + c sum_inv), x_i -= gamma / s_i) is fixed: the learned head's golden
/// weights are trained through it, and learn::unrolled_admm_run calls it
/// (its per-step rho is `shift`).  admm_box_qp's structured x-update is the
/// same algebra in another order: it multiplies by Dpr1::inv_d instead of
/// dividing by d and adds the sum in four lanes (rt::simd::SweepSums), so
/// its iterates agree with this solve to rounding, not bit for bit.
void dpr1_solve(const double* d, double shift, double c, double sum_inv,
                const double* b, double* x, std::size_t n);

/// Factor P + rho I for the box-QP x-update.  Throws std::runtime_error when
/// P + rho I is singular (P not PSD).
BoxQpFactor prefactor_box_qp(const Matrix& p, double rho);

/// Non-throwing factor: status kSingular (with the factor left unusable, on
/// both paths) instead of the throw.  `ridge` adds an extra diagonal shift
/// beyond rho (the escalating-regularization retry path).
robust::Result<BoxQpFactor> try_prefactor_box_qp(const Matrix& p, double rho,
                                                 double ridge = 0.0);

/// P-free structured factor for the P with diagonal `p_diag` (n entries)
/// and every off-diagonal entry c: the factor, status and fault site of
/// try_prefactor_box_qp(P, rho), bit for bit, in O(n) and without forming
/// P.  With n == 1 P has no off-diagonal entry and c is ignored (taken as
/// 0, as the dense scan does).  Returns std::nullopt when the structure
/// test fails (n == 0, c < 0 or non-finite, some P_ii - c + rho not finite
/// and positive, or a non-finite sum_i 1/d_i); a caller holding a dense P
/// can then take try_prefactor_box_qp's LU path.
std::optional<robust::Result<BoxQpFactor>> try_prefactor_dpr1(
    const double* p_diag, std::size_t n, double c, double rho);

/// The same build into caller-owned `out`, whose vectors keep their
/// capacity (the serve tick rebuilds each cell's factor in place).  Returns
/// false where the overload above returns std::nullopt, leaving `out` not
/// structured.
bool try_prefactor_dpr1(const double* p_diag, std::size_t n, double c,
                        double rho, robust::Result<BoxQpFactor>& out);

/// Primal/dual state carried between admm_box_qp solves (see warm.hpp for
/// the acceptance/rejection/writeback contract).  `z` is the consensus
/// primal iterate (feasible by construction), `u` the scaled dual.  An empty
/// state means "cold start"; the solver fills it on a clean exit and clears
/// it after a numerical failure.
struct AdmmWarmState {
  Vec z;  ///< Consensus primal iterate.
  Vec u;  ///< Scaled dual iterate y / rho, at the solve's options.rho.

  bool empty() const { return z.empty() && u.empty(); }
  void clear() {
    z.clear();
    u.clear();
  }
};

/// ADMM outcome.
struct AdmmResult {
  Vec x;
  double objective = 0.0;
  std::size_t iterations = 0;
  /// Times the adaptive step replaced rho during the solve.
  std::size_t rho_updates = 0;
  bool converged = false;
  /// Runtime disposition: kOk on convergence, kNonConverged on iteration
  /// exhaustion, kNumericalFailure when a NaN/Inf iterate was caught (the
  /// last clean feasible iterate is returned), kDeadlineExpired on budget
  /// expiry, kSingular/kDegraded through the factor-recovery ladder.  The
  /// trail records every recovery step taken.
  robust::Status status;
  /// Disposition of the warm state handed to this solve (kCold when none).
  WarmUse warm_use = WarmUse::kCold;
};

/// Box-constrained QP:
///   minimize (1/2) x^T P x + q^T x   subject to  lo <= x <= hi.
/// P must be symmetric PSD.  Splitting: x unconstrained quadratic prox
/// (factorized once; O(n) per iteration on a diagonal-plus-rank-one P, see
/// BoxQpFactor), z clamped to the box.
///
/// Runtime numerical failures no longer throw: a singular P + rho I walks
/// the escalating-ridge / rho-backoff ladder (`max_factor_retries`), and a
/// NaN iterate rolls back to the last clean feasible z -- inspect
/// result.status.  Argument-shape errors still throw std::invalid_argument.
AdmmResult admm_box_qp(const Matrix& p, const Vec& q, const Vec& lo,
                       const Vec& hi, const AdmmOptions& options = {});

/// Box-QP with a prefactored operator (see prefactor_box_qp).
/// `factor.rho` must match `options.rho`; throws std::invalid_argument
/// otherwise.  Each iteration is the rt::simd box-QP sweep (two passes by
/// the reciprocal diagonal with four-lane sums, bit for bit the same on
/// every dispatch path); the entry (box check, start, max |q_i|) and a
/// structured factor's O(n) objective are one rt::simd pass each.  The
/// primal iterates ping-pong between result.x and the warm state's z (or
/// the calling thread's rt::tls_arena() without one), and the dual
/// iterates in the warm state's u, so iterations are allocation-free once
/// the arena is warm.
///
/// rho adapts during the solve by OSQP's rule (Stellato et al., Math. Prog.
/// Comp. 2020): every 100 iterations that did not stop the solve, the
/// estimate rho sqrt(prim_rel / dual_rel) of the relative primal and dual
/// residuals (infinity norms) replaces rho when it is off by more than 5x
/// either way.  u is rescaled so y = rho u is kept, and the operator is
/// refactored for the new rho without touching `factor`: in O(n) for a
/// structured factor (its d_i, 1/d_i and sum 1/d_i), P + rho I for a dense
/// one.  The solve ends with the warm state's u in options.rho's units, so
/// a warm state means the same (z, y) whatever rho the solve ended at, and
/// the next solve starts again at options.rho.  result.rho_updates counts
/// the replacements.  A solve that stops within 100 iterations runs at
/// options.rho throughout.
AdmmResult admm_box_qp(const Matrix& p, const BoxQpFactor& factor,
                       const Vec& q, const Vec& lo, const Vec& hi,
                       const AdmmOptions& options = {});

/// Warm-started box-QP: when `warm` is non-null and holds a valid state (n
/// entries each, all finite), iteration starts from z = clamp(warm->z),
/// u = warm->u instead of the cold (clamped zero) initialization, and the
/// final state is written back on a clean exit (cleared after a
/// kNumericalFailure).  A null or empty `warm` is exactly the cold path; an
/// invalid state is rejected with a status-trail note and the solve runs
/// cold (bit-identical to no warm state).  result.warm_use reports the
/// disposition.
AdmmResult admm_box_qp(const Matrix& p, const BoxQpFactor& factor,
                       const Vec& q, const Vec& lo, const Vec& hi,
                       const AdmmOptions& options, AdmmWarmState* warm);

/// Warm-started box-QP on a structured factor alone (see
/// try_prefactor_dpr1): the same iterates, objective and warm-state
/// contract as the overload above given that factor's P, without P.
/// Throws std::invalid_argument when `factor` is not structured.
AdmmResult admm_box_qp(const BoxQpFactor& factor, const Vec& q, const Vec& lo,
                       const Vec& hi, const AdmmOptions& options,
                       AdmmWarmState* warm = nullptr);

/// The P-free solve above writing into caller-owned `result`: every field
/// is overwritten, and result.x (like the warm state) keeps its capacity.
/// A warm, steady solve -- same n, the warm state and `result` reused, a
/// warm arena, a clean converged exit -- performs no heap allocation.
void admm_box_qp(const BoxQpFactor& factor, const Vec& q, const Vec& lo,
                 const Vec& hi, const AdmmOptions& options,
                 AdmmWarmState* warm, AdmmResult& result);

}  // namespace rcr::opt
