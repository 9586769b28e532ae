// Portable vectorized kernel layer for the numerics hot loops.
//
// The repo's determinism contract (DESIGN.md Sec. 6-7, 12): every kernel is
// bit-exact.  The table holds lane-independent elementwise ops, paired plane
// rotations, FFT butterflies, the *_seq reductions (SIMD products,
// scalar-ordered adds), the two passes of the structured box-QP ADMM
// sweep (whose sums the scalar reference itself adds in four lanes), the
// fixed per-cell path around that sweep (the register-blocked best-gain
// scan, the Taylor power-QP coefficients, the structured factor's
// reciprocals, the box-QP start and objective, and the sum rate on a
// table log2, each reference adding its sums in the same four lanes) and
// the 4-wide log2 buckets of the cache signature.
// Their vectorized forms perform the identical sequence of IEEE roundings
// as the scalar fallback, so the active path may change between
// builds/machines without changing a single output bit.
//
// Path selection: the best compiled path (AVX2 on x86-64, NEON on aarch64,
// scalar otherwise) is picked once per process, guarded by a runtime CPU
// feature check and the RCR_SIMD environment variable (RCR_SIMD=off|0|scalar
// forces the scalar table).  ForceScalarGuard overrides per thread for
// differential tests.  All kernels take unaligned pointers (the backing
// stores are std::vector / ScratchArena blocks with 16-byte alignment; the
// vector paths use unaligned loads, so alignment is a performance hint, not
// a contract).
//
// NaN/Inf caveat: `butterfly`'s vector path uses the naive complex-multiply
// formula, which matches libstdc++'s fast path bit-for-bit on finite data
// but skips the Annex-G infinity recovery.  All kernels are bit-exact for
// finite inputs; the box-QP sweep and the fixed-path kernels also for NaN,
// +-Inf and signed zeros (projections are compare-and-blends with
// std::clamp's exact semantics, maxima and minima the ordered-compare
// instructions whose NaN rule is the scalar loop's, and rate_log2 hands
// every non-normal argument to the scalar function).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace rcr::rt::simd {

/// Instruction-set paths this build can dispatch to.
enum class Path { kScalar, kAvx2, kNeon };

/// The sums returned by Kernels::boxqp_x, each in the sweep's four-lane
/// order: lane j (j = 0..3) adds the entries i = j mod 4 below the last
/// multiple of 4 in ascending order from 0.0, the lanes combine as
/// (l0 + l1) + (l2 + l3), and the tail entries then add in ascending order.
struct SweepSums {
  double x = 0.0;        ///< sum_i x_i of the pass-1 output.
  double primal2 = 0.0;  ///< sum_i of the primal residual terms handed in.
  double dual2 = 0.0;    ///< sum_i of the dual residual terms handed in.
};

/// The three sums Kernels::box_objective returns, in the four-lane order
/// of SweepSums.
struct ObjectiveSums {
  double quad = 0.0;   ///< sum_i (p_diag_i - c) z_i^2.
  double total = 0.0;  ///< sum_i z_i.
  double lin = 0.0;    ///< sum_i q_i z_i.
};

/// Vectorized kernel table.  One function pointer per kernel; the scalar
/// table is the reference implementation for every differential test.
struct Kernels {
  /// out[i] = a[i] + b[i].  `out` may alias `a` or `b` exactly.
  void (*add)(const double* a, const double* b, double* out, std::size_t n);
  /// out[i] = a[i] - b[i].  Alias policy as `add`.
  void (*sub)(const double* a, const double* b, double* out, std::size_t n);
  /// out[i] = a[i] * b[i] (Hadamard).  Alias policy as `add`.
  void (*mul)(const double* a, const double* b, double* out, std::size_t n);
  /// out[i] = a[i] * s.  `out` may alias `a` exactly.
  void (*scale)(const double* a, double s, double* out, std::size_t n);
  /// y[i] += s * x[i].  The j-lane update of the blocked matmul.
  void (*axpy)(double s, const double* x, double* y, std::size_t n);
  /// Jacobi plane rotation on a row pair:
  ///   x[i] <- c*x[i] - s*y[i];  y[i] <- s*x_old[i] + c*y[i].
  void (*rotate_pair)(double* x, double* y, double c, double s, std::size_t n);
  /// Sequential-order dot: acc = init; acc += a[i]*b[i] for ascending i.
  /// Products are vectorized, additions keep the scalar order -- bit-exact.
  double (*dot_seq)(double init, const double* a, const double* b,
                    std::size_t n);
  /// acc += |a[i]| * b[i], ascending (IBP radius accumulation).
  double (*absdot_seq)(double init, const double* a, const double* b,
                       std::size_t n);
  /// acc += w[i] * (w[i] >= 0 ? pos[i] : neg[i]), ascending (CROWN
  /// concretization).
  double (*choose_dot_seq)(double init, const double* w, const double* pos,
                           const double* neg, std::size_t n);
  /// acc += w[i] * a[i] for indices where (w[i] >= 0) == nonneg, ascending;
  /// other indices are skipped entirely (not added as zero), preserving
  /// signed-zero accumulator bits (CROWN intercept accumulation).
  double (*masked_dot_seq)(double init, const double* w, const double* a,
                           std::size_t n, bool nonneg);
  /// out[i] = w[i] * (w[i] >= 0 ? pos[i] : neg[i]) (CROWN substitution).
  /// `out` must not alias any input.
  void (*choose_mul)(const double* w, const double* pos, const double* neg,
                     double* out, std::size_t n);
  /// Radix-2 FFT butterfly over `n` complex pairs:
  ///   v = hi[k]*tw[k]; hi[k] = lo[k] - v; lo[k] = lo[k] + v.
  /// Bit-exact vs the scalar path for finite data (see header comment).
  void (*butterfly)(std::complex<double>* lo, std::complex<double>* hi,
                    const std::complex<double>* tw, std::size_t n);
  /// Pass 1 of one box-QP ADMM iteration on a diagonal-plus-rank-one
  /// operator (opt::admm_box_qp): the diagonal half of the Sherman-Morrison
  /// x-update, by the reciprocal diagonal `inv_d`,
  ///   x[i] = (rho * (z[i] - u[i]) - q[i]) * inv_d[i],
  /// returning the sum of x and beside it the sums of `primal_terms` and
  /// `dual_terms` (the previous pass 2's residual terms), each in the
  /// four-lane order of SweepSums: twelve independent add chains in one
  /// loop, so the residual sums of iteration k hide under the x-sum of
  /// k + 1.  `x` must not alias an input.
  SweepSums (*boxqp_x)(double rho, const double* z, const double* u,
                       const double* q, const double* inv_d, double* x,
                       const double* primal_terms, const double* dual_terms,
                       std::size_t n);
  /// Pass 2: the rank-one correction, box projection and dual update,
  ///   xi = x[i] - gamma * inv_d[i];  zi = std::clamp(xi + u[i], lo[i], hi[i]);
  ///   u[i] += xi - zi;  z_out[i] = zi;
  ///   primal_terms[i] = (xi - zi)^2;  dual_terms[i] = (zi - z[i])^2.
  /// A NaN xi passes the projection unchanged, as in std::clamp.  `z_out`
  /// and the term arrays must not alias any input; `x` is left as pass 1
  /// wrote it.
  void (*boxqp_zu)(double gamma, const double* inv_d, const double* x,
                   const double* lo, const double* hi, const double* z,
                   double* u, double* z_out, double* primal_terms,
                   double* dual_terms, std::size_t n);
  /// The best-gain scan (qos::best_gain_assignment) of a row-major
  /// users x n gain matrix, users >= 1: for each column i, from user 0's
  /// gain, a user u's gain v takes the column when v > best (strict, so
  /// the lowest index wins a tie, a NaN v never wins and a NaN best is
  /// never beaten); owner[i] and best[i] receive the winner and its gain.
  /// Returns true when some gain is < 0 (NaN and -0.0 are not).  The
  /// vector paths hold a block of columns' best and owner in registers
  /// while every row streams past.
  bool (*best_gain_scan)(const double* gain, std::size_t users, std::size_t n,
                         std::size_t* owner, double* best);
  /// The Taylor coefficients of learn::power_qp_coeffs: for each i, with
  /// g = gain[i] and d = 1 + g * p0,
  ///   curv[i] = g * g * (1 / ln 2) / (d * d);  slope[i] = -g * (1 / ln 2) / d;
  /// returning max(0, max_i curv[i]) under `if (curv > max) max = curv`
  /// (a NaN curv never raises it): exact in any order.
  double (*power_qp_coeffs)(const double* gain, std::size_t n, double p0,
                            double* curv, double* slope);
  /// The structured factor's reciprocals (opt::BoxQpFactor::Dpr1): for
  /// each i, d[i] = p_diag[i] - c + rho + ridge and inv_d[i] = 1 / d[i];
  /// returns sum_i inv_d[i] in the four-lane order of SweepSums, or NaN
  /// when some d[i] is not finite and positive.
  double (*dpr1_inverse)(const double* p_diag, double c, double rho,
                         double ridge, double* d, double* inv_d,
                         std::size_t n);
  /// The box-QP start (opt::admm_box_qp): z[i] = std::clamp(z0[i], lo[i],
  /// hi[i]), or of 0.0 when `z0` is null; returns max_i |q[i]| under
  /// std::max's rule (a NaN |q| never raises it; exact in any order), or
  /// -1.0 when some lo[i] > hi[i], in which case z is unspecified.
  double (*box_start)(const double* lo, const double* hi, const double* z0,
                      const double* q, double* z, std::size_t n);
  /// The structured box-QP objective's sums over z, each in the four-lane
  /// order of SweepSums; the product (p_diag[i] - c) * z[i] * z[i]
  /// multiplies left to right.
  ObjectiveSums (*box_objective)(const double* p_diag, double c,
                                 const double* q, const double* z,
                                 std::size_t n);
  /// The finish of a served answer: power[i] *= scale (scale = 1 leaves
  /// power as it is), then the sum rate
  ///   sum_i (power[i] != 0 ? rate_log2(1 + power[i] * gain[i]) : 0)
  /// in the four-lane order of SweepSums.  An unpowered RB adds nothing
  /// whatever its gain; a +inf gain on a powered RB rates +inf; a NaN
  /// power rates NaN.
  double (*scaled_rate)(double scale, double* power, const double* gain,
                        std::size_t n);
  /// log2_bucket (below) on n gains, four at a time on every path:
  /// bucket[i] = log2_bucket(gain[i], inv_quantum), bit for bit.  Returns
  /// false when some bucket is kLog2BucketSlow.
  bool (*log2_buckets)(const double* gain, std::size_t n, double inv_quantum,
                       std::int64_t* bucket);
};

/// The log2 of Kernels::scaled_rate, the same bits on every path.  For a
/// normal, positive, finite x = 2^e m (m in [1, 2)), the mantissa rounded
/// to 8 bits picks a centre c_j = 1 + j / 256 (j in 0..256), r = (m - c_j)
/// * (1 / c_j) (the difference is exact, |r| <= 2^-9), and
///   log2 x = (e + log2 c_j) + r (C1 + r (C2 + r (C3 + r (C4 + r C5))))
/// with C_k = (-1)^(k+1) / (k ln 2): within a few ulps of log2 x, and
/// exactly 0 at x = 1 and k at x = 2^k.  Any other x (zero, subnormal,
/// negative, +inf, NaN) takes std::log2.  Plain IEEE operations in this
/// order on every path (no FMA).
double rate_log2(double x);

/// log2_bucket's answer for a gain its fast path does not settle.
inline constexpr std::int64_t kLog2BucketSlow =
    std::numeric_limits<std::int64_t>::min() + 2;

/// The log2-free bucket behind serve::quantize_gain's fast path: roughly
/// round(log2(gain) * inv_quantum), from a fixed-point quotient.  For a
/// gain g = 2^e m (m in [1, 2)) with a normal, positive encoding, the top 8
/// mantissa bits pick a centre c_j = 1 + (j + 1/2) / 256, r = m * (1 / c_j)
/// - 1 has |r| <= 2^-9, and
///   y = (e + log2 c_j + r (C1 + r (C2 + r C3))) * inv_quantum + 1.5 * 2^28
/// (C_k = (-1)^(k+1) / (k ln 2)) puts the quotient on a 2^-24 grid; half a
/// step up, y's bits above the low 24 are the rounded quotient plus a
/// constant.  Returns kLog2BucketSlow for any other gain and for a grid
/// value within 2 steps of a half-integer, which the caller settles on its
/// reference path.  Plain IEEE operations in this order on every path (no
/// FMA), so every path returns the same bucket.
std::int64_t log2_bucket(double gain, double inv_quantum);

/// The resolved dispatch path for this process: best compiled path admitted
/// by the runtime CPU check and RCR_SIMD.  Constant after first call.
Path active_path();

/// Short name of `active_path()`: "scalar", "avx2", or "neon" (static
/// storage; usable as an obs label).
const char* path_name();

/// The kernel table for `active_path()`, or the scalar table while a
/// ForceScalarGuard is active on this thread.  When the obs metrics
/// registry is armed, each call bumps rcr.simd.dispatch{path=...} -- call
/// once per operation (not per inner-loop step) and reuse the reference.
const Kernels& active();

/// The scalar reference table, regardless of path or guards.
const Kernels& scalar_kernels();

/// Scoped per-thread override forcing `active()` to hand out the scalar
/// table (differential reference path for tests/benches).  Nestable.
class ForceScalarGuard {
 public:
  ForceScalarGuard();
  ~ForceScalarGuard();
  ForceScalarGuard(const ForceScalarGuard&) = delete;
  ForceScalarGuard& operator=(const ForceScalarGuard&) = delete;
};

/// True while a ForceScalarGuard is active on the calling thread.
bool force_scalar_active();

}  // namespace rcr::rt::simd
