#include "rcr/verify/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "rcr/obs/obs.hpp"
#include "rcr/robust/fallback.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/robust/guards.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/simd.hpp"

namespace rcr::verify {

namespace {
// Rows (output neurons) per parallel task in the bound-propagation loops.
// Small nets (every unit test) fall below this grain and run inline; wide
// production layers fan out across the pool.
constexpr std::size_t kNeuronGrain = 32;
}  // namespace

Vec Box::center() const {
  Vec c(lower.size());
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = 0.5 * (lower[i] + upper[i]);
  return c;
}

Vec Box::radius() const {
  Vec r(lower.size());
  for (std::size_t i = 0; i < r.size(); ++i)
    r[i] = 0.5 * (upper[i] - lower[i]);
  return r;
}

double Box::max_width() const {
  double w = 0.0;
  for (std::size_t i = 0; i < lower.size(); ++i)
    w = std::max(w, upper[i] - lower[i]);
  return w;
}

Box Box::around(const Vec& x, double eps) {
  Box b;
  b.lower = x;
  b.upper = x;
  for (double& v : b.lower) v -= eps;
  for (double& v : b.upper) v += eps;
  return b;
}

void Box::validate() const {
  if (lower.size() != upper.size())
    throw std::invalid_argument("Box: dimension mismatch");
  for (std::size_t i = 0; i < lower.size(); ++i)
    if (lower[i] > upper[i])
      throw std::invalid_argument("Box: lower > upper");
}

std::string to_string(BoundMethod m) {
  return m == BoundMethod::kIbp ? "ibp" : "crown";
}

double LayerBounds::mean_width(std::size_t k) const {
  const Box& b = pre_activation.at(k);
  if (b.dim() == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < b.dim(); ++i) acc += b.upper[i] - b.lower[i];
  return acc / static_cast<double>(b.dim());
}

std::size_t LayerBounds::unstable_count(std::size_t k) const {
  const Box& b = pre_activation.at(k);
  std::size_t n = 0;
  for (std::size_t i = 0; i < b.dim(); ++i)
    if (b.lower[i] < 0.0 && b.upper[i] > 0.0) ++n;
  return n;
}

namespace {

// Apply a phase constraint to a pre-activation interval.  Returns false when
// the constraint empties the interval (infeasible branch).
// Snap ULP-scale inversions (which arise when two independently rounded
// bound computations are intersected) back to a point interval; report only
// genuine inversions.
bool repair_interval(double& l, double& u) {
  if (l <= u) return true;
  if (l - u <= 1e-9 * (1.0 + std::abs(l) + std::abs(u))) {
    const double mid = 0.5 * (l + u);
    l = mid;
    u = mid;
    return true;
  }
  return false;
}

bool apply_phase(int phase, double& l, double& u) {
  if (phase > 0) l = std::max(l, 0.0);
  if (phase < 0) u = std::min(u, 0.0);
  return repair_interval(l, u);
}

// ReLU activation interval from a (possibly phase-clipped) pre-activation
// interval.
void relu_interval(double l, double u, double& al, double& au) {
  al = std::max(l, 0.0);
  au = std::max(u, 0.0);
}

}  // namespace

LayerBounds ibp_bounds(const ReluNetwork& net, const Box& input) {
  net.validate();
  input.validate();
  obs::Span span("verify.ibp");
  LayerBounds out;
  out.pre_activation.reserve(net.layers.size());
  Vec mu = input.center();
  Vec r = input.radius();

  // Layer-persistent buffers: only the per-layer result boxes (which outlive
  // the loop inside `out`) allocate once the buffers have grown to the
  // widest layer.
  Vec mu_next;
  Vec r_next;

  for (std::size_t k = 0; k < net.layers.size(); ++k) {
    const AffineLayer& layer = net.layers[k];
    // mu' = W mu + b;  r' = |W| r.
    num::matvec_into(layer.w, mu, mu_next);
    for (std::size_t i = 0; i < mu_next.size(); ++i) mu_next[i] += layer.b[i];
    r_next.assign(layer.out_dim(), 0.0);
    const auto& K = rt::simd::active();
    rt::parallel_for(0, layer.w.rows(), kNeuronGrain,
                     [&](std::size_t i0, std::size_t i1) {
                       const std::size_t cols = layer.w.cols();
                       const double* pw = layer.w.data().data();
                       for (std::size_t i = i0; i < i1; ++i)
                         r_next[i] =
                             K.absdot_seq(0.0, pw + i * cols, r.data(), cols);
                     });

    out.pre_activation.emplace_back();
    Box& pre = out.pre_activation.back();
    pre.lower.resize(mu_next.size());
    pre.upper.resize(mu_next.size());
    for (std::size_t i = 0; i < mu_next.size(); ++i) {
      pre.lower[i] = mu_next[i] - r_next[i];
      pre.upper[i] = mu_next[i] + r_next[i];
    }

    if (k + 1 < net.layers.size()) {
      mu.assign(pre.lower.size(), 0.0);
      r.assign(pre.lower.size(), 0.0);
      for (std::size_t i = 0; i < pre.lower.size(); ++i) {
        double al;
        double au;
        relu_interval(pre.lower[i], pre.upper[i], al, au);
        mu[i] = 0.5 * (al + au);
        r[i] = 0.5 * (au - al);
      }
    } else {
      out.output = pre;
    }
  }
  obs::counter_add("rcr.verify.ibp_passes");
  span.attr("layers", static_cast<double>(net.layers.size()));
  return out;
}

namespace {

// Per-neuron linear ReLU relaxation coefficients over [l, u].
struct ReluRelax {
  double up_slope = 0.0;
  double up_intercept = 0.0;
  double low_slope = 0.0;  // intercept of lower relaxation is always 0
};

ReluRelax relax_neuron(double l, double u) {
  ReluRelax r;
  if (u <= 0.0) {
    return r;  // inactive: a = 0
  }
  if (l >= 0.0) {
    r.up_slope = 1.0;
    r.low_slope = 1.0;
    return r;  // active: a = z
  }
  r.up_slope = u / (u - l);
  r.up_intercept = -l * u / (u - l);
  // Adaptive lower bound (CROWN heuristic): identity when the interval leans
  // positive, zero otherwise.
  r.low_slope = (u >= -l) ? 1.0 : 0.0;
  return r;
}

struct CrownEngine {
  const ReluNetwork& net;
  const Box& input;
  const PhaseAssignment* phases;  // may be null
  const AlphaAssignment* alpha;   // may be null
  std::vector<Box> pre;           // clipped pre-activation bounds so far
  bool infeasible = false;

  int phase_of(std::size_t layer, std::size_t neuron) const {
    if (phases == nullptr) return 0;
    if (layer >= phases->size()) return 0;
    if (neuron >= (*phases)[layer].size()) return 0;
    return (*phases)[layer][neuron];
  }

  // Lower-relaxation slope for an unstable neuron: the tuned alpha when one
  // is supplied, the adaptive heuristic otherwise.
  double lower_slope_of(std::size_t layer, std::size_t neuron,
                        double heuristic) const {
    if (alpha == nullptr) return heuristic;
    if (layer >= alpha->size()) return heuristic;
    if (neuron >= (*alpha)[layer].size()) return heuristic;
    return (*alpha)[layer][neuron];
  }

  // Workspaces reused by every bound_layer call (and, within one call, by
  // every backward step j): once sized for the widest layer the backward
  // substitution performs no steady-state heap allocations beyond the
  // returned Box.
  Matrix lu, ll;        // linear forms being propagated
  Matrix lu_z, ll_z;    // forms after the ReLU substitution
  Matrix lu_next, ll_next;  // products (lu_z W_j) before the swap
  Vec cu, cl;
  Vec mv_scratch;
  // Relaxation coefficients, struct-of-arrays so the substitution kernels
  // stream one coefficient array per select.
  Vec rx_up_slope, rx_up_intercept, rx_low_slope;

  // Backward-propagate linear bounds for the pre-activations of layer k
  // (0-based), given clipped bounds for layers 0..k-1 in `pre`.
  Box bound_layer(std::size_t k) {
    const std::size_t n_out = net.layers[k].out_dim();
    // Linear forms: z_k <= LU * a_{j} + cu  and  z_k >= LL * a_j + cl,
    // initialized at a_{k-1}.
    lu = net.layers[k].w;
    ll = net.layers[k].w;
    cu = net.layers[k].b;
    cl = net.layers[k].b;

    for (std::size_t j = k; j-- > 0;) {
      // Substitute a_j = ReLU(z_j) using the per-neuron relaxations.  The
      // relaxation coefficients depend only on the column (neuron of layer
      // j), so they are computed once up front; the substitution itself is
      // parallel over output rows -- each row owns its lu_z/ll_z slices and
      // its cu/cl entry, and accumulates over columns in ascending order
      // exactly like the serial loop.
      const std::size_t width = net.layers[j].out_dim();
      rx_up_slope.resize(width);
      rx_up_intercept.resize(width);
      rx_low_slope.resize(width);
      for (std::size_t col = 0; col < width; ++col) {
        const double l = pre[j].lower[col];
        const double u = pre[j].upper[col];
        ReluRelax rx = relax_neuron(l, u);
        if (l < 0.0 && u > 0.0)
          rx.low_slope = lower_slope_of(j, col, rx.low_slope);
        rx_up_slope[col] = rx.up_slope;
        rx_up_intercept[col] = rx.up_intercept;
        rx_low_slope[col] = rx.low_slope;
      }
      lu_z.resize(n_out, width);
      ll_z.resize(n_out, width);
      const auto& K = rt::simd::active();
      rt::parallel_for(0, n_out, kNeuronGrain, [&](std::size_t r0,
                                                   std::size_t r1) {
        for (std::size_t row = r0; row < r1; ++row) {
          // Upper form: a positive coefficient picks the over-estimator
          // slope (and accumulates its intercept); a negative one picks the
          // under-estimator.  Lower form mirrored.  cu/cl are independent
          // accumulator chains, so splitting the original interleaved loop
          // into per-row kernel passes preserves every rounding.
          const double* lur = lu.data().data() + row * width;
          const double* llr = ll.data().data() + row * width;
          K.choose_mul(lur, rx_up_slope.data(), rx_low_slope.data(),
                       lu_z.data().data() + row * width, width);
          cu[row] = K.masked_dot_seq(cu[row], lur, rx_up_intercept.data(),
                                     width, true);
          K.choose_mul(llr, rx_low_slope.data(), rx_up_slope.data(),
                       ll_z.data().data() + row * width, width);
          cl[row] = K.masked_dot_seq(cl[row], llr, rx_up_intercept.data(),
                                     width, false);
        }
      });
      // Through the affine layer j: z_j = W_j a_{j-1} + b_j.
      num::matvec_into(lu_z, net.layers[j].b, mv_scratch);
      K.add(cu.data(), mv_scratch.data(), cu.data(), cu.size());
      num::matvec_into(ll_z, net.layers[j].b, mv_scratch);
      K.add(cl.data(), mv_scratch.data(), cl.data(), cl.size());
      num::multiply_into(lu_z, net.layers[j].w, lu_next);
      num::multiply_into(ll_z, net.layers[j].w, ll_next);
      std::swap(lu, lu_next);
      std::swap(ll, ll_next);
    }

    // Concretize on the input box.
    Box out;
    out.lower.assign(n_out, 0.0);
    out.upper.assign(n_out, 0.0);
    const auto& K = rt::simd::active();
    rt::parallel_for(0, n_out, kNeuronGrain, [&](std::size_t r0,
                                                 std::size_t r1) {
      const std::size_t dim = input.dim();
      for (std::size_t row = r0; row < r1; ++row) {
        out.upper[row] =
            K.choose_dot_seq(cu[row], lu.data().data() + row * dim,
                             input.upper.data(), input.lower.data(), dim);
        out.lower[row] =
            K.choose_dot_seq(cl[row], ll.data().data() + row * dim,
                             input.lower.data(), input.upper.data(), dim);
      }
    });
    return out;
  }

  LayerBounds run() {
    // Backward linear bounds with the adaptive lower slope are usually far
    // tighter than intervals, but are not *elementwise* dominant (the slope
    // heuristic can lose to plain intervals on some neurons).  Intersecting
    // with IBP restores elementwise dominance at negligible cost; both sets
    // are sound, so their intersection is too.
    const LayerBounds ibp = ibp_bounds(net, input);
    LayerBounds result;
    result.pre_activation.reserve(net.layers.size());
    pre.reserve(net.layers.size());
    for (std::size_t k = 0; k < net.layers.size(); ++k) {
      Box b = bound_layer(k);
      for (std::size_t i = 0; i < b.dim(); ++i) {
        b.lower[i] = std::max(b.lower[i], ibp.pre_activation[k].lower[i]);
        b.upper[i] = std::min(b.upper[i], ibp.pre_activation[k].upper[i]);
        repair_interval(b.lower[i], b.upper[i]);
      }
      // Record the raw bounds, then clip by phases for downstream layers.
      result.pre_activation.push_back(b);
      if (k + 1 < net.layers.size()) {
        for (std::size_t i = 0; i < b.dim(); ++i) {
          if (!apply_phase(phase_of(k, i), b.lower[i], b.upper[i]))
            infeasible = true;
        }
        if (infeasible) {
          // The branch admits no inputs; give vacuous (empty-set) bounds.
          for (std::size_t i = 0; i < b.dim(); ++i) {
            b.lower[i] = 0.0;
            b.upper[i] = 0.0;
          }
        }
      } else {
        result.output = b;
      }
      pre.push_back(b);
    }
    return result;
  }
};

}  // namespace

LayerBounds crown_bounds(const ReluNetwork& net, const Box& input) {
  net.validate();
  input.validate();
  obs::Span span("verify.crown");
  obs::counter_add("rcr.verify.crown_passes");
  CrownEngine engine{net, input, nullptr, nullptr, {}, false};
  return engine.run();
}

LayerBounds crown_bounds_with_phases(const ReluNetwork& net, const Box& input,
                                     const PhaseAssignment& phases) {
  net.validate();
  input.validate();
  obs::Span span("verify.crown");
  obs::counter_add("rcr.verify.crown_passes");
  CrownEngine engine{net, input, &phases, nullptr, {}, false};
  return engine.run();
}

LayerBounds crown_bounds_with_alpha(const ReluNetwork& net, const Box& input,
                                    const AlphaAssignment& alpha) {
  net.validate();
  input.validate();
  for (const auto& layer : alpha)
    for (double a : layer)
      if (a < 0.0 || a > 1.0)
        throw std::invalid_argument(
            "crown_bounds_with_alpha: alpha outside [0, 1]");
  obs::Span span("verify.crown");
  obs::counter_add("rcr.verify.crown_passes");
  CrownEngine engine{net, input, nullptr, &alpha, {}, false};
  return engine.run();
}

LayerBounds compute_bounds(const ReluNetwork& net, const Box& input,
                           BoundMethod method) {
  return method == BoundMethod::kIbp ? ibp_bounds(net, input)
                                     : crown_bounds(net, input);
}

namespace {

bool box_finite(const Box& b) {
  return robust::all_finite(b.lower) && robust::all_finite(b.upper);
}

}  // namespace

RobustBounds compute_bounds_robust(const ReluNetwork& net, const Box& input) {
  robust::FallbackChain<LayerBounds> chain("bounds");
  // Step 0 is CROWN, step 1 the IBP fallback.
  chain.add("crown", robust::Soundness::kRelaxation,
            [&]() -> robust::Result<LayerBounds> {
              robust::Result<LayerBounds> r;
              r.value = crown_bounds(net, input);
              if (!r.value.output.lower.empty() &&
                  robust::faults::should_inject("verify.crown.nan"))
                r.value.output.lower[0] =
                    std::numeric_limits<double>::quiet_NaN();
              if (!box_finite(r.value.output))
                r.status = robust::make_status(
                    robust::StatusCode::kNumericalFailure,
                    "CROWN output box is non-finite");
              return r;
            });
  chain.add("ibp", robust::Soundness::kRelaxation,
            [&]() -> robust::Result<LayerBounds> {
              return {ibp_bounds(net, input), robust::ok_status()};
            });
  robust::ChainOutcome<LayerBounds> out = chain.run();
  RobustBounds rb;
  rb.bounds = std::move(out.value);
  rb.method = out.winner == 1 ? BoundMethod::kIbp : BoundMethod::kCrown;
  rb.status = std::move(out.status);
  return rb;
}

ReluEnvelope relu_envelope(double l, double u) {
  if (l > u) throw std::invalid_argument("relu_envelope: l > u");
  ReluEnvelope e;
  if (u <= 0.0 || l >= 0.0) {
    // Stable: the envelope is the function itself.
    e.upper_slope = l >= 0.0 ? 1.0 : 0.0;
    e.lower_slope = e.upper_slope;
    return e;
  }
  e.upper_slope = u / (u - l);
  e.upper_intercept = -l * u / (u - l);
  e.lower_slope = (u >= -l) ? 1.0 : 0.0;
  // Gap(z) = (upper) - max(lower_slope*z, relu(z)); maximized at z = 0 for
  // the triangle relaxation.
  e.max_gap = e.upper_intercept;
  return e;
}

TightnessReport tightness_report(const ReluNetwork& net, const Box& input) {
  const LayerBounds ibp = ibp_bounds(net, input);
  const LayerBounds crown = crown_bounds(net, input);
  TightnessReport report;
  for (std::size_t k = 0; k < net.layers.size(); ++k) {
    report.ibp_mean_width.push_back(ibp.mean_width(k));
    report.crown_mean_width.push_back(crown.mean_width(k));
    report.ibp_unstable.push_back(ibp.unstable_count(k));
    report.crown_unstable.push_back(crown.unstable_count(k));
  }
  return report;
}

}  // namespace rcr::verify
