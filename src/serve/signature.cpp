#include "rcr/serve/signature.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rcr/rt/scratch_arena.hpp"
#include "rcr/rt/simd.hpp"

namespace rcr::serve {

std::uint64_t fnv1a_bytes(const void* data, std::size_t bytes,
                          std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

constexpr std::int64_t kDeadBucket = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInfBucket = std::numeric_limits<std::int64_t>::max();
// In-range quotients lie in (-2^63, 2^63), and every double there rounds to
// at most 2^63 - 1024 in magnitude, so these two never collide with a real
// bucket or with the sentinels above.
constexpr std::int64_t kOverflowBucket = kInfBucket - 1;
constexpr std::int64_t kUnderflowBucket = kDeadBucket + 1;

/// splitmix64's finalizer: every output bit depends on every input bit, so
/// the cache's bare Fibonacci shard pick sees a uniform key.
std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

std::int64_t quantize_scalar(double value, double quantum) {
  return static_cast<std::int64_t>(std::llround(value / quantum));
}

/// llround(log2(g) / q) with out-of-range quotients (and a NaN one, which
/// only a non-positive quantum can produce) saturated to their buckets.
std::int64_t reference_bucket(double gain, double log2_quantum) {
  const double x = std::log2(gain) / log2_quantum;
  if (x >= 0x1p63) return kOverflowBucket;
  if (!(x > -0x1p63)) return kUnderflowBucket;
  return static_cast<std::int64_t>(std::llround(x));
}

// Exactness.  For a quantum of at least kFastMinQuantum the fast quotient x
// of rt::simd::log2_bucket (|x| < 1.1e6) is within 6e-9 of the reference
// quotient: series truncation 5.3e-12 / q, plus under 1e-9 from every other
// rounding on either side.  Its 1.5 * 2^28 offset rounds x onto a 2^-24
// grid (3e-8 more), so a grid value at least 2 steps (1.2e-7) from a
// half-integer rounds like the reference; log2_bucket leaves one closer to
// the reference itself (kLog2BucketSlow), as it does every gain that is not
// normal and positive.  Smaller quanta always take the reference.
constexpr double kFastMinQuantum = 1e-3;

/// quantize_gain by the reference expression, explicit buckets first.
std::int64_t slow_bucket(double gain, double log2_quantum) {
  if (!(gain > 0.0)) return kDeadBucket;
  if (gain == std::numeric_limits<double>::infinity()) return kInfBucket;
  return reference_bucket(gain, log2_quantum);
}

/// Words signature_words writes for `problem` and an assignment of its RB
/// count, sized from the vectors it walks (an unvalidated problem's floors
/// need not match its user count).
std::size_t word_count(const RraProblem& problem) {
  return 3 + problem.min_rate.size() + 2 * problem.num_rbs();
}

/// The signature's word stream for one problem into `words`: dimensions,
/// quantized budget and floors, the active-set fingerprint (which user wins
/// each RB: quantization can leave the gain grid unchanged while the argmax
/// flips on a near-tie, so folding it in keeps such problems apart), then
/// the quantized gain of each RB's assigned user, in RB order.  Every
/// served answer reads only those gains (the head's power QP, the
/// water-filling step and a cache hit's rebuild alike), so a gain that
/// does not win its RB moves the key only by flipping the assignment.
/// `gains` is scratch for the RB count's assigned gains.
void signature_words(const RraProblem& problem,
                     const qos::Assignment& assignment,
                     const SignatureConfig& config,
                     const rt::simd::Kernels& kernels, double* gains,
                     std::uint64_t* words) {
  const auto word = [](std::int64_t v) {
    return static_cast<std::uint64_t>(v);
  };
  std::size_t w = 0;
  words[w++] = problem.num_users();
  words[w++] = problem.num_rbs();
  words[w++] =
      word(quantize_scalar(problem.total_power, config.scalar_quantum));
  for (double r : problem.min_rate)
    words[w++] = word(quantize_scalar(r, config.scalar_quantum));
  for (std::size_t user : assignment) words[w++] = user;

  const double q = config.gain_log2_quantum;
  const std::size_t rbs = problem.num_rbs();
  const double* g = problem.gain.data().data();  // row-major, user rows
  for (std::size_t rb = 0; rb < rbs; ++rb)
    gains[rb] = g[assignment[rb] * rbs + rb];
  std::uint64_t* out = words + w;
  if (q >= kFastMinQuantum) {
    // Buckets land as int64 in the word slots; only a gain the fast path
    // leaves open takes the reference.
    auto* buckets = reinterpret_cast<std::int64_t*>(out);
    if (!kernels.log2_buckets(gains, rbs, 1.0 / q, buckets))
      for (std::size_t rb = 0; rb < rbs; ++rb)
        if (buckets[rb] == rt::simd::kLog2BucketSlow)
          buckets[rb] = slow_bucket(gains[rb], q);
  } else {
    for (std::size_t rb = 0; rb < rbs; ++rb)
      out[rb] = word(slow_bucket(gains[rb], q));
  }
}

}  // namespace

std::int64_t quantize_gain(double gain, double log2_quantum) {
  if (!(log2_quantum >= kFastMinQuantum))
    return slow_bucket(gain, log2_quantum);
  const std::int64_t bucket = rt::simd::log2_bucket(gain, 1.0 / log2_quantum);
  return bucket == rt::simd::kLog2BucketSlow ? slow_bucket(gain, log2_quantum)
                                             : bucket;
}

std::uint64_t problem_signature(const RraProblem& problem,
                                const SignatureConfig& config) {
  return problem_signature(problem, qos::best_gain_assignment(problem),
                           config);
}

std::uint64_t problem_signature(const RraProblem& problem,
                                const qos::Assignment& assignment,
                                const SignatureConfig& config) {
  const RraProblem* p = &problem;
  const qos::Assignment* a = &assignment;
  std::uint64_t sig = 0;
  problem_signatures({&p, 1}, {&a, 1}, config, {&sig, 1});
  return sig;
}

void problem_signatures(std::span<const RraProblem* const> problems,
                        std::span<const qos::Assignment* const> assignments,
                        const SignatureConfig& config,
                        std::span<std::uint64_t> out) {
  if (!(config.gain_log2_quantum > 0.0) || !(config.scalar_quantum > 0.0))
    throw std::invalid_argument("problem_signature: quanta must be > 0");
  const std::size_t count = problems.size();
  if (assignments.size() != count || out.size() != count)
    throw std::invalid_argument("problem_signatures: span length mismatch");
  for (std::size_t k = 0; k < count; ++k) {
    if (assignments[k]->size() != problems[k]->num_rbs())
      throw std::invalid_argument(
          "problem_signature: assignment length mismatch");
    for (std::size_t user : *assignments[k])
      if (user >= problems[k]->num_users())
        throw std::invalid_argument(
            "problem_signature: assigned user out of range");
  }

  const rt::simd::Kernels& kernels = rt::simd::active();
  rt::ScratchArena& arena = rt::tls_arena();
  constexpr std::size_t kChains = kSignatureChains;
  for (std::size_t k0 = 0; k0 < count; k0 += kChains) {
    const std::size_t m = std::min(kChains, count - k0);
    const auto scope = arena.scope();
    const std::uint64_t* words[kChains];
    std::size_t len[kChains];
    std::uint64_t h[kChains];
    for (std::size_t j = 0; j < m; ++j) {
      const RraProblem& problem = *problems[k0 + j];
      len[j] = word_count(problem);
      std::uint64_t* buf = arena.alloc<std::uint64_t>(len[j]);
      signature_words(problem, *assignments[k0 + j], config, kernels,
                      arena.alloc<double>(problem.num_rbs()), buf);
      words[j] = buf;
      h[j] = kHashBasis;
    }
    mix_chains(h, m, words, len);
    for (std::size_t j = 0; j < m; ++j) out[k0 + j] = avalanche(h[j]);
  }
}

}  // namespace rcr::serve
