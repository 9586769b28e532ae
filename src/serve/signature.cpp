#include "rcr/serve/signature.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "rcr/rt/scratch_arena.hpp"
#include "rcr/rt/simd.hpp"

namespace rcr::serve {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// kFnvPrimePow[k] = P^k mod 2^64.
constexpr std::array<std::uint64_t, 9> kFnvPrimePow = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k)
    pow[k] = pow[k - 1] * kFnvPrime;
  return pow;
}();

}  // namespace

std::uint64_t fnv1a_bytes(const void* data, std::size_t bytes,
                          std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // A zero byte's step is (h ^ 0) * P = h * P, so a word whose top k
    // bytes are zero takes its low 8 - k bytes' steps, then one multiply by
    // P^k: a small index word hashes with one xor and one multiply by P^8.
    for (; i + 8 <= bytes; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, p + i, 8);
      const int live = 8 - std::countl_zero(w) / 8;
      for (int b = 0; b < live; ++b) {
        h ^= (w >> (8 * b)) & 0xFF;
        h *= kFnvPrime;
      }
      if (live < 8) h *= kFnvPrimePow[8 - live];
    }
  }
  for (; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
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

/// One 64-bit word into the signature chain: the xor and odd multiply carry
/// low bits upward, the xorshift carries high bits back down.  Each step is
/// a bijection of the state for a fixed word and injective in the word for
/// a fixed state.
std::uint64_t mix_word(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0xFF51AFD7ED558CCDull;
  return h ^ (h >> 32);
}

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
  return 3 + problem.min_rate.size() + problem.num_rbs() +
         problem.gain.data().size();
}

/// The signature's word stream for one problem into `words`: dimensions,
/// quantized budget and floors, the active-set fingerprint (which user wins
/// each RB: quantization can leave the gain grid unchanged while the argmax
/// flips on a near-tie, so folding it in keeps such problems apart), then
/// every quantized gain in row-major order.
void signature_words(const RraProblem& problem,
                     const qos::Assignment& assignment,
                     const SignatureConfig& config,
                     const rt::simd::Kernels& kernels, std::uint64_t* words) {
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
  const std::vector<double>& gains = problem.gain.data();  // row-major
  const std::size_t count = gains.size();
  std::uint64_t* out = words + w;
  if (q >= kFastMinQuantum) {
    // Buckets land as int64 in the word slots; only a gain the fast path
    // leaves open takes the reference.
    auto* buckets = reinterpret_cast<std::int64_t*>(out);
    if (!kernels.log2_buckets(gains.data(), count, 1.0 / q, buckets))
      for (std::size_t i = 0; i < count; ++i)
        if (buckets[i] == rt::simd::kLog2BucketSlow)
          buckets[i] = slow_bucket(gains[i], q);
  } else {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = word(slow_bucket(gains[i], q));
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
  for (std::size_t k = 0; k < count; ++k)
    if (assignments[k]->size() != problems[k]->num_rbs())
      throw std::invalid_argument(
          "problem_signature: assignment length mismatch");

  const rt::simd::Kernels& kernels = rt::simd::active();
  rt::ScratchArena& arena = rt::tls_arena();
  constexpr std::size_t kChains = kSignatureChains;
  for (std::size_t k0 = 0; k0 < count; k0 += kChains) {
    const std::size_t m = std::min(kChains, count - k0);
    const auto scope = arena.scope();
    const std::uint64_t* words[kChains];
    std::size_t len[kChains];
    std::uint64_t h[kChains];
    std::size_t common = std::numeric_limits<std::size_t>::max();
    for (std::size_t j = 0; j < m; ++j) {
      const RraProblem& problem = *problems[k0 + j];
      len[j] = word_count(problem);
      std::uint64_t* buf = arena.alloc<std::uint64_t>(len[j]);
      signature_words(problem, *assignments[k0 + j], config, kernels, buf);
      words[j] = buf;
      h[j] = 1469598103934665603ull;
      common = std::min(common, len[j]);
    }
    // The chains are independent: advancing them in one loop overlaps
    // their multiply latencies, and each still sees its own words in order.
    std::size_t w = 0;
    if (m == kChains)
      for (; w < common; ++w)
        for (std::size_t j = 0; j < kChains; ++j)
          h[j] = mix_word(h[j], words[j][w]);
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t v = w; v < len[j]; ++v) h[j] = mix_word(h[j], words[j][v]);
      out[k0 + j] = avalanche(h[j]);
    }
  }
}

}  // namespace rcr::serve
