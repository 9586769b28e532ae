// Quantized problem signatures for the allocation-service solution cache.
//
// Two RRA problems that differ only below channel-estimation accuracy should
// share one cache entry: the signature hashes the problem *shape* (sizes,
// power budget, QoS floors), the active-set fingerprint (which user owns
// each RB under the best-gain seed assignment), and each RB's assigned gain
// quantized onto a logarithmic grid -- the only gains a served answer
// reads.  Gains are quantized in the log2 domain because they span orders
// of magnitude -- a fixed linear quantum would either collapse weak users
// or never bucket strong ones.
//
// The signature is a pure function of the problem and the config: no clock,
// no global state, so it is bit-identical across threads and runs.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "rcr/qos/rra.hpp"

namespace rcr::serve {

using qos::RraProblem;

/// Quantization knobs.  The defaults bucket gains to ~0.05 in log2 (about
/// 0.15 dB), well inside typical CQI reporting accuracy.
struct SignatureConfig {
  /// Quantum of the log2(gain) grid.  Smaller = more cache misses but less
  /// allocation error on a hit.  Must be > 0.
  double gain_log2_quantum = 0.05;
  /// Quantum for the power budget and QoS floors (linear domain).
  double scalar_quantum = 1e-6;
};

/// The starting state of every word-hash chain and fnv1a_bytes' default
/// seed.  It is not FNV-1a's published offset basis (14695981039346656037,
/// one decimal digit longer); committed hashes were made with this value.
inline constexpr std::uint64_t kHashBasis = 1469598103934665603ull;

/// FNV-1a over raw bytes, one byte a step, from `seed` (so hashes chain).
/// The fleet bench's report hash uses it; signatures and the tick's solution
/// hash step whole words through mix_word instead.
std::uint64_t fnv1a_bytes(const void* data, std::size_t bytes,
                          std::uint64_t seed = kHashBasis);

/// One 64-bit word into a hash chain: the xor and odd multiply carry low
/// bits upward, the xorshift carries high bits back down.  Each step is a
/// bijection of the state for a fixed word and injective in the word for a
/// fixed state, so a chain's end state moves whenever any one word does.
inline std::uint64_t mix_word(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0xFF51AFD7ED558CCDull;
  return h ^ (h >> 32);
}

/// Signatures problem_signatures advances together; the serve tick's
/// fan-out grain is a multiple of it.
inline constexpr std::size_t kSignatureChains = 4;

/// Advance chains h[0..m) (m <= kSignatureChains) through their own runs,
/// h[j] = mix_word(h[j], bits of seg[j][i]) for i = 0..len[j] - 1, each
/// chain in its own order.  A full set of chains steps together over the
/// runs' common length, so their multiply latencies overlap.  T is any
/// 8-byte trivially copyable type (a word, a size_t, a double's bits).
template <class T>
void mix_chains(std::uint64_t* h, std::size_t m, const T* const* seg,
                const std::size_t* len) {
  static_assert(sizeof(T) == sizeof(std::uint64_t));
  const auto word = [](T v) { return std::bit_cast<std::uint64_t>(v); };
  std::size_t i = 0;
  if (m == kSignatureChains) {
    const std::size_t common = *std::min_element(len, len + m);
    for (; i < common; ++i)
      for (std::size_t j = 0; j < kSignatureChains; ++j)
        h[j] = mix_word(h[j], word(seg[j][i]));
  }
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t v = i; v < len[j]; ++v)
      h[j] = mix_word(h[j], word(seg[j][v]));
}

/// Quantize one gain onto the log2 grid: llround(log2(g) / quantum), exactly,
/// for every double g and every quantum > 0, with or without FMA
/// contraction.  Normal gains take a log2-free path (rt::simd::log2_bucket:
/// exponent bits, a 256-entry mantissa table, a short series, a
/// magic-constant round) that defers to the reference expression within
/// 1.2e-7 of a bucket midpoint;
/// subnormal gains and quanta below 1e-3 always take the reference.  Where
/// that expression is unspecified the bucket is explicit instead:
///   - g <= 0 and NaN: INT64_MIN, the dead-RB sentinel;
///   - g = +inf: INT64_MAX;
///   - a finite quotient at or beyond +2^63: INT64_MAX - 1; at or below
///     -2^63: INT64_MIN + 1.
/// No finite in-range quotient reaches any of these four buckets.
std::int64_t quantize_gain(double gain, double log2_quantum);

/// Signature of an RRA problem under the given quantization.  Chains, one
/// 64-bit word at a time through mix_word: the dimensions, the quantized
/// budget and QoS floors, the best-gain active-set fingerprint, and the
/// quantized gain(assignment[rb], rb) of every RB in RB order; an avalanche
/// finalizer then spreads the result over all 64 bits.  A gain no RB is
/// assigned to moves the signature only when it changes the assignment.
std::uint64_t problem_signature(const RraProblem& problem,
                                const SignatureConfig& config = {});

/// The same signature, given `assignment` = qos::best_gain_assignment(problem)
/// already computed by the caller (the serve tick needs it anyway).  Throws
/// std::invalid_argument when its length is not the problem's RB count or
/// when an entry is not below the problem's user count (the key reads the
/// gain it names).
std::uint64_t problem_signature(const RraProblem& problem,
                                const qos::Assignment& assignment,
                                const SignatureConfig& config = {});

/// out[k] = problem_signature(*problems[k], *assignments[k], config) for
/// every k, bit for bit.  Up to kSignatureChains signature chains advance
/// together, one word each per step, and gains quantize four at a time on
/// rt::simd::Kernels::log2_buckets.  Throws std::invalid_argument on
/// mismatched span lengths and as problem_signature does, before hashing.
void problem_signatures(std::span<const RraProblem* const> problems,
                        std::span<const qos::Assignment* const> assignments,
                        const SignatureConfig& config,
                        std::span<std::uint64_t> out);

}  // namespace rcr::serve
