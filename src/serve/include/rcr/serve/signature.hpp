// Quantized problem signatures for the allocation-service solution cache.
//
// Two RRA problems that differ only below channel-estimation accuracy should
// share one cache entry: the signature hashes the problem *shape* (sizes,
// power budget, QoS floors), the active-set fingerprint (which user owns
// each RB under the best-gain seed assignment), and the channel gains
// quantized onto a logarithmic grid.  Gains are quantized in the log2
// domain because they span orders of magnitude -- a fixed linear quantum
// would either collapse weak users or never bucket strong ones.
//
// The signature is a pure function of the problem and the config: no clock,
// no global state, so it is bit-identical across threads and runs.
#pragma once

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

/// FNV-1a over raw bytes (seeded so hashes chain).  The tick report's
/// solution-hash witness and the fleet bench's report hash use it;
/// signatures hash whole words instead.  Byte-exact FNV-1a on any length
/// and alignment; on little-endian hosts it steps a word at a time and folds
/// each word's run of zero top bytes into one multiply by a prime power.
std::uint64_t fnv1a_bytes(const void* data, std::size_t bytes,
                          std::uint64_t seed = 1469598103934665603ull);

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

/// Signatures problem_signatures advances together; the serve tick's
/// fan-out grain is a multiple of it.
inline constexpr std::size_t kSignatureChains = 4;

/// Signature of an RRA problem under the given quantization.  Chains, one
/// 64-bit word at a time through a multiply-xorshift step: the dimensions,
/// the quantized budget and QoS floors, the best-gain active-set
/// fingerprint, and every quantized gain in row-major order; an avalanche
/// finalizer then spreads the result over all 64 bits.
std::uint64_t problem_signature(const RraProblem& problem,
                                const SignatureConfig& config = {});

/// The same signature, given `assignment` = qos::best_gain_assignment(problem)
/// already computed by the caller (the serve tick needs it anyway).  Throws
/// std::invalid_argument when its length is not the problem's RB count.
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
