#include "rcr/serve/signature.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

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

// log2 on normal doubles: g = 2^e m with m in [1, 2); the top 8 mantissa
// bits pick a centre c_j = 1 + (j + 1/2) / 256, r = m / c_j - 1 has
// |r| <= 2^-9, and log2 m = log2 c_j + log2(1 + r) by a degree-3 series
// (truncation below 5.3e-12).
constexpr int kTableBits = 8;
constexpr std::size_t kTableSize = std::size_t{1} << kTableBits;
constexpr int kIndexShift = 52 - kTableBits;

struct Log2Table {
  std::array<double, kTableSize> log2_c;
  std::array<double, kTableSize> inv_c;
};

Log2Table make_log2_table() {
  Log2Table t;
  for (std::size_t j = 0; j < kTableSize; ++j) {
    const double c =
        1.0 + (static_cast<double>(j) + 0.5) / static_cast<double>(kTableSize);
    t.log2_c[j] = std::log2(c);
    t.inv_c[j] = 1.0 / c;
  }
  return t;
}

const Log2Table kLog2Table = make_log2_table();

// Exactness.  For a quantum of at least kFastMinQuantum the fast quotient x
// (|x| < 1.1e6) is within 6e-9 of the reference quotient: series truncation
// 5.3e-12 / q, plus under 1e-9 from every other rounding on either side.
// Adding kFixedMagic = 1.5 * 2^28 rounds x onto a 2^-24 grid (3e-8 more), so
// a grid value at least 2 steps (1.2e-7) from a half-integer rounds like the
// reference; one closer takes the reference itself, as does every smaller
// quantum.  FMA contraction only makes x more accurate.
constexpr double kFastMinQuantum = 1e-3;
constexpr double kFixedMagic = 0x1.8p28;
constexpr int kFracBits = 24;
constexpr std::uint64_t kFracMask = (std::uint64_t{1} << kFracBits) - 1;
constexpr std::uint64_t kHalf = std::uint64_t{1} << (kFracBits - 1);

/// quantize_gain by the reference expression, explicit buckets first.
std::int64_t slow_bucket(double gain, double log2_quantum) {
  if (!(gain > 0.0)) return kDeadBucket;
  if (gain == std::numeric_limits<double>::infinity()) return kInfBucket;
  return reference_bucket(gain, log2_quantum);
}

/// quantize_gain for a quantum of at least kFastMinQuantum.
inline std::int64_t quantize_gain_fast(double gain, double log2_quantum,
                                       double inv_quantum) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(gain);
  // One unsigned test catches zero, subnormals, +inf, NaN and the sign bit.
  const std::uint64_t biased = bits >> 52;
  if (biased - 1 >= 0x7FE) [[unlikely]]
    return slow_bucket(gain, log2_quantum);

  constexpr double kC1 = 1.4426950408889634074;  // (-1)^(k+1) / (k ln 2)
  constexpr double kC2 = -kC1 / 2.0;
  constexpr double kC3 = kC1 / 3.0;
  const std::size_t j = (bits >> kIndexShift) & (kTableSize - 1);
  const double m = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFull) |
                                         0x3FF0000000000000ull);
  const double r = m * kLog2Table.inv_c[j] - 1.0;
  const double head =
      static_cast<double>(static_cast<int>(biased) - 1023) +
      kLog2Table.log2_c[j];
  const double series = r * (kC1 + r * (kC2 + r * kC3));
  // The low kFracBits of the sum's bits are x's fraction on the grid; with
  // half a step added the bits above them are round(x) + a constant.
  const std::uint64_t fixed =
      std::bit_cast<std::uint64_t>((head + series) * inv_quantum +
                                   kFixedMagic) +
      kHalf;
  if ((fixed & kFracMask) - 2 >= kFracMask - 3) [[unlikely]]
    return reference_bucket(gain, log2_quantum);
  constexpr std::int64_t kOffset = static_cast<std::int64_t>(
      std::bit_cast<std::uint64_t>(kFixedMagic) >> kFracBits);
  return static_cast<std::int64_t>(fixed >> kFracBits) - kOffset;
}

}  // namespace

std::int64_t quantize_gain(double gain, double log2_quantum) {
  if (!(log2_quantum >= kFastMinQuantum))
    return slow_bucket(gain, log2_quantum);
  return quantize_gain_fast(gain, log2_quantum, 1.0 / log2_quantum);
}

std::uint64_t problem_signature(const RraProblem& problem,
                                const SignatureConfig& config) {
  return problem_signature(problem, qos::best_gain_assignment(problem),
                           config);
}

std::uint64_t problem_signature(const RraProblem& problem,
                                const qos::Assignment& assignment,
                                const SignatureConfig& config) {
  if (!(config.gain_log2_quantum > 0.0) || !(config.scalar_quantum > 0.0))
    throw std::invalid_argument("problem_signature: quanta must be > 0");
  const std::size_t users = problem.num_users();
  const std::size_t rbs = problem.num_rbs();
  if (assignment.size() != rbs)
    throw std::invalid_argument(
        "problem_signature: assignment length mismatch");

  const auto word = [](std::int64_t v) {
    return static_cast<std::uint64_t>(v);
  };
  std::uint64_t h = mix_word(1469598103934665603ull, users);
  h = mix_word(h, rbs);
  h = mix_word(h, word(quantize_scalar(problem.total_power,
                                       config.scalar_quantum)));
  for (double r : problem.min_rate)
    h = mix_word(h, word(quantize_scalar(r, config.scalar_quantum)));

  // Active-set fingerprint: which user wins each RB.  Quantization can leave
  // the gain grid unchanged while the argmax flips on a near-tie; folding
  // the argmax in keeps such problems on separate entries.
  for (std::size_t user : assignment) h = mix_word(h, user);

  const double q = config.gain_log2_quantum;
  const double inv_q = 1.0 / q;
  const std::vector<double>& gains = problem.gain.data();  // row-major
  if (q >= kFastMinQuantum) {
    for (double g : gains)
      h = mix_word(h, word(quantize_gain_fast(g, q, inv_q)));
  } else {
    for (double g : gains) h = mix_word(h, word(slow_bucket(g, q)));
  }
  return avalanche(h);
}

}  // namespace rcr::serve
