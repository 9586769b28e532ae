// Warm-start vocabulary shared by the iterative solvers.
//
// The serving loop (src/serve) re-solves near-identical problems tick after
// tick: on a slowly-varying channel the previous tick's primal/dual state is
// an excellent starting point, and ADMM / interior-point methods both
// converge in a fraction of their cold iteration counts when seeded with it.
// Each solver defines its own state struct (AdmmWarmState, SdpWarmState,
// BarrierWarmState); this header holds the shared acceptance taxonomy and
// the validation helper every accept path runs.
//
// Contract (enforced by tests/serve/test_warm_start.cpp):
//  - A null/empty warm state is a cold start, bit-identical to the legacy
//    overloads.
//  - A warm state equal to the solver's cold initialization produces
//    bit-identical results to a cold start (same arithmetic, same order).
//  - A corrupted warm state (wrong size, NaN/Inf anywhere) is *rejected*:
//    the solver notes the rejection in its status trail, falls back to the
//    cold initialization, and the result is bit-identical to a cold start.
//  - On a clean exit the solver writes its final state back so the caller
//    can chain solves; after a numerical failure the state is cleared
//    instead, so the next solve cold-starts rather than inheriting poison.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "rcr/numerics/matrix.hpp"

namespace rcr::opt {

/// What the solver did with the warm state it was handed.
enum class WarmUse {
  kCold,      ///< No warm state supplied (or it was empty): cold start.
  kAccepted,  ///< Warm state validated and used as the initial iterate.
  kRejected   ///< Warm state failed validation; cold start was used.
};

inline const char* to_string(WarmUse use) {
  switch (use) {
    case WarmUse::kCold:
      return "cold";
    case WarmUse::kAccepted:
      return "accepted";
    case WarmUse::kRejected:
      return "rejected";
  }
  return "?";
}

namespace detail {

/// True when `v` has exactly `n` entries, all finite.  Branch-free on the
/// bits, so it vectorizes: an all-ones exponent (inf or NaN) carries into
/// the sign bit when one more exponent unit is added.
inline bool warm_vec_ok(const Vec& v, std::size_t n) {
  if (v.size() != n) return false;
  constexpr std::uint64_t kExponent = 0x7FF0000000000000ull;
  constexpr std::uint64_t kUnit = 0x0010000000000000ull;
  std::uint64_t non_finite = 0;
  for (double x : v)
    non_finite |= (std::bit_cast<std::uint64_t>(x) & kExponent) + kUnit;
  return (non_finite >> 63) == 0;
}

}  // namespace detail

}  // namespace rcr::opt
