// What the serve tick's solution cache keeps of one answer (DESIGN.md §13).
//
// Internal to AllocationService: the header exists so the service's member
// types are complete and the tests can drive the store/restore round trip
// on its own.  Only what a hit cannot rebuild is kept.  The assignment is
// not stored: the signature folds the best-gain assignment in word for
// word, so a hit's assignment is the one the tick just computed.  served,
// step and iterations are overwritten on a hit, and injected is always
// false for a cached answer.
#pragma once

#include "rcr/numerics/vector_ops.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/qos/rra.hpp"
#include "rcr/robust/fallback.hpp"

namespace rcr::serve {

struct CellAllocation;

namespace detail {

/// One cache entry.  A copy reuses the destination's storage.
struct CachedAnswer {
  Vec power;
  double sum_rate = 0.0;
  robust::StepRecords records{};
  opt::WarmUse warm_use = opt::WarmUse::kCold;
};

/// Keep what a hit on `alloc` would return in `entry`, reusing its storage.
void store_answer(const CellAllocation& alloc, CachedAnswer& entry);

/// Rebuild a cache hit into `out` from `entry` and this tick's best-gain
/// `assignment`, reusing out's storage.  Returns false, with `out`
/// untouched, when the entry's power vector is not the assignment's length:
/// a 64-bit signature collision, which the caller serves as a miss.
bool restore_answer(const CachedAnswer& entry,
                    const qos::Assignment& assignment, CellAllocation& out);

}  // namespace detail
}  // namespace rcr::serve
