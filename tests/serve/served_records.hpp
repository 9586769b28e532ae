// Test-side check that a served cell's chain step records tell how it was
// served.  Shared by the serve and chaos suites.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "rcr/serve/service.hpp"

namespace rcr::serve {

/// Expect `a`'s records to agree with a.served.  A chain step answers with
/// its own record kWon after every step above it failed or was skipped, and
/// no step below it ran.  A cache hit carries the cached run's records, which
/// hold one winner; a deadline fill's run has none; an answer no chain ran
/// this tick (snapshot, shed, quarantine) carries kNotRun records only.
inline void expect_records_match_served(const CellAllocation& a) {
  using robust::StepOutcome;
  SCOPED_TRACE(std::string("served ") + to_string(a.served));
  std::size_t won = 0;
  for (const robust::StepRecord& r : a.records)
    if (r.outcome == StepOutcome::kWon) ++won;
  std::size_t step = 0;
  switch (a.served) {
    case Served::kAdmm:
      step = 0;
      break;
    case Served::kWaterfill:
      step = 1;
      break;
    case Served::kEqualPower:
      step = 2;
      break;
    case Served::kCache:
      EXPECT_EQ(won, 1u);
      return;
    case Served::kDeadlineFill:
      EXPECT_EQ(won, 0u);
      return;
    case Served::kSnapshot:
    case Served::kShedFill:
    case Served::kQuarantine:
      for (const robust::StepRecord& r : a.records)
        EXPECT_EQ(r.outcome, StepOutcome::kNotRun);
      return;
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const StepOutcome o = a.records[i].outcome;
    if (i < step)
      EXPECT_TRUE(o == StepOutcome::kFailed || o == StepOutcome::kSkipped)
          << "step " << i;
    else
      EXPECT_EQ(o, i == step ? StepOutcome::kWon : StepOutcome::kNotRun)
          << "step " << i;
  }
  EXPECT_EQ(robust::fallthrough(a.records), step);
}

}  // namespace rcr::serve
