// Brownout controller: hysteresis state machine on deterministic pressure
// sequences, dwell/transition accounting, and the integration path where a
// sustained ADMM outage storm escalates the service into BROWNOUT.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rcr/obs/obs.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/serve/overload.hpp"
#include "rcr/serve/service.hpp"

namespace rcr::serve {
namespace {

BrownoutConfig fast_config() {
  BrownoutConfig bc;
  bc.enabled = true;
  bc.enter_brownout = 0.5;
  bc.enter_shed = 0.9;
  bc.enter_ticks = 2;
  bc.exit_ticks = 2;
  return bc;
}

// Pressure here comes only from degraded_fraction; depth 1.0 keeps the
// other term quiet.
void feed(BrownoutController& ctl, double degraded_fraction,
          std::size_t ticks) {
  for (std::size_t i = 0; i < ticks; ++i)
    ctl.observe(degraded_fraction, 1.0);
}

TEST(BrownoutController, DisabledNeverLeavesNormal) {
  BrownoutConfig bc = fast_config();
  bc.enabled = false;
  BrownoutController ctl(bc);
  feed(ctl, 1.0, 10);
  EXPECT_EQ(ctl.state(), BrownoutState::kNormal);
  EXPECT_EQ(ctl.transitions(), 0u);
}

TEST(BrownoutController, EntersBrownoutAfterSustainedPressure) {
  BrownoutController ctl(fast_config());
  feed(ctl, 0.6, 1);
  EXPECT_EQ(ctl.state(), BrownoutState::kNormal) << "one tick is not enough";
  feed(ctl, 0.6, 1);
  EXPECT_EQ(ctl.state(), BrownoutState::kBrownout);
  EXPECT_EQ(ctl.transitions(), 1u);
}

TEST(BrownoutController, PressureBlipDoesNotTrip) {
  BrownoutController ctl(fast_config());
  feed(ctl, 0.6, 1);
  feed(ctl, 0.0, 1);  // dip resets the enter counter
  feed(ctl, 0.6, 1);
  EXPECT_EQ(ctl.state(), BrownoutState::kNormal);
}

TEST(BrownoutController, EscalatesToShedAndRecoversStepwise) {
  BrownoutController ctl(fast_config());
  feed(ctl, 0.6, 2);
  ASSERT_EQ(ctl.state(), BrownoutState::kBrownout);
  feed(ctl, 0.95, 2);
  ASSERT_EQ(ctl.state(), BrownoutState::kShed);
  // Recovery is stepwise: SHED -> BROWNOUT -> NORMAL, each gated by
  // exit_ticks below the exit threshold (enter x kBrownoutExitMargin).
  feed(ctl, 0.3, 2);  // below 0.9*0.5 = 0.45
  EXPECT_EQ(ctl.state(), BrownoutState::kBrownout);
  feed(ctl, 0.1, 2);  // below 0.5*0.5 = 0.25
  EXPECT_EQ(ctl.state(), BrownoutState::kNormal);
  EXPECT_EQ(ctl.transitions(), 4u);
}

TEST(BrownoutController, MiddleZoneHoldsBrownout) {
  static_assert(kBrownoutExitMargin == 0.5);
  BrownoutController ctl(fast_config());
  feed(ctl, 0.6, 2);
  ASSERT_EQ(ctl.state(), BrownoutState::kBrownout);
  feed(ctl, 0.4, 20);  // above exit (0.25), below shed-entry (0.9)
  EXPECT_EQ(ctl.state(), BrownoutState::kBrownout);
  feed(ctl, 0.25, 20);  // exactly enter_brownout x 0.5 is not below it
  EXPECT_EQ(ctl.state(), BrownoutState::kBrownout);
  EXPECT_EQ(ctl.transitions(), 1u);
}

TEST(BrownoutController, DwellCountsSumToObservedTicks) {
  BrownoutController ctl(fast_config());
  feed(ctl, 0.6, 2);
  feed(ctl, 0.95, 2);
  feed(ctl, 0.0, 4);
  EXPECT_EQ(ctl.dwell(BrownoutState::kNormal) +
                ctl.dwell(BrownoutState::kBrownout) +
                ctl.dwell(BrownoutState::kShed),
            8u);
  EXPECT_GT(ctl.dwell(BrownoutState::kShed), 0u);
}

TEST(BrownoutController, FallbackDepthBuildsPressure) {
  // No degraded cells, but every solve fell through 1.2 steps on average:
  // pressure (depth - 1) / 2 = 0.6 is above enter_brownout.
  BrownoutController ctl(fast_config());
  ctl.observe(0.0, 2.2);
  ctl.observe(0.0, 2.2);
  EXPECT_EQ(ctl.state(), BrownoutState::kBrownout);
}

TEST(BrownoutController, StateNamesAreStable) {
  EXPECT_STREQ(to_string(BrownoutState::kNormal), "normal");
  EXPECT_STREQ(to_string(BrownoutState::kBrownout), "brownout");
  EXPECT_STREQ(to_string(BrownoutState::kShed), "shed");
}

WorkloadConfig storm_workload() {
  WorkloadConfig wc;
  wc.num_cells = 4;
  wc.num_rbs = 6;
  wc.min_users = 2;
  wc.peak_users = 3;
  wc.period_ticks = 16;
  wc.coherence_ticks = 1;  // fresh channels: no cache shortcuts
  wc.seed = 1234;
  return wc;
}

TEST(Brownout, AdmmOutageStormEscalatesTheService) {
  // rate=1 on serve.admm.outage degrades every cell every tick; the
  // degraded_fraction pressure trips BROWNOUT after enter_ticks.
  const WorkloadConfig wc = storm_workload();
  ServiceConfig sc;
  sc.cache_enabled = false;
  sc.brownout.enabled = true;
  sc.brownout.enter_brownout = 0.5;
  sc.brownout.enter_shed = 2.0;  // unreachable: stay in BROWNOUT
  sc.brownout.enter_ticks = 2;
  sc.brownout.exit_ticks = 2;

  robust::faults::ScopedFaults scope(
      "seed=7,rate=1,sites=serve.admm.outage");
  obs::ScopedMetrics metrics;
  DiurnalWorkload wl(wc);
  AllocationService service(sc, wc.num_cells);
  for (std::size_t t = 0; t < 6; ++t) {
    wl.advance(t);
    service.tick(t, wl);
  }
  EXPECT_EQ(service.brownout().state(), BrownoutState::kBrownout);
  EXPECT_GE(service.brownout().transitions(), 1u);

  bool saw_transition_counter = false;
  for (const obs::MetricSample& s : obs::metrics_snapshot())
    if (s.name == "rcr.brownout.transitions" && s.value >= 1.0)
      saw_transition_counter = true;
  EXPECT_TRUE(saw_transition_counter);
}

TEST(Brownout, EscalationIsBitExactSerialVsParallel) {
  const WorkloadConfig wc = storm_workload();
  ServiceConfig sc;
  sc.cache_enabled = false;
  sc.brownout.enabled = true;
  sc.brownout.enter_brownout = 0.5;
  sc.brownout.enter_shed = 2.0;
  sc.brownout.enter_ticks = 2;
  sc.brownout.exit_ticks = 2;

  const auto run = [&]() {
    robust::faults::ScopedFaults scope(
        "seed=7,rate=1,sites=serve.admm.outage");
    DiurnalWorkload wl(wc);
    AllocationService service(sc, wc.num_cells);
    std::vector<std::string> trace;
    for (std::size_t t = 0; t < 8; ++t) {
      wl.advance(t);
      const TickReport r = service.tick(t, wl);
      trace.push_back(std::to_string(r.solution_hash) + ":" +
                      std::to_string(r.brownout_state));
    }
    return trace;
  };

  std::vector<std::string> serial_trace;
  {
    rt::ForceSerialGuard serial;
    serial_trace = run();
  }
  EXPECT_EQ(serial_trace, run());
}

}  // namespace
}  // namespace rcr::serve
