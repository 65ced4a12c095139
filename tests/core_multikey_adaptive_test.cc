#include <cmath>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/closed_form.h"
#include "core/multikey.h"
#include "dist/primitives.h"
#include "dist/production.h"

namespace pbs {
namespace {

TEST(MultiKeyTest, SingleKeyReducesToKFreshness) {
  const QuorumConfig config{3, 1, 1};
  EXPECT_DOUBLE_EQ(MultiKeyFreshnessProbability(config, 1, 2),
                   KFreshnessProbability(config, 2));
}

TEST(MultiKeyTest, ProbabilitiesMultiplyAcrossKeys) {
  const QuorumConfig config{3, 2, 1};
  const double one = KFreshnessProbability(config, 1);
  EXPECT_NEAR(MultiKeyFreshnessProbability(config, 4, 1), std::pow(one, 4),
              1e-12);
}

TEST(MultiKeyTest, StrictQuorumUnaffectedByKeyCount) {
  const QuorumConfig config{3, 2, 2};
  EXPECT_DOUBLE_EQ(MultiKeyFreshnessProbability(config, 100, 1), 1.0);
}

TEST(MaxKeysForFreshnessTargetTest, InvertsTheProduct) {
  const QuorumConfig config{3, 2, 1};  // fresh = 2/3 per key (k=1)
  // (2/3)^m >= 0.1  =>  m <= 5.67  =>  m = 5.
  EXPECT_EQ(MaxKeysForFreshnessTarget(config, 0.1, 1), 5);
  // One key already misses a 0.9 target.
  EXPECT_EQ(MaxKeysForFreshnessTarget(config, 0.9, 1), -1);
  // Strict quorums support unbounded transactions.
  EXPECT_GT(MaxKeysForFreshnessTarget({3, 2, 2}, 0.999, 1), 1000000);
}

TEST(MultiKeyTVisibilityTest, MoreKeysNeedMoreTime) {
  const auto model = MakeIidModel(LnkdDisk(), 3);
  double prev = -1.0;
  for (int keys : {1, 4, 16}) {
    const auto curve = EstimateMultiKeyTVisibility({3, 1, 1}, model, keys,
                                                   40000, /*seed=*/1);
    const double t = curve.TimeForConsistency(0.99);
    EXPECT_GT(t, prev) << "keys=" << keys;
    prev = t;
  }
}

TEST(MultiKeyTVisibilityTest, MatchesProductRuleAtFixedT) {
  // P(all keys consistent at t) ~= P(single consistent at t)^keys, since
  // trials are independent across keys.
  const auto model = MakeIidModel(LnkdDisk(), 3);
  const auto single =
      EstimateMultiKeyTVisibility({3, 1, 1}, model, 1, 150000, /*seed=*/2);
  const auto multi =
      EstimateMultiKeyTVisibility({3, 1, 1}, model, 3, 150000, /*seed=*/3);
  for (double t : {0.0, 5.0, 20.0}) {
    EXPECT_NEAR(multi.ProbConsistent(t),
                std::pow(single.ProbConsistent(t), 3.0), 0.01)
        << "t=" << t;
  }
}

TEST(MultiKeyTVisibilityTest, StrictQuorumImmediatelyConsistent) {
  const auto model = MakeIidModel(Ymmr(), 3);
  const auto curve =
      EstimateMultiKeyTVisibility({3, 2, 2}, model, 8, 20000, /*seed=*/4);
  EXPECT_DOUBLE_EQ(curve.ProbConsistent(0.0), 1.0);
}

// ---------------------------------------------------------------------------
// Adaptive controller (Section 6 "Variable configurations")

AdaptiveControllerOptions TestOptions() {
  AdaptiveControllerOptions options;
  options.sla.fresh_probability = 0.999;
  options.sla.staleness_bound_ms = 5.0;
  options.trials_per_eval = 15000;
  options.seed = 99;
  return options;
}

TEST(AdaptiveControllerTest, KeepsOptimalIncumbentUnderStableConditions) {
  // Under LNKD-SSD, R=W=1 meets a 5 ms SLA and is latency-optimal;
  // repeated updates with the same model must not flap away from it.
  AdaptiveConfigController controller({3, 1, 1}, TestOptions());
  const auto model = MakeIidModel(LnkdSsd(), 3);
  for (int epoch = 0; epoch < 3; ++epoch) {
    controller.Update(model);
  }
  int switches = 0;
  for (const auto& decision : controller.history()) {
    if (decision.switched) ++switches;
    EXPECT_TRUE(decision.feasible);
  }
  EXPECT_EQ(switches, 0);
  EXPECT_EQ(controller.current(), (QuorumConfig{3, 1, 1}));
}

TEST(AdaptiveControllerTest, SwitchesOffSuboptimalIncumbentWithoutHysteresis) {
  // A feasible-but-expensive incumbent ({3,2,1} under SSD) is abandoned
  // for the cheaper feasible R=W=1 because the improvement clears the 0.9
  // hysteresis factor.
  AdaptiveConfigController controller({3, 2, 1}, TestOptions());
  controller.Update(MakeIidModel(LnkdSsd(), 3));
  EXPECT_TRUE(controller.history().back().switched);
  EXPECT_EQ(controller.current(), (QuorumConfig{3, 1, 1}));
}

TEST(AdaptiveControllerTest, AbandonsInfeasibleConfigAfterRegimeShift) {
  // Start on R=W=1 under SSD latencies (feasible), then shift to
  // slow-write disk-era latencies: R=W=1 blows the 5 ms SLA and the
  // controller must move to a config that restores it.
  AdaptiveConfigController controller({3, 1, 1}, TestOptions());
  const auto ssd = MakeIidModel(LnkdSsd(), 3);
  controller.Update(ssd);
  EXPECT_EQ(controller.current(), (QuorumConfig{3, 1, 1}));
  EXPECT_TRUE(controller.history().back().feasible);

  const auto disk = MakeIidModel(LnkdDisk(), 3);
  const QuorumConfig chosen = controller.Update(disk);
  EXPECT_TRUE(controller.history().back().feasible)
      << "controller failed to restore the SLA";
  EXPECT_TRUE(controller.history().back().switched);
  EXPECT_FALSE(chosen == (QuorumConfig{3, 1, 1}));

  // Shifting back to SSD land eventually relaxes toward cheaper configs
  // (the challenger R=W=1 must beat the hysteresis margin).
  controller.Update(ssd);
  EXPECT_TRUE(controller.history().back().feasible);
}

TEST(AdaptiveControllerTest, HistoryRecordsEveryEpoch) {
  AdaptiveConfigController controller({3, 1, 1}, TestOptions());
  const auto model = MakeIidModel(LnkdSsd(), 3);
  controller.Update(model);
  controller.Update(model);
  EXPECT_EQ(controller.history().size(), 2u);
}

TEST(AdaptiveControllerTest, InfeasibleEverywhereStillReportsHonestly) {
  // A 0 ms SLA at 99.99% under heavy-tailed YMMR: only strict quorums
  // qualify; the controller must land on one.
  AdaptiveControllerOptions options = TestOptions();
  options.sla.staleness_bound_ms = 0.0;
  options.sla.fresh_probability = 0.9999;
  AdaptiveConfigController controller({3, 1, 1}, options);
  controller.Update(MakeIidModel(Ymmr(), 3));
  EXPECT_TRUE(controller.history().back().feasible);
  EXPECT_TRUE(controller.current().IsStrict());
}

}  // namespace
}  // namespace pbs
