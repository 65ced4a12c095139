#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/sla.h"
#include "core/staleness_detector.h"
#include "core/wars.h"
#include "dist/production.h"

namespace pbs {
namespace {

SlaOptimizer::ModelFactory DiskFactory() {
  return [](int n) { return MakeIidModel(LnkdDisk(), n); };
}

TEST(SlaOptimizerTest, EnumeratesTheWholeBox) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/2000, /*seed=*/1);
  SlaConstraints constraints;
  constraints.min_n = 2;
  constraints.max_n = 3;
  const auto candidates = optimizer.EnumerateAll(constraints, {}).value();
  // N=2 contributes 2*2 configs, N=3 contributes 3*3.
  EXPECT_EQ(candidates.size(), 4u + 9u);
}

TEST(SlaOptimizerTest, FeasibleSortedByObjective) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/3000, /*seed=*/2);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  constraints.sla.staleness_bound_ms = 1e9;  // everything feasible
  const auto candidates = optimizer.EnumerateAll(constraints, {}).value();
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_TRUE(candidates[i - 1].feasible);
    EXPECT_LE(candidates[i - 1].objective, candidates[i].objective);
  }
}

TEST(SlaOptimizerTest, TightStalenessBoundForcesStricterQuorums) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/5000, /*seed=*/3);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  constraints.sla.fresh_probability = 0.9999;
  constraints.sla.staleness_bound_ms = 0.0;  // zero staleness window
  const auto best = optimizer.Optimize(constraints, {});
  ASSERT_TRUE(best.ok());
  // Only overlapping quorums give a zero window at that probability.
  EXPECT_TRUE(best.value().config.IsStrict());
}

TEST(SlaOptimizerTest, RelaxedBoundPrefersR1W1) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/5000, /*seed=*/4);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  constraints.sla.fresh_probability = 0.999;
  constraints.sla.staleness_bound_ms = 1e6;  // effectively unconstrained
  const auto best = optimizer.Optimize(constraints, {});
  ASSERT_TRUE(best.ok());
  // Smallest quorums are fastest when staleness does not bind.
  EXPECT_EQ(best.value().config.r, 1);
  EXPECT_EQ(best.value().config.w, 1);
}

TEST(SlaOptimizerTest, DurabilityFloorRespected) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/2000, /*seed=*/5);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  constraints.min_write_quorum = 2;
  constraints.sla.staleness_bound_ms = 1e6;
  const auto candidates = optimizer.EnumerateAll(constraints, {}).value();
  for (const auto& candidate : candidates) {
    EXPECT_GE(candidate.config.w, 2);
  }
}

TEST(SlaOptimizerTest, UnsatisfiableReturnsNotFound) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/1000, /*seed=*/6);
  SlaConstraints constraints;
  constraints.min_n = 2;
  constraints.max_n = 2;
  constraints.min_write_quorum = 3;  // no W in [3, 2]: empty box
  const auto best = optimizer.Optimize(constraints, {});
  EXPECT_FALSE(best.ok());
}

TEST(SlaOptimizerTest, WriteWeightSteersTheChoice) {
  // With only write latency in the objective and a strict-staleness bound,
  // prefer W=1-ish configs that satisfy the bound through R instead.
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/5000, /*seed=*/7);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  constraints.sla.fresh_probability = 0.9999;
  constraints.sla.staleness_bound_ms = 0.0;
  SlaObjective writes_only;
  writes_only.read_weight = 0.0;
  writes_only.write_weight = 1.0;
  const auto best = optimizer.Optimize(constraints, writes_only);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best.value().config.w, 1);
  EXPECT_EQ(best.value().config.r, 3);  // R=3, W=1 is the write-cheap strict quorum
}

TEST(SlaOptimizerTest, RejectsOutOfRangeInputWithStatus) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/100, /*seed=*/8);
  SlaConstraints box;
  box.min_n = 2;
  box.max_n = 3;
  std::vector<SlaConstraints> bad(10, box);
  bad[0].sla.fresh_probability = 1.5;  // `pbs sla --prob=1.5`
  bad[1].sla.fresh_probability = 1.0;
  bad[2].sla.fresh_probability = 0.0;  // a disabled SLA is no target
  bad[3].sla.fresh_probability = -0.1;
  bad[4].sla.fresh_probability = std::nan("");
  bad[5].sla.staleness_bound_ms = -1.0;
  bad[6].sla.read_p99_ms = 0.0;
  bad[7].min_n = 0;
  bad[8].max_n = 1;  // below min_n
  bad[9].min_write_quorum = 0;
  for (size_t i = 0; i < bad.size(); ++i) {
    const auto all = optimizer.EnumerateAll(bad[i], {});
    ASSERT_FALSE(all.ok()) << i;
    EXPECT_EQ(all.status().code(), StatusCode::kInvalidArgument) << i;
    const auto best = optimizer.Optimize(bad[i], {});
    ASSERT_FALSE(best.ok()) << i;
    EXPECT_EQ(best.status().code(), StatusCode::kInvalidArgument) << i;
  }
  SlaOptimizer no_trials(DiskFactory(), /*trials=*/0, /*seed=*/8);
  const auto best = no_trials.Optimize(box, {});
  ASSERT_FALSE(best.ok());
  EXPECT_EQ(best.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Staleness detector (Section 4.3)

TEST(StalenessDetectorTest, ConsistentWhenNoNewerLateResponses) {
  StalenessDetector detector;
  ReadObservation obs;
  obs.returned_version = 5;
  obs.late_response_versions = {5, 4, 0};
  EXPECT_EQ(detector.Observe(obs), StalenessVerdict::kConsistent);
  EXPECT_EQ(detector.consistent(), 1);
}

TEST(StalenessDetectorTest, HeuristicModeFlagsWithoutClassifying) {
  StalenessDetector detector;  // no oracle
  ReadObservation obs;
  obs.returned_version = 3;
  obs.late_response_versions = {7};
  EXPECT_EQ(detector.Observe(obs), StalenessVerdict::kFlagged);
  EXPECT_EQ(detector.flagged(), 1);
  EXPECT_EQ(detector.stale(), 0);
}

TEST(StalenessDetectorTest, OracleSeparatesStaleFromFalsePositive) {
  // Versions 1..10 commit at time = version; version 9 is uncommitted.
  auto oracle = [](int64_t version) -> double {
    if (version == 9) return -1.0;
    return static_cast<double>(version);
  };
  StalenessDetector detector(oracle);

  // Read started at t=6.5 and returned version 5; a late response shows
  // version 6, which committed at 6.0 <= 6.5: a true stale read.
  ReadObservation stale;
  stale.returned_version = 5;
  stale.read_start_time = 6.5;
  stale.late_response_versions = {6};
  EXPECT_EQ(detector.Observe(stale), StalenessVerdict::kStale);

  // Late response shows uncommitted version 9: newer-but-uncommitted.
  ReadObservation in_flight;
  in_flight.returned_version = 8;
  in_flight.read_start_time = 8.5;
  in_flight.late_response_versions = {9};
  EXPECT_EQ(detector.Observe(in_flight), StalenessVerdict::kFalsePositive);

  // Late response committed *after* the read started: also a false
  // positive under the paper's staleness semantics.
  ReadObservation committed_later;
  committed_later.returned_version = 7;
  committed_later.read_start_time = 7.5;
  committed_later.late_response_versions = {8};
  EXPECT_EQ(detector.Observe(committed_later),
            StalenessVerdict::kFalsePositive);

  EXPECT_EQ(detector.stale(), 1);
  EXPECT_EQ(detector.false_positives(), 2);
  EXPECT_EQ(detector.reads(), 3);
}

TEST(StalenessDetectorTest, IntermediateCommittedVersionCaughtEvenIfNewestIsNot) {
  // Newest late version (9) is uncommitted, but version 6 (also late,
  // committed before the read) proves staleness.
  auto oracle = [](int64_t version) -> double {
    if (version == 9) return -1.0;
    return static_cast<double>(version);
  };
  StalenessDetector detector(oracle);
  ReadObservation obs;
  obs.returned_version = 5;
  obs.read_start_time = 6.5;
  obs.late_response_versions = {9, 6};
  EXPECT_EQ(detector.Observe(obs), StalenessVerdict::kStale);
}

TEST(StalenessDetectorTest, EmpiricalConsistencyAccounting) {
  auto oracle = [](int64_t version) {
    return static_cast<double>(version);
  };
  StalenessDetector detector(oracle);
  ReadObservation fresh;
  fresh.returned_version = 2;
  fresh.late_response_versions = {1};
  detector.Observe(fresh);
  ReadObservation stale;
  stale.returned_version = 1;
  stale.read_start_time = 10.0;
  stale.late_response_versions = {2};
  detector.Observe(stale);
  EXPECT_DOUBLE_EQ(detector.EmpiricalConsistency(), 0.5);
}

}  // namespace
}  // namespace pbs
