// Golden pins for the Section 6 searches: the exact outputs of
// SlaOptimizer::EnumerateAll over a small box and of the
// AdaptiveConfigController decision history over bench/adaptive_config's
// six-epoch regime schedule, under the Monte Carlo and analytic backends.
// Candidate scoring must not move a single bit: the doubles are hex
// literals compared with ==. They hold for the default build (GCC with the
// native x86-64-v3 kernels, whose FMA contraction the Monte Carlo columns
// depend on); other codegen skips.

#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/sla.h"
#include "dist/production.h"

namespace pbs {
namespace {

#ifdef PBS_GOLDEN_PINS
constexpr bool kPinsApply = true;
#else
constexpr bool kPinsApply = false;
#endif

struct PinnedCandidate {
  QuorumConfig config;
  double t_visibility_ms;
  double read_latency_ms;
  double write_latency_ms;
  double objective;
  bool feasible;
};

// LNKD-DISK, N in [2, 3], 2000 trials per cell at seed 77, SLA 10 ms @
// 99.9%, objective 0.3 * read + 0.7 * write at p99.9; sorted as returned.
const PinnedCandidate kSlaPins[] = {
    {{3, 3, 1}, 0x0p+0, 0x1.046c3059691c2p+2, 0x1.4db3a8850f5ecp+3, 0x1.10a796d0f4202p+3, true},
    {{2, 2, 1}, 0x0p+0, 0x1.0d1d6757c322bp+2, 0x1.fb486e942dd56p+3, 0x1.8b771ce816f42p+3, true},
    {{3, 2, 2}, 0x0p+0, 0x1.97914ec2f73e5p+0, 0x1.328bec2e177d6p+4, 0x1.bc72f0ce3d5b7p+3, true},
    {{3, 3, 2}, 0x0p+0, 0x1.046c3059691c2p+2, 0x1.328bec2e177d6p+4, 0x1.d43a851abd73cp+3, true},
    {{2, 1, 2}, 0x0p+0, 0x1.16f263cc2db99p+0, 0x1.06cffebb6cbc2p+6, 0x1.728d77291bdb8p+5, true},
    {{2, 2, 2}, 0x0p+0, 0x1.0d1d6757c322bp+2, 0x1.06cffebb6cbc2p+6, 0x1.7a077ee67c58bp+5, true},
    {{3, 1, 3}, 0x0p+0, 0x1.53f1ab5799998p-1, 0x1.2f66a7768c3dfp+6, 0x1.aa5ad94060a8ap+5, true},
    {{3, 2, 3}, 0x0p+0, 0x1.97914ec2f73e5p+0, 0x1.2f66a7768c3dfp+6, 0x1.ac9513fc9841bp+5, true},
    {{3, 3, 3}, 0x0p+0, 0x1.046c3059691c2p+2, 0x1.2f66a7768c3dfp+6, 0x1.b286f90fb847cp+5, true},
    {{3, 1, 1}, 0x1.8f08536948e83p+5, 0x1.53f1ab5799998p-1, 0x1.4db3a8850f5ecp+3, 0x1.dfee2f272b473p+2, false},
    {{3, 2, 1}, 0x1.e94e7dfb10368p+3, 0x1.97914ec2f73e5p+0, 0x1.4db3a8850f5ecp+3, 0x1.f1c00508e80fbp+2, false},
    {{2, 1, 1}, 0x1.dd463fdcecdecp+4, 0x1.16f263cc2db99p+0, 0x1.fb486e942dd56p+3, 0x1.6d8efdf294ff8p+3, false},
    {{3, 1, 2}, 0x1.8ce90087dd1f2p+5, 0x1.53f1ab5799998p-1, 0x1.328bec2e177d6p+4, 0x1.b38a05dd5ef73p+3, false},
};

TEST(GoldenPinsTest, SlaOptimizerEnumerateAll) {
  if (!kPinsApply) GTEST_SKIP() << "pins hold for the default GCC build";
  SlaOptimizer optimizer([](int n) { return MakeIidModel(LnkdDisk(), n); },
                         /*trials_per_config=*/2000, /*seed=*/77);
  SlaConstraints constraints;
  constraints.min_n = 2;
  constraints.max_n = 3;
  constraints.sla.fresh_probability = 0.999;
  constraints.sla.staleness_bound_ms = 10.0;
  SlaObjective objective;
  objective.read_weight = 0.3;
  objective.write_weight = 0.7;
  const auto candidates = optimizer.EnumerateAll(constraints, objective);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates.value().size(), std::size(kSlaPins));
  for (size_t i = 0; i < std::size(kSlaPins); ++i) {
    const SlaCandidate& got = candidates.value()[i];
    const PinnedCandidate& want = kSlaPins[i];
    EXPECT_EQ(got.config, want.config) << i;
    EXPECT_EQ(got.t_visibility_ms, want.t_visibility_ms) << i;
    EXPECT_EQ(got.read_latency_ms, want.read_latency_ms) << i;
    EXPECT_EQ(got.write_latency_ms, want.write_latency_ms) << i;
    EXPECT_EQ(got.objective, want.objective) << i;
    EXPECT_EQ(got.feasible, want.feasible) << i;
  }
}

struct PinnedDecision {
  QuorumConfig chosen;
  double t_visibility_ms;
  double objective_ms;
  bool feasible;
  bool switched;
};

// bench/adaptive_config's schedule (SSD, SSD, disk, disk, YMMR, SSD) from
// {3, 1, 1}: SLA 10 ms @ 99.9%, 3000 trials per candidate, seed 7007.
const PinnedDecision kMonteCarloPins[] = {
    {{3, 1, 1}, 0x1.d84cd8474006cp+0, 0x1.72f9696784316p-1, true, false},
    {{3, 1, 1}, 0x1.bfdc2f154a424p+0, 0x1.4dadd6e04fa42p-1, true, false},
    {{3, 3, 1}, 0x0p+0, 0x1.d81307917a266p+2, true, true},
    {{3, 3, 1}, 0x0p+0, 0x1.d903a64033ec4p+2, true, false},
    {{3, 3, 1}, 0x0p+0, 0x1.c534ce27a1692p+6, true, false},
    {{3, 1, 1}, 0x1.c61475dd959ap+0, 0x1.6270a1a068d8p-1, true, true},
};
const PinnedDecision kAnalyticPins[] = {
    {{3, 1, 1}, 0x1.eeea49ad1f517p+0, 0x1.4f519ca1139bap-1, true, false},
    {{3, 1, 1}, 0x1.eeea49ad1f517p+0, 0x1.4f519ca1139bap-1, true, false},
    {{3, 3, 1}, 0x0p+0, 0x1.e174d68ecb73p+2, true, true},
    {{3, 3, 1}, 0x0p+0, 0x1.e174d68ecb73p+2, true, false},
    {{3, 3, 1}, 0x0p+0, 0x1.ccbfc2a62bd79p+6, true, false},
    {{3, 1, 1}, 0x1.eeea49ad1f517p+0, 0x1.4f519ca1139bap-1, true, true},
};

void ExpectDecisions(PredictorBackend backend,
                     const std::vector<PinnedDecision>& pins) {
  AdaptiveControllerOptions options;
  options.sla.fresh_probability = 0.999;
  options.sla.staleness_bound_ms = 10.0;
  options.trials_per_eval = 3000;
  options.seed = 7007;
  options.backend = backend;
  AdaptiveConfigController controller({3, 1, 1}, options);
  const std::vector<ReplicaLatencyModelPtr> epochs = {
      MakeIidModel(LnkdSsd(), 3),  MakeIidModel(LnkdSsd(), 3),
      MakeIidModel(LnkdDisk(), 3), MakeIidModel(LnkdDisk(), 3),
      MakeIidModel(Ymmr(), 3),     MakeIidModel(LnkdSsd(), 3)};
  ASSERT_EQ(epochs.size(), pins.size());
  for (const auto& model : epochs) controller.Update(model);
  ASSERT_EQ(controller.history().size(), pins.size());
  for (size_t i = 0; i < pins.size(); ++i) {
    const auto& got = controller.history()[i];
    EXPECT_EQ(got.chosen, pins[i].chosen) << "epoch " << i + 1;
    EXPECT_EQ(got.t_visibility_ms, pins[i].t_visibility_ms)
        << "epoch " << i + 1;
    EXPECT_EQ(got.objective_ms, pins[i].objective_ms) << "epoch " << i + 1;
    EXPECT_EQ(got.feasible, pins[i].feasible) << "epoch " << i + 1;
    EXPECT_EQ(got.switched, pins[i].switched) << "epoch " << i + 1;
  }
  EXPECT_EQ(controller.last_backend(), backend);
}

TEST(GoldenPinsTest, AdaptiveControllerMonteCarloHistory) {
  if (!kPinsApply) GTEST_SKIP() << "pins hold for the default GCC build";
  ExpectDecisions(PredictorBackend::kMonteCarlo,
                  {std::begin(kMonteCarloPins), std::end(kMonteCarloPins)});
}

TEST(GoldenPinsTest, AdaptiveControllerAnalyticHistory) {
  if (!kPinsApply) GTEST_SKIP() << "pins hold for the default GCC build";
  ExpectDecisions(PredictorBackend::kAnalytic,
                  {std::begin(kAnalyticPins), std::end(kAnalyticPins)});
}

}  // namespace
}  // namespace pbs
