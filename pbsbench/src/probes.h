// The predictor's what-if query set, and the layer probes every attribution
// run takes on its own workload's legs: direct, timed calls into the public
// core / dist / util entry points (RunWarsTrials, LatencyProfile +
// TVisibilityCurve, MakeAnalyticScenario, PbsPredictor::Create and its
// queries, EvaluateMixedQuorum, Distribution::SampleBatch) at the sizes the
// workload uses them.

#ifndef PBSBENCH_SRC_PROBES_H_
#define PBSBENCH_SRC_PROBES_H_

#include <cstdint>

#include "bench.h"
#include "core/adaptive.h"
#include "core/predictor.h"
#include "dist/production.h"

namespace pbsbench {

/// One what-if query set: the questions `pbs predict` asks of the predictor
/// it builds — ProbConsistent at t = 0 and 10 ms, TimeForConsistency at
/// p = 0.999, KFreshness(2), and read and write latency p99.9. Folds every
/// answer into `digest`; returns false when any answer is non-finite.
bool AnswerQuerySet(const pbs::PbsPredictor& predictor, Fnv* digest);
inline constexpr int kQueriesPerSet = 6;
inline constexpr int kProbeSets = 512;

struct ProbeInputs {
  pbs::WarsDistributions legs;
  pbs::QuorumConfig config;
  pbs::ReadFanout fanout = pbs::ReadFanout::kAllN;
  uint64_t seed = 1;
  /// False when the workload measures the query-set latency distributions
  /// (core.*_query_p50/p99_us, *_query_samples) in situ itself.
  bool query_distribution = true;
};

/// Emits the dist.batch_sample_ns, core.* and util.mc_parallel_speedup
/// per-layer metrics into ctx. Query-set latencies come from kProbeSets
/// sets per predictor and rep, the first one cold.
void RunLayerProbes(const ProbeInputs& inputs, RunContext* ctx);

}  // namespace pbsbench

#endif  // PBSBENCH_SRC_PROBES_H_
