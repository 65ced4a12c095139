// The staleness harness of kvs::RunStalenessExperiment, replayed from the
// benchmark through the same public Cluster / ClientSession / Simulator
// calls, so the attribution run can put spans where the library offers no
// seam: around the whole experiment ("kvs.experiment"), each
// ClientSession::Write / Read issue ("kvs.issue", the synchronous part of
// an op) and Simulator::RunUntil ("sim.run_until"). Allocations are
// counted across RunUntil only — the
// steady-state event loop, after the write stream is pre-scheduled.
//
// The replay must reproduce the library call bit for bit; the benchmark
// checks ExperimentDigest() of both on every traced cell and trial.

#ifndef PBSBENCH_SRC_HARNESS_H_
#define PBSBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <string>

#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "bench.h"

namespace pbsbench {

struct HarnessStats {
  int64_t events = 0;            // Simulator::events_processed
  int64_t ops = 0;               // simulated client ops started
  int64_t run_until_allocs = 0;  // allocations inside RunUntil
  int64_t run_until_alloc_bytes = 0;
};

pbs::kvs::StalenessExperimentResult ReplayStalenessExperiment(
    const pbs::kvs::StalenessExperimentOptions& options,
    const pbs::kvs::FaultSchedule* faults, HarnessStats* stats);

/// Digest of one experiment's simulated outcomes: probe counts per offset,
/// op counts and latencies, event and message counts, controller decision
/// digest and the telemetry JSONL bytes.
uint64_t ExperimentDigest(const pbs::kvs::StalenessExperimentResult& run);

/// Simulated client ops started in a run (writes + reads, retries not
/// double-counted).
int64_t SimulatedOps(const pbs::kvs::StalenessExperimentResult& run);

/// Named counter of the run's registry (0 when absent).
int64_t RegistryCounter(const pbs::kvs::StalenessExperimentResult& run,
                        const std::string& name);

/// What an attribution run measured on the per-message cluster, summed
/// over the traced experiments. A workload that runs no cluster passes the
/// zero value: its sim / kvs / obs layer metrics then read 0 ("not
/// exercised"), never a made-up figure.
struct ClusterAttribution {
  HarnessStats harness;        // events, ops, RunUntil allocations
  int64_t messages = 0;        // net/messages_sent
  int64_t max_queue_depth = 0; // max of sim/max_queue_depth
  int64_t reads = 0;
  int64_t hedged_reads = 0;
  int64_t read_retries = 0;
  int64_t reads_failed = 0;
  int64_t controller_epochs = 0;
  int64_t windows = 0;         // telemetry windows cut
  int64_t jsonl_bytes = 0;     // composed telemetry JSONL
  double traced_s = 0.0;       // host time of the traced experiments
  // Ablation attributions (0 where the workload has no such feature).
  double controller_ms_per_epoch = 0.0;
  double telemetry_ms_per_window = 0.0;
  double campaign_parallel_speedup = 0.0;

  /// Adds one traced experiment's counters.
  void Add(const pbs::kvs::StalenessExperimentResult& run);
};

/// Emits the sim.*, dist.samples_per_op / sample_ns / share_pct, kvs.*,
/// obs.* and util.campaign_parallel_speedup metrics from `attribution` and
/// the active SpanLog's "sim.run_until", "kvs.issue" and "dist.sample"
/// aggregates.
void EmitClusterMetrics(const ClusterAttribution& attribution,
                        RunContext* ctx);

}  // namespace pbsbench

#endif  // PBSBENCH_SRC_HARNESS_H_
