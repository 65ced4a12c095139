#include "kvs/experiment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "core/staleness_detector.h"
#include "kvs/client.h"
#include "kvs/failure.h"
#include "kvs/profiler.h"
#include "obs/exporters.h"
#include "obs/monitor.h"
#include "obs/timeseries.h"
#include "util/radix_sort.h"

namespace pbs {
namespace kvs {

double StalenessExperimentResult::ProbConsistentAt(double t) const {
  for (const auto& point : t_visibility) {
    if (point.t == t) return point.ProbConsistent();
  }
  assert(false && "offset was not probed");
  return 0.0;
}

namespace {

StalenessExperimentResult RunStalenessExperimentImpl(
    const StalenessExperimentOptions& options,
    const FailureSchedule* failures, const FaultSchedule* faults = nullptr) {
  assert(options.writes >= 1);
  assert(!options.read_offsets_ms.empty());

  KvsConfig config = options.cluster;
  config.num_coordinators = 2;  // [0]: writer proxy, [1]: reader proxy
  config.seed = options.seed;
  Cluster cluster(config);
  LegProfiler leg_profiler;
  if (options.profile_legs) cluster.set_leg_profiler(&leg_profiler);
  std::unique_ptr<ConsistencyController> controller;
  if (config.controller.enabled) {
    controller = std::make_unique<ConsistencyController>(&cluster);
    controller->Start();
  }
  // Telemetry tick is read-only (registry deltas off the timer wheel), so
  // starting it cannot change the run's operation outcomes; off, it is a
  // strict no-op and the event stream is bitwise identical to pre-telemetry
  // builds.
  cluster.StartTelemetry();
  cluster.StartAntiEntropy();
  if (config.sloppy_quorums) cluster.StartFailureDetector();
  if (failures != nullptr) failures->InstallOn(&cluster);
  if (faults != nullptr) faults->InstallOn(&cluster);

  const Key key = 0;
  ClientSession writer(&cluster, cluster.coordinator(0).id(), /*client_id=*/1);
  ClientSession reader(&cluster, cluster.coordinator(1).id(), /*client_id=*/2);

  StalenessExperimentResult result;
  ConsistencyByOffset by_offset;

  // Commit-time oracle for the Section 4.3 detector: commit_times[seq-1] is
  // the absolute commit time of version seq, or a negative sentinel while
  // uncommitted.
  std::vector<double> commit_times(options.writes + 1, -1.0);
  StalenessDetector detector([&commit_times](int64_t version) {
    if (version <= 0 ||
        version > static_cast<int64_t>(commit_times.size())) {
      return -1.0;
    }
    return commit_times[version - 1];
  });
  cluster.set_late_read_hook([&detector](const LateReadInfo& info) {
    ReadObservation observation;
    observation.returned_version = info.returned_sequence;
    observation.read_start_time = info.read_start_time;
    observation.late_response_versions = info.late_response_sequences;
    detector.Observe(observation);
  });

  // Schedule the write stream. Each commit launches the probe reads.
  for (int i = 1; i <= options.writes; ++i) {
    const double start = static_cast<double>(i) * options.write_spacing_ms;
    cluster.sim().At(start, [&, i]() {
      writer.Write(key, "v" + std::to_string(i),
                   [&, i](const WriteResult& write_result) {
        if (!write_result.ok) return;  // timed out; no probes for it
        commit_times[i - 1] = write_result.commit_time;
        result.write_latencies.push_back(write_result.latency_ms);
        for (double offset : options.read_offsets_ms) {
          cluster.sim().Schedule(offset, [&, i, offset]() {
            // Newest version committed by now; scan down from the newest
            // issued (normally terminates in one or two steps because only
            // the most recent write can still be in flight).
            const int64_t latest_committed = [&]() {
              for (int64_t v = cluster.LatestSequenceFor(key); v >= 1; --v) {
                if (commit_times[v - 1] >= 0.0 &&
                    commit_times[v - 1] <= cluster.sim().now()) {
                  return v;
                }
              }
              return static_cast<int64_t>(0);
            }();
            reader.Read(key, [&, i, offset, latest_committed](
                                 const ReadResult& read_result) {
              if (!read_result.ok) return;
              result.read_latencies.push_back(read_result.latency_ms);
              const int64_t sequence = read_result.value.has_value()
                                           ? read_result.value->sequence
                                           : 0;
              // Consistent for offset t of write i if the read saw version
              // i or anything newer.
              by_offset.Record(offset, sequence >= i);
              result.version_staleness.Record(
                  std::max<int64_t>(0, latest_committed - sequence));
            });
          });
        }
      });
    });
  }

  // Drain. Anti-entropy reschedules forever, so always bound the run: the
  // last write starts at writes * spacing; probes finish within the largest
  // offset + timeout.
  const double max_offset = *std::max_element(options.read_offsets_ms.begin(),
                                              options.read_offsets_ms.end());
  const double horizon = static_cast<double>(options.writes + 1) *
                             options.write_spacing_ms +
                         max_offset + 3.0 * config.request_timeout_ms;
  cluster.sim().RunUntil(horizon);

  result.t_visibility = by_offset.Points();
  result.detector_stale = detector.stale();
  result.detector_false_positives = detector.false_positives();
  result.detector_consistent = detector.consistent();
  result.final_metrics = cluster.metrics();
  result.network_messages = cluster.network().messages_sent();
  result.network_messages_dropped = cluster.network().messages_dropped();
  result.network_messages_duplicated = cluster.network().messages_duplicated();
  cluster.ExportMetrics(&result.registry);
  result.metrics_header = cluster.MetricsHeader();
  if (cluster.tracer().enabled()) result.trace = cluster.tracer().Snapshot();
  if (controller != nullptr) {
    result.controller_decisions = controller->decisions();
    result.controller_history = controller->config_history();
    result.controller_digest = controller->DecisionDigest();
  }
  if (cluster.timeseries() != nullptr) {
    // Move, not copy: the cluster is torn down right after this block, and
    // a full-capacity series of dense-histogram windows is tens of MB.
    result.timeseries = std::move(*cluster.mutable_timeseries());
    std::string telemetry = obs::TimeSeriesJsonl(
        result.timeseries, config.obs.telemetry_window_ms);
    if (cluster.monitor() != nullptr) {
      result.monitor_samples = cluster.monitor()->samples();
      result.monitor_alerts = cluster.monitor()->alerts();
      telemetry += obs::MonitorJsonl(*cluster.monitor());
    }
    if (controller != nullptr) {
      telemetry += DecisionsJsonl(result.controller_decisions);
    }
    result.telemetry_jsonl = std::move(telemetry);
  }
  return result;
}

}  // namespace

StalenessExperimentResult RunStalenessExperiment(
    const StalenessExperimentOptions& options) {
  return RunStalenessExperimentImpl(options, nullptr);
}

StalenessExperimentResult RunStalenessExperimentWithFailures(
    const StalenessExperimentOptions& options,
    const FailureSchedule& failures) {
  return RunStalenessExperimentImpl(options, &failures);
}

StalenessExperimentResult RunStalenessExperimentWithFaults(
    const StalenessExperimentOptions& options, const FaultSchedule& faults,
    const FailureSchedule* failures) {
  return RunStalenessExperimentImpl(options, failures, &faults);
}

namespace {

/// Digest of one experiment run; latency pools ride along (outside the
/// summary) so campaign-level quantiles can be recomputed exactly.
ChaosSummary Summarize(const StalenessExperimentOptions& options,
                       const StalenessExperimentResult& run,
                       std::vector<double>* read_pool,
                       std::vector<double>* write_pool) {
  ChaosSummary s;
  const ClusterMetrics& m = run.final_metrics;
  s.reads_started = m.reads_started;
  s.reads_failed = m.reads_failed;
  s.writes_started = m.writes_started;
  s.writes_failed = m.writes_failed;
  s.hedged_reads_sent = m.hedged_reads_sent;
  s.hedged_reads_won = m.hedged_reads_won;
  s.duplicate_responses_suppressed = m.duplicate_responses_suppressed;
  s.duplicate_acks_suppressed = m.duplicate_acks_suppressed;
  s.client_read_retries = m.client_read_retries;
  s.client_write_retries = m.client_write_retries;
  s.client_deadline_misses = m.client_deadline_misses;
  s.consistency_downgrades = m.consistency_downgrades;
  s.monotonic_read_violations = m.monotonic_read_violations;
  s.messages_dropped = run.network_messages_dropped;
  s.messages_duplicated = run.network_messages_duplicated;
  s.fault_activations =
      m.fault_slow_node_activations + m.fault_lossy_link_activations +
      m.fault_flapping_activations + m.fault_asymmetric_partition_activations;

  std::vector<double> reads = run.read_latencies;
  SortSamples(&reads);
  std::vector<double> writes = run.write_latencies;
  SortSamples(&writes);
  if (!reads.empty()) {
    s.read_p50 = QuantileSorted(reads, 0.50);
    s.read_p99 = QuantileSorted(reads, 0.99);
    s.read_p999 = QuantileSorted(reads, 0.999);
    s.read_max = reads.back();
  }
  if (!writes.empty()) {
    s.write_p50 = QuantileSorted(writes, 0.50);
    s.write_p99 = QuantileSorted(writes, 0.99);
    s.write_p999 = QuantileSorted(writes, 0.999);
  }

  s.probe_offsets_ms = options.read_offsets_ms;
  s.probe_trials.assign(s.probe_offsets_ms.size(), 0);
  s.probe_consistent.assign(s.probe_offsets_ms.size(), 0);
  for (const auto& point : run.t_visibility) {
    for (size_t i = 0; i < s.probe_offsets_ms.size(); ++i) {
      if (point.t == s.probe_offsets_ms[i]) {
        s.probe_trials[i] = point.trials;
        s.probe_consistent[i] = point.consistent;
        break;
      }
    }
  }

  if (read_pool != nullptr) {
    read_pool->insert(read_pool->end(), run.read_latencies.begin(),
                      run.read_latencies.end());
  }
  if (write_pool != nullptr) {
    write_pool->insert(write_pool->end(), run.write_latencies.begin(),
                       run.write_latencies.end());
  }
  return s;
}

}  // namespace

ChaosCampaignResult RunChaosTrials(const ChaosTrialOptions& options,
                                   const PbsExecutionOptions& exec) {
  assert(options.trials >= 1);
  const int64_t trials = options.trials;
  const int64_t num_chunks = NumChunks(trials, exec);
  std::vector<Rng> streams = MakeJumpStreams(Rng(options.seed), num_chunks);

  const double max_offset =
      *std::max_element(options.experiment.read_offsets_ms.begin(),
                        options.experiment.read_offsets_ms.end());
  const double horizon =
      static_cast<double>(options.experiment.writes + 1) *
          options.experiment.write_spacing_ms +
      max_offset + 3.0 * options.experiment.cluster.request_timeout_ms;

  struct TrialOutput {
    ChaosSummary summary;
    std::vector<double> read_latencies;
    std::vector<double> write_latencies;
    obs::Registry registry;
  };
  std::vector<TrialOutput> outputs(trials);

  ParallelFor(trials, exec,
              [&](int64_t chunk_index, int64_t begin, int64_t end) {
                Rng& stream = streams[chunk_index];
                for (int64_t t = begin; t < end; ++t) {
                  // Two sequential draws per trial from the chunk's
                  // sub-stream: the workload seed and the fault seed.
                  const uint64_t workload_seed = stream.Next();
                  const uint64_t fault_seed = stream.Next();
                  StalenessExperimentOptions experiment = options.experiment;
                  experiment.seed = workload_seed;
                  StalenessExperimentResult run;
                  if (options.inject_faults) {
                    const FaultSchedule faults =
                        FaultSchedule::RandomGrayFailures(
                            experiment.cluster.quorum.n, horizon,
                            options.fault_mean_interarrival_ms,
                            options.fault_mean_duration_ms, fault_seed);
                    run = RunStalenessExperimentWithFaults(experiment, faults);
                  } else {
                    run = RunStalenessExperiment(experiment);
                  }
                  TrialOutput& out = outputs[t];
                  out.summary = Summarize(experiment, run,
                                          &out.read_latencies,
                                          &out.write_latencies);
                  out.registry = std::move(run.registry);
                }
              });

  ChaosCampaignResult result;
  result.trials.reserve(trials);
  std::vector<double> read_pool;
  std::vector<double> write_pool;
  obs::Registry campaign_registry;
  ChaosSummary& pooled = result.pooled;
  pooled.probe_offsets_ms = options.experiment.read_offsets_ms;
  pooled.probe_trials.assign(pooled.probe_offsets_ms.size(), 0);
  pooled.probe_consistent.assign(pooled.probe_offsets_ms.size(), 0);
  for (TrialOutput& out : outputs) {  // trial order: deterministic merge
    const ChaosSummary& s = out.summary;
    pooled.reads_started += s.reads_started;
    pooled.reads_failed += s.reads_failed;
    pooled.writes_started += s.writes_started;
    pooled.writes_failed += s.writes_failed;
    pooled.hedged_reads_sent += s.hedged_reads_sent;
    pooled.hedged_reads_won += s.hedged_reads_won;
    pooled.duplicate_responses_suppressed += s.duplicate_responses_suppressed;
    pooled.duplicate_acks_suppressed += s.duplicate_acks_suppressed;
    pooled.client_read_retries += s.client_read_retries;
    pooled.client_write_retries += s.client_write_retries;
    pooled.client_deadline_misses += s.client_deadline_misses;
    pooled.consistency_downgrades += s.consistency_downgrades;
    pooled.monotonic_read_violations += s.monotonic_read_violations;
    pooled.messages_dropped += s.messages_dropped;
    pooled.messages_duplicated += s.messages_duplicated;
    pooled.fault_activations += s.fault_activations;
    for (size_t i = 0; i < pooled.probe_offsets_ms.size(); ++i) {
      pooled.probe_trials[i] += s.probe_trials[i];
      pooled.probe_consistent[i] += s.probe_consistent[i];
    }
    read_pool.insert(read_pool.end(), out.read_latencies.begin(),
                     out.read_latencies.end());
    write_pool.insert(write_pool.end(), out.write_latencies.begin(),
                      out.write_latencies.end());
    campaign_registry.Merge(out.registry);
    result.trials.push_back(std::move(out.summary));
  }
  result.metrics_jsonl = obs::MetricsJsonl(campaign_registry);
  SortSamples(&read_pool);
  SortSamples(&write_pool);
  if (!read_pool.empty()) {
    pooled.read_p50 = QuantileSorted(read_pool, 0.50);
    pooled.read_p99 = QuantileSorted(read_pool, 0.99);
    pooled.read_p999 = QuantileSorted(read_pool, 0.999);
    pooled.read_max = read_pool.back();
  }
  if (!write_pool.empty()) {
    pooled.write_p50 = QuantileSorted(write_pool, 0.50);
    pooled.write_p99 = QuantileSorted(write_pool, 0.99);
    pooled.write_p999 = QuantileSorted(write_pool, 0.999);
  }
  return result;
}

ControllerCampaignResult RunControllerTrials(
    const ControllerTrialOptions& options, const PbsExecutionOptions& exec) {
  assert(options.trials >= 1);
  const int64_t trials = options.trials;
  const int64_t num_chunks = NumChunks(trials, exec);
  std::vector<Rng> streams = MakeJumpStreams(Rng(options.seed), num_chunks);

  const double max_offset =
      *std::max_element(options.experiment.read_offsets_ms.begin(),
                        options.experiment.read_offsets_ms.end());
  const double horizon =
      static_cast<double>(options.experiment.writes + 1) *
          options.experiment.write_spacing_ms +
      max_offset + 3.0 * options.experiment.cluster.request_timeout_ms;

  struct TrialOutput {
    ControllerCampaignSummary summary;
    std::vector<double> read_latencies;
    std::vector<double> write_latencies;
  };
  std::vector<TrialOutput> outputs(trials);

  ParallelFor(trials, exec,
              [&](int64_t chunk_index, int64_t begin, int64_t end) {
                Rng& stream = streams[chunk_index];
                for (int64_t t = begin; t < end; ++t) {
                  // Same two sequential draws per trial as RunChaosTrials
                  // (workload then fault seed), whether or not a fault
                  // factory is installed — the draw count per trial is
                  // fixed.
                  const uint64_t workload_seed = stream.Next();
                  const uint64_t fault_seed = stream.Next();
                  StalenessExperimentOptions experiment = options.experiment;
                  experiment.seed = workload_seed;
                  StalenessExperimentResult run;
                  if (options.faults) {
                    const FaultSchedule faults =
                        options.faults(horizon, fault_seed);
                    run = RunStalenessExperimentWithFaults(experiment, faults);
                  } else {
                    run = RunStalenessExperiment(experiment);
                  }
                  TrialOutput& out = outputs[t];
                  out.summary.chaos = Summarize(experiment, run,
                                                &out.read_latencies,
                                                &out.write_latencies);
                  out.summary.decision_digest = run.controller_digest;
                  out.summary.decisions =
                      static_cast<int64_t>(run.controller_decisions.size());
                  out.summary.steps = run.final_metrics.controller_steps;
                  out.summary.rollbacks =
                      run.final_metrics.controller_rollbacks;
                  out.summary.reads_fresh_measured =
                      run.final_metrics.reads_fresh_measured;
                  out.summary.reads_stale_measured =
                      run.final_metrics.reads_stale_measured;
                  out.summary.monitor_windows =
                      static_cast<int64_t>(run.monitor_samples.size());
                  out.summary.monitor_alerts =
                      static_cast<int64_t>(run.monitor_alerts.size());
                  if (!run.telemetry_jsonl.empty()) {
                    uint64_t hash = 14695981039346656037ULL;
                    for (const char ch : run.telemetry_jsonl) {
                      hash ^= static_cast<unsigned char>(ch);
                      hash *= 1099511628211ULL;
                    }
                    out.summary.telemetry_digest = hash;
                  }
                  if (!run.controller_history.empty()) {
                    const obs::AdaptationRecord& last =
                        run.controller_history.back();
                    out.summary.final_r_lo = last.r_lo;
                    out.summary.final_r_hi = last.r_hi;
                    out.summary.final_w = last.w;
                    out.summary.final_mix = last.mix;
                    out.summary.final_hedge = last.hedge_enabled;
                    out.summary.final_hedge_quantile = last.hedge_quantile;
                    out.summary.final_retry_attempts =
                        last.retry_max_attempts;
                  }
                }
              });

  ControllerCampaignResult result;
  result.trials.reserve(trials);
  std::vector<double> read_pool;
  std::vector<double> write_pool;
  ChaosSummary& pooled = result.pooled;
  pooled.probe_offsets_ms = options.experiment.read_offsets_ms;
  pooled.probe_trials.assign(pooled.probe_offsets_ms.size(), 0);
  pooled.probe_consistent.assign(pooled.probe_offsets_ms.size(), 0);
  uint64_t digest = 14695981039346656037ULL;
  uint64_t telemetry_digest = 14695981039346656037ULL;
  for (TrialOutput& out : outputs) {  // trial order: deterministic merge
    const ChaosSummary& s = out.summary.chaos;
    pooled.reads_started += s.reads_started;
    pooled.reads_failed += s.reads_failed;
    pooled.writes_started += s.writes_started;
    pooled.writes_failed += s.writes_failed;
    pooled.hedged_reads_sent += s.hedged_reads_sent;
    pooled.hedged_reads_won += s.hedged_reads_won;
    pooled.duplicate_responses_suppressed += s.duplicate_responses_suppressed;
    pooled.duplicate_acks_suppressed += s.duplicate_acks_suppressed;
    pooled.client_read_retries += s.client_read_retries;
    pooled.client_write_retries += s.client_write_retries;
    pooled.client_deadline_misses += s.client_deadline_misses;
    pooled.consistency_downgrades += s.consistency_downgrades;
    pooled.monotonic_read_violations += s.monotonic_read_violations;
    pooled.messages_dropped += s.messages_dropped;
    pooled.messages_duplicated += s.messages_duplicated;
    pooled.fault_activations += s.fault_activations;
    for (size_t i = 0; i < pooled.probe_offsets_ms.size(); ++i) {
      pooled.probe_trials[i] += s.probe_trials[i];
      pooled.probe_consistent[i] += s.probe_consistent[i];
    }
    read_pool.insert(read_pool.end(), out.read_latencies.begin(),
                     out.read_latencies.end());
    write_pool.insert(write_pool.end(), out.write_latencies.begin(),
                      out.write_latencies.end());
    for (int bit = 0; bit < 64; bit += 8) {
      digest ^= (out.summary.decision_digest >> bit) & 0xFF;
      digest *= 1099511628211ULL;
    }
    for (int bit = 0; bit < 64; bit += 8) {
      telemetry_digest ^= (out.summary.telemetry_digest >> bit) & 0xFF;
      telemetry_digest *= 1099511628211ULL;
    }
    result.trials.push_back(std::move(out.summary));
  }
  result.pooled_digest = digest;
  result.pooled_telemetry_digest = telemetry_digest;
  SortSamples(&read_pool);
  SortSamples(&write_pool);
  if (!read_pool.empty()) {
    pooled.read_p50 = QuantileSorted(read_pool, 0.50);
    pooled.read_p99 = QuantileSorted(read_pool, 0.99);
    pooled.read_p999 = QuantileSorted(read_pool, 0.999);
    pooled.read_max = read_pool.back();
  }
  if (!write_pool.empty()) {
    pooled.write_p50 = QuantileSorted(write_pool, 0.50);
    pooled.write_p99 = QuantileSorted(write_pool, 0.99);
    pooled.write_p999 = QuantileSorted(write_pool, 0.999);
  }
  return result;
}

}  // namespace kvs
}  // namespace pbs
