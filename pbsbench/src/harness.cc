#include "harness.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

#include "core/staleness_detector.h"
#include "kvs/client.h"
#include "kvs/cluster.h"
#include "kvs/controller.h"
#include "kvs/profiler.h"
#include "obs/monitor.h"
#include "obs/timeseries.h"
#include "bench.h"
#include "trace.h"

namespace pbsbench {

using namespace pbs;
using namespace pbs::kvs;

// Mirrors RunStalenessExperimentImpl (src/kvs/experiment.cc) statement for
// statement; the only additions are the spans and allocation reads.
StalenessExperimentResult ReplayStalenessExperiment(
    const StalenessExperimentOptions& options, const FaultSchedule* faults,
    HarnessStats* stats) {
  assert(options.writes >= 1);
  assert(!options.read_offsets_ms.empty());
  ScopedSpan experiment("kvs.experiment");

  KvsConfig config = options.cluster;
  config.num_coordinators = 2;
  config.seed = options.seed;
  Cluster cluster(config);
  LegProfiler leg_profiler;
  if (options.profile_legs) cluster.set_leg_profiler(&leg_profiler);
  std::unique_ptr<ConsistencyController> controller;
  if (config.controller.enabled) {
    controller = std::make_unique<ConsistencyController>(&cluster);
    controller->Start();
  }
  cluster.StartTelemetry();
  cluster.StartAntiEntropy();
  if (config.sloppy_quorums) cluster.StartFailureDetector();
  if (faults != nullptr) faults->InstallOn(&cluster);

  const Key key = 0;
  ClientSession writer(&cluster, cluster.coordinator(0).id(), 1);
  ClientSession reader(&cluster, cluster.coordinator(1).id(), 2);

  StalenessExperimentResult result;
  ConsistencyByOffset by_offset;

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

  for (int i = 1; i <= options.writes; ++i) {
    const double start = static_cast<double>(i) * options.write_spacing_ms;
    cluster.sim().At(start, [&, i]() {
      ScopedSpan issue("kvs.issue", /*keep=*/false);
      writer.Write(key, "v" + std::to_string(i),
                   [&, i](const WriteResult& write_result) {
        if (!write_result.ok) return;
        commit_times[i - 1] = write_result.commit_time;
        result.write_latencies.push_back(write_result.latency_ms);
        for (double offset : options.read_offsets_ms) {
          cluster.sim().Schedule(offset, [&, i, offset]() {
            const int64_t latest_committed = [&]() {
              for (int64_t v = cluster.LatestSequenceFor(key); v >= 1; --v) {
                if (commit_times[v - 1] >= 0.0 &&
                    commit_times[v - 1] <= cluster.sim().now()) {
                  return v;
                }
              }
              return static_cast<int64_t>(0);
            }();
            ScopedSpan read_issue("kvs.issue", /*keep=*/false);
            reader.Read(key, [&, i, offset, latest_committed](
                                 const ReadResult& read_result) {
              if (!read_result.ok) return;
              result.read_latencies.push_back(read_result.latency_ms);
              const int64_t sequence = read_result.value.has_value()
                                           ? read_result.value->sequence
                                           : 0;
              by_offset.Record(offset, sequence >= i);
              result.version_staleness.Record(
                  std::max<int64_t>(0, latest_committed - sequence));
            });
          });
        }
      });
    });
  }

  const double max_offset = *std::max_element(options.read_offsets_ms.begin(),
                                              options.read_offsets_ms.end());
  const double horizon = static_cast<double>(options.writes + 1) *
                             options.write_spacing_ms +
                         max_offset + 3.0 * config.request_timeout_ms;
  const int64_t allocs_before = AllocCount();
  const int64_t bytes_before = AllocBytes();
  {
    ScopedSpan run("sim.run_until");
    cluster.sim().RunUntil(horizon);
  }
  if (stats != nullptr) {
    stats->run_until_allocs += AllocCount() - allocs_before;
    stats->run_until_alloc_bytes += AllocBytes() - bytes_before;
    stats->events += static_cast<int64_t>(cluster.sim().events_processed());
  }

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
  if (controller != nullptr) {
    result.controller_decisions = controller->decisions();
    result.controller_history = controller->config_history();
    result.controller_digest = controller->DecisionDigest();
  }
  if (cluster.timeseries() != nullptr) {
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
  if (stats != nullptr) stats->ops += SimulatedOps(result);
  return result;
}

int64_t SimulatedOps(const StalenessExperimentResult& run) {
  return run.final_metrics.writes_started + run.final_metrics.reads_started;
}

int64_t RegistryCounter(const StalenessExperimentResult& run,
                        const std::string& name) {
  const obs::Counter* counter = run.registry.FindCounter(name);
  return counter == nullptr ? 0 : counter->value;
}

uint64_t ExperimentDigest(const StalenessExperimentResult& run) {
  Fnv fnv;
  for (const ConsistencyByOffset::Point& point : run.t_visibility) {
    fnv.AddDouble(point.t);
    fnv.Add(static_cast<uint64_t>(point.trials));
    fnv.Add(static_cast<uint64_t>(point.consistent));
  }
  for (double latency : run.write_latencies) fnv.AddDouble(latency);
  for (double latency : run.read_latencies) fnv.AddDouble(latency);
  fnv.Add(static_cast<uint64_t>(run.final_metrics.reads_failed));
  fnv.Add(static_cast<uint64_t>(run.final_metrics.writes_failed));
  fnv.Add(static_cast<uint64_t>(RegistryCounter(run, "sim/events_processed")));
  fnv.Add(static_cast<uint64_t>(run.network_messages));
  fnv.Add(run.controller_digest);
  fnv.Add(FnvBytes(run.telemetry_jsonl));
  return fnv.value();
}

void ClusterAttribution::Add(const StalenessExperimentResult& run) {
  messages += run.network_messages;
  max_queue_depth = std::max(max_queue_depth,
                             RegistryCounter(run, "sim/max_queue_depth"));
  const ClusterMetrics& m = run.final_metrics;
  reads += m.reads_started;
  hedged_reads += m.hedged_reads_sent;
  read_retries += m.client_read_retries;
  reads_failed += m.reads_failed;
  controller_epochs += m.controller_epochs;
  windows += run.timeseries.windows_cut();
  jsonl_bytes += static_cast<int64_t>(run.telemetry_jsonl.size());
}

void EmitClusterMetrics(const ClusterAttribution& a, RunContext* ctx) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const SpanLog* log = SpanLog::Active();
  const SpanLog::Aggregate run =
      log != nullptr ? log->Get("sim.run_until") : SpanLog::Aggregate{};
  const SpanLog::Aggregate issue =
      log != nullptr ? log->Get("kvs.issue") : SpanLog::Aggregate{};
  const SpanLog::Aggregate sample =
      log != nullptr ? log->Get("dist.sample") : SpanLog::Aggregate{};
  const double ops = static_cast<double>(a.harness.ops);
  const double events = static_cast<double>(a.harness.events);
  ctx->AddMetric("sim.events_per_op", ratio(events, ops), "count");
  ctx->AddMetric("sim.messages_per_op", ratio(a.messages, ops), "count");
  ctx->AddMetric("sim.max_queue_depth", a.max_queue_depth, "count");
  ctx->AddMetric("sim.run_self_ns_per_event", ratio(run.self_ns, events),
                 "ns");
  ctx->AddMetric("dist.samples_per_op", ratio(sample.count, ops), "count");
  ctx->AddMetric("dist.sample_ns", ratio(sample.total_ns, sample.count),
                 "ns");
  ctx->AddMetric("dist.share_pct",
                 100.0 * ratio(sample.total_ns * 1e-9, a.traced_s), "%");
  ctx->AddMetric("kvs.issue_ns_per_op", ratio(issue.self_ns, issue.count),
                 "ns");
  ctx->AddMetric("kvs.allocs_per_op", ratio(a.harness.run_until_allocs, ops),
                 "count");
  ctx->AddMetric("kvs.alloc_bytes_per_op",
                 ratio(a.harness.run_until_alloc_bytes, ops), "B");
  ctx->AddMetric("kvs.controller_epochs", a.controller_epochs, "count");
  ctx->AddMetric("kvs.controller_ms_per_epoch", a.controller_ms_per_epoch,
                 "ms");
  ctx->AddMetric("kvs.hedges_per_read", ratio(a.hedged_reads, a.reads),
                 "count");
  ctx->AddMetric("kvs.retries_per_read", ratio(a.read_retries, a.reads),
                 "count");
  ctx->AddMetric("kvs.reads_failed_frac", ratio(a.reads_failed, a.reads),
                 "ratio");
  ctx->AddMetric("obs.windows", a.windows, "count");
  ctx->AddMetric("obs.telemetry_ms_per_window", a.telemetry_ms_per_window,
                 "ms");
  ctx->AddMetric("obs.jsonl_bytes", a.jsonl_bytes, "B");
  ctx->AddMetric("util.campaign_parallel_speedup",
                 a.campaign_parallel_speedup, "x");
}

}  // namespace pbsbench
