// Chaos harness: tail latency and empirical t-visibility under gray
// failures, with hedged reads off vs on per fault class.
//
// Each scenario installs one fault class from kvs/failure.h (a 10x slow
// replica, a bursty Gilbert-Elliott lossy link, a duplicating link, a
// flapping replica, a one-way partition, or a seeded random-gray mix) and
// runs the Section 5.2 staleness workload through it twice — hedging off,
// hedging on — pooling client-visible latencies across trials. The headline
// check mirrors the rapid-read-protection claim: under the 10x slow replica
// the hedged read p99.9 must be at least 2x lower than unhedged, with zero
// monotonic-read violations (strict quorums keep reads safe either way) and
// all duplicate responses suppressed rather than double-counted.
//
// Self-contained harness in the micro_perf mold: paper-style table on
// stdout, machine-readable bench_results/BENCH_chaos.{json,csv}.
//
// Usage: chaos [--trials=small|full] [--out-dir=DIR] [--threads=N]

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "dist/production.h"
#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "obs/exporters.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
#include "util/rng.h"
#include "util/stats.h"

namespace pbs {
namespace {

struct ScenarioRow {
  std::string scenario;
  bool hedged = false;
  kvs::ChaosSummary summary;
};

// One fault class: given the run horizon and a seed, produce the schedule.
struct Scenario {
  std::string name;
  std::function<kvs::FaultSchedule(double horizon, uint64_t seed)> faults;
};

kvs::ChaosSummary RunScenario(const Scenario& scenario, bool hedged,
                              int trials, int writes,
                              const PbsExecutionOptions& exec) {
  kvs::ChaosTrialOptions options;
  options.experiment.cluster.quorum = {3, 2, 2};  // strict: R + W > N
  options.experiment.cluster.legs = LnkdSsd();
  options.experiment.cluster.request_timeout_ms = 200.0;
  // kQuorumOnly leaves an untried replica for hedges to recruit.
  options.experiment.cluster.read_fanout = ReadFanout::kQuorumOnly;
  options.experiment.cluster.hedge.enabled = hedged;
  options.experiment.cluster.hedge.quantile = 0.99;
  options.experiment.cluster.retry.max_attempts = 3;
  options.experiment.cluster.retry.backoff_base_ms = 5.0;
  options.experiment.cluster.retry.deadline_ms = 150.0;
  options.experiment.writes = writes;
  options.experiment.write_spacing_ms = 50.0;
  options.experiment.read_offsets_ms = {1.0, 10.0, 50.0};
  options.trials = trials;
  options.seed = 4242;  // per-trial workload seeds derive from this
  options.inject_faults = false;  // scenario installs its own schedule

  // RunChaosTrials covers the random-gray case; scenario-specific schedules
  // run the same per-trial seeding inline so every fault class shares the
  // workload stream (paired comparison: hedging is the only variable).
  const double max_offset = 50.0;
  const double horizon =
      static_cast<double>(options.experiment.writes + 1) *
          options.experiment.write_spacing_ms +
      max_offset + 3.0 * options.experiment.cluster.request_timeout_ms;

  const int64_t num_chunks = NumChunks(trials, exec);
  std::vector<Rng> streams = MakeJumpStreams(Rng(options.seed), num_chunks);
  struct TrialOut {
    kvs::ChaosSummary summary;
    std::vector<double> reads;
  };
  std::vector<TrialOut> outs(trials);
  ParallelFor(trials, exec, [&](int64_t chunk, int64_t begin, int64_t end) {
    Rng& stream = streams[chunk];
    for (int64_t t = begin; t < end; ++t) {
      const uint64_t workload_seed = stream.Next();
      const uint64_t fault_seed = stream.Next();
      kvs::StalenessExperimentOptions experiment = options.experiment;
      experiment.seed = workload_seed;
      const kvs::FaultSchedule schedule = scenario.faults(horizon, fault_seed);
      const kvs::StalenessExperimentResult run =
          kvs::RunStalenessExperimentWithFaults(experiment, schedule);
      kvs::ChaosSummary& s = outs[t].summary;
      const kvs::ClusterMetrics& m = run.final_metrics;
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
      s.fault_activations = m.fault_slow_node_activations +
                            m.fault_lossy_link_activations +
                            m.fault_flapping_activations +
                            m.fault_asymmetric_partition_activations;
      s.probe_offsets_ms = experiment.read_offsets_ms;
      s.probe_trials.assign(s.probe_offsets_ms.size(), 0);
      s.probe_consistent.assign(s.probe_offsets_ms.size(), 0);
      for (const auto& point : run.t_visibility) {
        for (size_t i = 0; i < s.probe_offsets_ms.size(); ++i) {
          if (point.t == s.probe_offsets_ms[i]) {
            s.probe_trials[i] = point.trials;
            s.probe_consistent[i] = point.consistent;
          }
        }
      }
      outs[t].reads = run.read_latencies;
    }
  });

  kvs::ChaosSummary pooled;
  pooled.probe_offsets_ms = options.experiment.read_offsets_ms;
  pooled.probe_trials.assign(3, 0);
  pooled.probe_consistent.assign(3, 0);
  std::vector<double> read_pool;
  for (const TrialOut& out : outs) {
    const kvs::ChaosSummary& s = out.summary;
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
    read_pool.insert(read_pool.end(), out.reads.begin(), out.reads.end());
  }
  SortSamples(&read_pool);
  if (!read_pool.empty()) {
    pooled.read_p50 = QuantileSorted(read_pool, 0.50);
    pooled.read_p99 = QuantileSorted(read_pool, 0.99);
    pooled.read_p999 = QuantileSorted(read_pool, 0.999);
    pooled.read_max = read_pool.back();
  }
  return pooled;
}

void WriteJson(const std::filesystem::path& path, const std::string& mode,
               const std::vector<ScenarioRow>& rows) {
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"chaos\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n  \"results\": [\n", mode.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const kvs::ChaosSummary& s = rows[i].summary;
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"hedged\": %s, "
        "\"reads\": %" PRId64 ", \"reads_failed\": %" PRId64 ", "
        "\"read_p50_ms\": %.6f, \"read_p99_ms\": %.6f, "
        "\"read_p999_ms\": %.6f, \"read_max_ms\": %.6f, "
        "\"hedges_sent\": %" PRId64 ", \"hedges_won\": %" PRId64 ", "
        "\"dup_responses_suppressed\": %" PRId64 ", \"dup_acks_suppressed\": %" PRId64 ", "
        "\"read_retries\": %" PRId64 ", \"deadline_misses\": %" PRId64 ", "
        "\"monotonic_violations\": %" PRId64 ", \"dropped\": %" PRId64 ", "
        "\"duplicated\": %" PRId64 ", \"fault_activations\": %" PRId64 ", "
        "\"p_consistent_1ms\": %.6f, \"p_consistent_50ms\": %.6f}%s\n",
        rows[i].scenario.c_str(), rows[i].hedged ? "true" : "false",
        s.reads_started,
        s.reads_failed, s.read_p50, s.read_p99,
        s.read_p999, s.read_max, s.hedged_reads_sent,
        s.hedged_reads_won,
        s.duplicate_responses_suppressed,
        s.duplicate_acks_suppressed,
        s.client_read_retries,
        s.client_deadline_misses,
        s.monotonic_read_violations,
        s.messages_dropped,
        s.messages_duplicated,
        s.fault_activations,
        s.ProbConsistentAtIndex(0), s.ProbConsistentAtIndex(2),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void WriteCsv(const std::filesystem::path& path,
              const std::vector<ScenarioRow>& rows) {
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return;
  }
  std::fprintf(f,
               "scenario,hedged,reads,reads_failed,read_p50_ms,read_p99_ms,"
               "read_p999_ms,read_max_ms,hedges_sent,hedges_won,"
               "dup_responses_suppressed,monotonic_violations,"
               "p_consistent_1ms,p_consistent_50ms\n");
  for (const ScenarioRow& row : rows) {
    const kvs::ChaosSummary& s = row.summary;
    std::fprintf(f, "%s,%d,%" PRId64 ",%" PRId64 ",%.6f,%.6f,%.6f,%.6f,%" PRId64 ",%" PRId64 ",%" PRId64 ","
                    "%" PRId64 ",%.6f,%.6f\n",
                 row.scenario.c_str(), row.hedged ? 1 : 0,
                 s.reads_started,
                 s.reads_failed, s.read_p50,
                 s.read_p99, s.read_p999, s.read_max,
                 s.hedged_reads_sent,
                 s.hedged_reads_won,
                 s.duplicate_responses_suppressed,
                 s.monotonic_read_violations,
                 s.ProbConsistentAtIndex(0), s.ProbConsistentAtIndex(2));
  }
  std::fclose(f);
}

/// One fully-traced run under a *partial* quorum (R=W=1) with the 10x slow
/// replica: stale reads are expected here, and the point of the artifacts is
/// that each one is explainable offline — the audit line names the read's
/// trace id, winning replica, returned vs latest-committed sequence; the
/// Chrome trace shows the same trace id's W/A/R/S spans (the slow replica's
/// late write leg); the metrics file carries the run's counters. CI uploads
/// these as the sample observability artifact.
void WriteTraceArtifacts(const std::filesystem::path& dir, int writes) {
  kvs::StalenessExperimentOptions options;
  options.cluster.quorum = {3, 1, 1};  // partial: R + W <= N, staleness real
  options.cluster.legs = LnkdSsd();
  options.cluster.request_timeout_ms = 200.0;
  options.cluster.obs.trace_enabled = true;
  options.writes = writes;
  options.write_spacing_ms = 50.0;
  options.read_offsets_ms = {1.0, 10.0, 50.0};
  options.seed = 777;
  const double horizon = static_cast<double>(options.writes + 1) *
                             options.write_spacing_ms +
                         50.0 + 3.0 * options.cluster.request_timeout_ms;
  kvs::FaultSchedule schedule;
  schedule.AddSlowNode(0.0, horizon, /*node=*/0, /*delay_mult=*/10.0);
  const kvs::StalenessExperimentResult run =
      kvs::RunStalenessExperimentWithFaults(options, schedule);

  const std::string audit = obs::StalenessAuditJsonl(run.trace,
                                                     /*stale_only=*/true);
  const int64_t stale_lines =
      std::count(audit.begin(), audit.end(), '\n');
  std::ofstream(dir / "BENCH_chaos_trace.json")
      << obs::ChromeTraceJson(run.trace);
  std::ofstream(dir / "BENCH_chaos_audit.jsonl") << audit;
  std::ofstream metrics_out(dir / "BENCH_chaos_metrics.jsonl");
  obs::WriteMetricsJsonl(run.registry, metrics_out);
  std::printf(
      "traced partial-quorum run: %zu trace events, %" PRId64 " stale reads "
      "explained -> BENCH_chaos_{trace.json,audit.jsonl,metrics.jsonl}\n",
      run.trace.size(), stale_lines);
}

int Main(int argc, char** argv) {
  bool small = false;
  std::string out_dir = "bench_results";
  PbsExecutionOptions exec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trials=small") {
      small = true;
    } else if (arg == "--trials=full") {
      small = false;
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(std::strlen("--out-dir="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      exec.threads = std::atoi(arg.c_str() + std::strlen("--threads="));
    } else {
      std::fprintf(stderr,
                   "usage: chaos [--trials=small|full] [--out-dir=DIR] "
                   "[--threads=N]\n");
      return 2;
    }
  }
  const int trials = small ? 2 : 6;
  const int writes = small ? 200 : 1500;

  using kvs::FaultSchedule;
  std::vector<Scenario> scenarios;
  // Gray failure: replica 0 serves everything 10x slow for the entire run.
  scenarios.push_back({"slow_replica_10x",
                       [](double horizon, uint64_t) {
                         FaultSchedule s;
                         s.AddSlowNode(0.0, horizon, /*node=*/0,
                                       /*delay_mult=*/10.0);
                         return s;
                       }});
  // Bursty loss on the replica 0 -> coordinator(reader) response path.
  scenarios.push_back({"lossy_link_burst",
                       [](double horizon, uint64_t) {
                         FaultSchedule s;
                         s.AddLossyLink(0.0, horizon, /*src=*/0, /*dst=*/4,
                                        /*p_good_to_bad=*/0.02,
                                        /*p_bad_to_good=*/0.2,
                                        /*loss_bad=*/0.8);
                         return s;
                       }});
  // Every replica 0 response is duplicated: dedup correctness under load.
  scenarios.push_back({"duplicating_link",
                       [](double horizon, uint64_t) {
                         FaultSchedule s;
                         s.AddDuplicatingLink(0.0, horizon, /*src=*/0,
                                              /*dst=*/4, /*probability=*/1.0);
                         return s;
                       }});
  // Replica 0 flaps: 300 ms up, 200 ms down, repeatedly.
  scenarios.push_back({"flapping_replica",
                       [](double horizon, uint64_t) {
                         FaultSchedule s;
                         s.AddFlappingNode(0.0, horizon, /*node=*/0,
                                           /*up_ms=*/300.0, /*down_ms=*/200.0);
                         return s;
                       }});
  // One-way partition: replica 0 can hear but not be heard.
  scenarios.push_back({"asymmetric_partition",
                       [](double horizon, uint64_t) {
                         FaultSchedule s;
                         s.AddAsymmetricPartition(0.0, horizon, /*src=*/0,
                                                  /*dst=*/4);
                         s.AddAsymmetricPartition(0.0, horizon, /*src=*/0,
                                                  /*dst=*/3);
                         return s;
                       }});
  // Seeded mix of everything above, Poisson arrivals.
  scenarios.push_back({"random_gray",
                       [](double horizon, uint64_t seed) {
                         return FaultSchedule::RandomGrayFailures(
                             /*num_replicas=*/3, horizon,
                             /*mean_interarrival_ms=*/4000.0,
                             /*mean_duration_ms=*/1500.0, seed);
                       }});

  std::printf("chaos (%s mode): %d trials x %d writes per cell\n",
              small ? "small" : "full", trials, writes);
  std::printf("%-22s %-6s %10s %10s %10s %8s %8s %6s\n", "scenario", "hedge",
              "p50(ms)", "p99(ms)", "p99.9(ms)", "hedgewin", "dup-supp",
              "monot");
  std::vector<ScenarioRow> rows;
  for (const Scenario& scenario : scenarios) {
    for (const bool hedged : {false, true}) {
      ScenarioRow row;
      row.scenario = scenario.name;
      row.hedged = hedged;
      row.summary = RunScenario(scenario, hedged, trials, writes, exec);
      std::printf("%-22s %-6s %10.3f %10.3f %10.3f %8" PRId64 " %8" PRId64 " %6" PRId64 "\n",
                  row.scenario.c_str(), hedged ? "on" : "off",
                  row.summary.read_p50, row.summary.read_p99,
                  row.summary.read_p999,
                  row.summary.hedged_reads_won,
                  row.summary.duplicate_responses_suppressed,
                  row.summary.monotonic_read_violations);
      std::fflush(stdout);
      rows.push_back(std::move(row));
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::filesystem::path dir(out_dir);
  WriteJson(dir / "BENCH_chaos.json", small ? "small" : "full", rows);
  WriteCsv(dir / "BENCH_chaos.csv", rows);
  std::printf("wrote %s/BENCH_chaos.{json,csv}\n", out_dir.c_str());
  WriteTraceArtifacts(dir, writes);

  // Acceptance checks. Strict quorums must stay violation-free and dedup
  // must absorb every duplicate under every fault class; under the 10x slow
  // replica, hedging must cut read p99.9 by at least 2x.
  int failures = 0;
  double slow_off_p999 = 0.0, slow_on_p999 = 0.0;
  for (const ScenarioRow& row : rows) {
    if (row.summary.monotonic_read_violations != 0) {
      std::printf("CHECK FAIL: %s hedged=%d saw %" PRId64 " monotonic violations\n",
                  row.scenario.c_str(), row.hedged ? 1 : 0,
                  row.summary.monotonic_read_violations);
      ++failures;
    }
    if (row.scenario == "slow_replica_10x") {
      (row.hedged ? slow_on_p999 : slow_off_p999) = row.summary.read_p999;
    }
  }
  if (!(slow_on_p999 * 2.0 <= slow_off_p999)) {
    std::printf("CHECK FAIL: slow_replica_10x p99.9 off=%.3f on=%.3f "
                "(want >= 2x reduction)\n",
                slow_off_p999, slow_on_p999);
    ++failures;
  } else {
    std::printf("headline: slow_replica_10x read p99.9 %.3f -> %.3f ms "
                "(%.1fx) with hedging\n",
                slow_off_p999, slow_on_p999, slow_off_p999 / slow_on_p999);
  }
  if (failures == 0) std::printf("all chaos checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pbs

int main(int argc, char** argv) { return pbs::Main(argc, argv); }
