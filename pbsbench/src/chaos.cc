// Workload `chaos-control`: the closed loop of bench/pcap's
// slow_replica_20x scenario — kvs::RunControllerTrials with N=3, R=1, W=2,
// kQuorumOnly reads, LNKD-DISK legs, a 200 ms timeout, replica 0 serving
// 20x slow for the whole run, and the SLA p=0.99, t=10 ms, read p99 <= 8 ms.
// The controller is on with its default Monte Carlo backend (pcap's epoch,
// trial and leg-sample settings); streaming telemetry cuts 500 ms windows
// with the drift monitor on. Campaigns use the thread cap and the default
// chunk size, as bench/pcap does.
//
// Unit of work: one simulated client op (3 probe reads per write).
// Output check per campaign: the controller meets the SLA — pooled probe
// P(consistent | 10 ms) >= 0.99, pooled read p99 <= 8 ms, and failed reads
// within the (1 - p) failure budget.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "dist/production.h"
#include "harness.h"
#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "probes.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace pbsbench {

using namespace pbs;

namespace {

constexpr double kFresh = 0.99;
constexpr double kBoundMs = 10.0;
constexpr double kReadP99Ms = 8.0;

struct Sizes {
  int trials;
  int writes;
};

kvs::ControllerTrialOptions CampaignOptions(const Sizes& sizes,
                                            uint64_t seed) {
  kvs::ControllerTrialOptions options;
  kvs::StalenessExperimentOptions& e = options.experiment;
  e.cluster.quorum = {3, 1, 2};
  e.cluster.legs = LnkdDisk();
  e.cluster.request_timeout_ms = 200.0;
  e.cluster.read_fanout = ReadFanout::kQuorumOnly;
  e.cluster.sla.fresh_probability = kFresh;
  e.cluster.sla.staleness_bound_ms = kBoundMs;
  e.cluster.sla.read_p99_ms = kReadP99Ms;
  e.cluster.controller.enabled = true;
  e.cluster.controller.epoch_ms = 500.0;
  e.cluster.controller.trials_per_eval = 800;
  e.cluster.controller.min_leg_samples = 48;
  e.cluster.obs.telemetry_window_ms = 500.0;
  e.cluster.obs.monitor_enabled = true;
  e.writes = sizes.writes;
  e.write_spacing_ms = 50.0;
  e.read_offsets_ms = {1.0, kBoundMs, 50.0};
  options.trials = sizes.trials;
  options.seed = seed;
  options.faults = [](double horizon, uint64_t) {
    kvs::FaultSchedule faults;
    faults.AddSlowNode(0.0, horizon, /*node=*/0, /*delay_mult=*/20.0);
    return faults;
  };
  return options;
}

// Campaign 0 runs at the workload seed itself (bench/pcap's 20240 by
// default); later campaigns derive theirs.
uint64_t CampaignSeed(uint64_t seed, int campaign) {
  return seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(campaign);
}

int64_t Ops(const kvs::ChaosSummary& pooled) {
  return pooled.reads_started + pooled.writes_started;
}

void CheckSla(const kvs::ControllerCampaignResult& result, uint64_t seed,
              RunContext* ctx) {
  const kvs::ChaosSummary& pooled = result.pooled;
  double fresh = 0.0;
  for (size_t i = 0; i < pooled.probe_offsets_ms.size(); ++i) {
    if (pooled.probe_offsets_ms[i] == kBoundMs) {
      fresh = pooled.ProbConsistentAtIndex(i);
    }
  }
  const std::string where = "campaign seed " + std::to_string(seed);
  ctx->Check(fresh >= kFresh, where + ": fresh@10ms " + std::to_string(fresh) +
                                  " below 0.99");
  ctx->Check(pooled.read_p99 <= kReadP99Ms,
             where + ": read p99 " + std::to_string(pooled.read_p99) +
                 " ms above 8 ms");
  ctx->Check(static_cast<double>(pooled.reads_failed) <=
                 (1.0 - kFresh) * static_cast<double>(pooled.reads_started),
             where + ": " + std::to_string(pooled.reads_failed) + "/" +
                 std::to_string(pooled.reads_started) +
                 " reads failed, over the 1% budget");
}

struct Replay {
  uint64_t pooled_digest;
  uint64_t pooled_telemetry_digest;
};

// Replays RunControllerTrials' per-trial seeding (Jump()-partitioned
// chunk streams, two draws per trial) through the benchmark's traced
// harness and folds the decision and telemetry digests the same way.
// The legs are not wrapped in TimedDistribution here: the controller's
// Monte Carlo evaluates candidates on the configured legs through compiled
// sampler plans, which cannot see through a decorator and would draw
// differently. dist.sample_* therefore read 0 on this workload.
Replay ReplayCampaign(const kvs::ControllerTrialOptions& options,
                      const PbsExecutionOptions& exec,
                      ClusterAttribution* attribution) {
  const int64_t chunks = NumChunks(options.trials, exec);
  std::vector<Rng> streams = MakeJumpStreams(Rng(options.seed), chunks);
  const kvs::StalenessExperimentOptions& e = options.experiment;
  const double max_offset =
      *std::max_element(e.read_offsets_ms.begin(), e.read_offsets_ms.end());
  const double horizon =
      static_cast<double>(e.writes + 1) * e.write_spacing_ms + max_offset +
      3.0 * e.cluster.request_timeout_ms;
  Fnv decisions, telemetry;
  for (int64_t t = 0; t < options.trials; ++t) {
    Rng& stream = streams[t / exec.chunk_size];
    kvs::StalenessExperimentOptions experiment = e;
    experiment.seed = stream.Next();
    const uint64_t fault_seed = stream.Next();
    const kvs::FaultSchedule faults = options.faults(horizon, fault_seed);
    const auto start = Clock::now();
    const kvs::StalenessExperimentResult run =
        ReplayStalenessExperiment(experiment, &faults, &attribution->harness);
    attribution->traced_s += SecondsSince(start);
    attribution->Add(run);
    decisions.Add(run.controller_digest);
    telemetry.Add(run.telemetry_jsonl.empty() ? 0
                                              : FnvBytes(run.telemetry_jsonl));
  }
  return {decisions.value(), telemetry.value()};
}

}  // namespace

void RunChaosControl(RunContext* ctx) {
  const Sizes sizes = ctx->tiny ? Sizes{1, 1000} : Sizes{4, 2000};
  ctx->AddInput("trials_per_campaign", sizes.trials);
  ctx->AddInput("writes_per_trial", sizes.writes);
  ctx->AddInput("reads_per_write", 3);
  ctx->AddInput("write_spacing_ms", 50.0);
  ctx->AddInput("controller_epoch_ms", 500.0);
  ctx->AddInput("controller_trials_per_eval", 800);
  ctx->AddInput("telemetry_window_ms", 500.0);

  // Set-up: one short warm-up campaign (thread pool, first-touch).
  {
    const auto warm = kvs::RunControllerTrials(
        CampaignOptions({1, 100}, CampaignSeed(ctx->seed, 1000)), ctx->Exec());
    ctx->Call(warm.pooled.reads_started > 0, "warm-up campaign");
  }
  if (ctx->SetupDone()) return;

  kvs::ControllerCampaignResult first;
  if (!ctx->trace) {
    // Median of per-campaign rates. Each campaign has its own seed, so the
    // fastest one would pick the cheapest content; the median of ~10
    // campaigns (4 threads each) kept a quartile spread of ~0.02 over ten
    // runs, where sec52's single-threaded cells needed a best-of.
    std::vector<double> rates;
    double timed_s = 0.0;
    int64_t ops = 0, reads = 0, reads_failed = 0;
    int campaigns = 0;
    const auto loop_start = Clock::now();
    do {
      const uint64_t seed = CampaignSeed(ctx->seed, campaigns);
      const auto start = Clock::now();
      kvs::ControllerCampaignResult result =
          kvs::RunControllerTrials(CampaignOptions(sizes, seed), ctx->Exec());
      const double s = SecondsSince(start);
      timed_s += s;
      ops += Ops(result.pooled);
      rates.push_back(Ops(result.pooled) / s);
      reads += result.pooled.reads_started;
      reads_failed += result.pooled.reads_failed;
      ctx->Call(static_cast<int>(result.trials.size()) == sizes.trials,
                "RunControllerTrials");
      CheckSla(result, seed, ctx);
      if (campaigns == 0) first = std::move(result);
      ++campaigns;
    } while (SecondsSince(loop_start) < ctx->seconds);
    ctx->TimedLoopDone();
    std::printf("chaos-control: %d campaign(s), %lld simulated ops in %.3f "
                "host s; simulated reads failed %lld/%lld\n",
                campaigns, static_cast<long long>(ops), timed_s,
                static_cast<long long>(reads_failed),
                static_cast<long long>(reads));
    ctx->AddInput("campaigns_measured", campaigns);
    ctx->AddMetric("work_per_s", Median(rates), "1/s");
  } else {
    const kvs::ControllerTrialOptions options =
        CampaignOptions(sizes, ctx->seed);
    const int reps = ctx->tiny ? 1 : 3;
    // Ablations under public config, alternated rep by rep: controller
    // off, telemetry + monitor off, and the campaign at one thread.
    kvs::ControllerTrialOptions no_controller = options;
    no_controller.experiment.cluster.controller.enabled = false;
    kvs::ControllerTrialOptions no_telemetry = options;
    no_telemetry.experiment.cluster.obs.telemetry_window_ms = 0.0;
    no_telemetry.experiment.cluster.obs.monitor_enabled = false;
    PbsExecutionOptions serial = ctx->Exec();
    serial.threads = 1;
    std::vector<double> on_s, controller_off_s, telemetry_off_s, serial_s;
    const auto timed = [&](const kvs::ControllerTrialOptions& o,
                           const PbsExecutionOptions& exec,
                           kvs::ControllerCampaignResult* out) {
      const auto start = Clock::now();
      kvs::ControllerCampaignResult result = kvs::RunControllerTrials(o, exec);
      const double s = SecondsSince(start);
      ctx->Call(!result.trials.empty(), "RunControllerTrials");
      if (out != nullptr) *out = std::move(result);
      return s;
    };
    for (int rep = 0; rep < reps; ++rep) {
      on_s.push_back(timed(options, ctx->Exec(), rep == 0 ? &first : nullptr));
      controller_off_s.push_back(timed(no_controller, ctx->Exec(), nullptr));
      telemetry_off_s.push_back(timed(no_telemetry, ctx->Exec(), nullptr));
      serial_s.push_back(timed(options, serial, nullptr));
    }
    CheckSla(first, ctx->seed, ctx);

    SpanLog log;
    ClusterAttribution attribution;
    const Replay replay =
        ReplayCampaign(options, ctx->Exec(), &attribution);
    ctx->Check(replay.pooled_digest == first.pooled_digest,
               "traced replay reproduces pooled_digest");
    ctx->Check(replay.pooled_telemetry_digest == first.pooled_telemetry_digest,
               "traced replay reproduces pooled_telemetry_digest");
    const double on = Median(on_s);
    if (attribution.controller_epochs > 0) {
      attribution.controller_ms_per_epoch =
          1e3 * (on - Median(controller_off_s)) / attribution.controller_epochs;
    }
    if (attribution.windows > 0) {
      attribution.telemetry_ms_per_window =
          1e3 * (on - Median(telemetry_off_s)) / attribution.windows;
    }
    attribution.campaign_parallel_speedup = Median(serial_s) / on;
    EmitClusterMetrics(attribution, ctx);
    ctx->trace_json = log.Json();

    ProbeInputs probe;
    probe.legs = LnkdDisk();
    probe.config = {3, 1, 2};
    probe.fanout = ReadFanout::kQuorumOnly;
    probe.seed = ctx->seed;
    RunLayerProbes(probe, ctx);
    ctx->AddMetric("trace.overhead_pct",
                   100.0 * (attribution.traced_s - on) / on, "%");
  }
  ctx->AddDigest("campaign0_pooled_digest", Hex(first.pooled_digest));
  ctx->AddDigest("campaign0_pooled_telemetry_digest",
                 Hex(first.pooled_telemetry_digest));
  ctx->AddDigest("campaign0_ops", std::to_string(Ops(first.pooled)));
  ctx->AddDigest("campaign0_reads_failed",
                 std::to_string(first.pooled.reads_failed));
}

}  // namespace pbsbench
