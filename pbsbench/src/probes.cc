#include "probes.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/analytic.h"
#include "core/latency.h"
#include "core/tvisibility.h"
#include "core/wars.h"
#include "trace.h"

namespace pbsbench {

using namespace pbs;

namespace {

// Single-query probes: ProbConsistent on a t grid, TimeForConsistency at
// fixed p.
constexpr double kQueryTimes[] = {0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0};
constexpr double kQueryProbabilities[] = {0.9, 0.99, 0.999};

// The predictor's default Monte Carlo budget, and the controller's
// per-candidate evaluation budget (trials_per_eval) against bench/pcap's SLA.
const int kMcTrials = PredictorOptions{}.trials;
constexpr int kEvalTrials = 800;
constexpr SlaTarget kSla{0.99, 10.0, 8.0};

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

struct QueryTimes {
  double prob_consistent_us = 0.0;
  double time_for_consistency_us = 0.0;
  std::vector<double> sets_us;  // [0] is the cold set
};

// Builds a predictor with `backend`, then times its first (cold) query set,
// warm sets, and the single-query averages.
QueryTimes TimeQueries(const ProbeInputs& in, PredictorBackend backend,
                       double* create_ms, RunContext* ctx) {
  PredictorOptions options;
  options.backend = backend;
  options.trials = kMcTrials;
  options.seed = in.seed;
  options.exec = ctx->Exec();
  const auto start = Clock::now();
  auto predictor =
      PbsPredictor::Create(in.config, MakeIidModel(in.legs, in.config.n),
                           options);
  *create_ms = MsSince(start);
  QueryTimes times{};
  ctx->Call(predictor.ok(), "probe Create " + in.config.ToString());
  if (!predictor.ok()) return times;
  const PbsPredictor& p = predictor.value();
  Fnv sink;
  bool finite = true;
  for (int i = 0; i < kProbeSets; ++i) {
    const auto set_start = Clock::now();
    finite = AnswerQuerySet(p, &sink) && finite;
    times.sets_us.push_back(SecondsSince(set_start) * 1e6);
  }
  ctx->Call(finite, "probe query sets");
  constexpr int kRounds = 64;
  double acc = 0.0;
  auto q_start = Clock::now();
  for (int i = 0; i < kRounds; ++i) {
    for (double t : kQueryTimes) acc += p.ProbConsistent(t);
  }
  times.prob_consistent_us =
      SecondsSince(q_start) * 1e6 / (kRounds * std::size(kQueryTimes));
  q_start = Clock::now();
  for (int i = 0; i < kRounds; ++i) {
    for (double q : kQueryProbabilities) acc += p.TimeForConsistency(q);
  }
  times.time_for_consistency_us =
      SecondsSince(q_start) * 1e6 / (kRounds * std::size(kQueryProbabilities));
  ctx->Call(std::isfinite(acc), "probe single queries");
  return times;
}

}  // namespace

bool AnswerQuerySet(const PbsPredictor& predictor, Fnv* digest) {
  bool finite = true;
  const auto fold = [&](double value) {
    finite = finite && std::isfinite(value);
    digest->AddDouble(value);
  };
  fold(predictor.ProbConsistent(0.0));
  fold(predictor.ProbConsistent(10.0));
  fold(predictor.TimeForConsistency(0.999));
  fold(predictor.KFreshness(2));
  fold(predictor.ReadLatencyPercentile(99.9));
  fold(predictor.WriteLatencyPercentile(99.9));
  return finite;
}

void RunLayerProbes(const ProbeInputs& in, RunContext* ctx) {
  const ReplicaLatencyModelPtr model = MakeIidModel(in.legs, in.config.n);
  PbsExecutionOptions serial = ctx->Exec();
  serial.threads = 1;

  std::vector<double> batch_ns, trials_per_s, speedup, curve_ms, scenario_ms,
      eval_ms;
  std::vector<double> create_ms[2];
  std::vector<QueryTimes> queries[2];
  std::vector<double> batch(1 << 16);
  // Each probe reports its median over three repetitions (one at tiny sizes).
  const int reps = ctx->tiny ? 1 : 3;
  for (int rep = 0; rep < reps; ++rep) {
    // dist: batch sampling on the same legs, one column per leg.
    Rng rng(in.seed + rep);
    auto start = Clock::now();
    for (const DistributionPtr& leg :
         {in.legs.w, in.legs.a, in.legs.r, in.legs.s}) {
      leg->SampleBatch(rng, batch);
    }
    batch_ns.push_back(SecondsSince(start) * 1e9 / (4.0 * batch.size()));

    // core: the WARS trial engine at the predictor's default budget, at
    // the thread cap and serially (util: parallel speedup).
    start = Clock::now();
    WarsTrialSet set = RunWarsTrials(in.config, model, kMcTrials, in.seed,
                                     /*want_propagation=*/true, in.fanout,
                                     ctx->Exec());
    const double parallel_s = SecondsSince(start);
    trials_per_s.push_back(kMcTrials / parallel_s);
    start = Clock::now();
    const WarsTrialSet serial_set =
        RunWarsTrials(in.config, model, kMcTrials, in.seed,
                      /*want_propagation=*/true, in.fanout, serial);
    speedup.push_back(SecondsSince(start) / parallel_s);
    ctx->Call(serial_set.read_latencies == set.read_latencies,
              "RunWarsTrials identical at 1 thread and at the cap");

    start = Clock::now();
    const TVisibilityCurve curve(std::move(set.staleness_thresholds));
    const LatencyProfile reads(std::move(set.read_latencies));
    const LatencyProfile writes(std::move(set.write_latencies));
    curve_ms.push_back(MsSince(start));
    ctx->Call(std::isfinite(curve.ProbConsistent(1.0) + reads.Percentile(99) +
                            writes.Percentile(99)),
              "probe curve build");

    start = Clock::now();
    auto scenario = MakeAnalyticScenario(in.legs, AnalyticGridOptions{});
    scenario_ms.push_back(MsSince(start));
    ctx->Call(scenario.ok(), "probe MakeAnalyticScenario");

    for (int b = 0; b < 2; ++b) {
      double ms = 0.0;
      queries[b].push_back(TimeQueries(
          in, b == 0 ? PredictorBackend::kMonteCarlo
                     : PredictorBackend::kAnalytic,
          &ms, ctx));
      create_ms[b].push_back(ms);
    }

    // core: the controller's per-candidate Monte Carlo evaluation.
    MixedQuorum quorum;
    quorum.n = in.config.n;
    quorum.r_lo = quorum.r_hi = in.config.r;
    quorum.w = in.config.w;
    start = Clock::now();
    const MixedQuorumEvaluation eval = EvaluateMixedQuorum(
        quorum, kSla, model, kEvalTrials, in.seed, in.fanout,
        ctx->Exec());
    eval_ms.push_back(MsSince(start));
    ctx->Call(std::isfinite(eval.read_p99_ms), "probe EvaluateMixedQuorum");
  }

  ctx->AddMetric("dist.batch_sample_ns", Median(batch_ns), "ns");
  ctx->AddMetric("core.wars_trials_per_s", Median(trials_per_s), "1/s");
  ctx->AddMetric("core.curve_build_ms", Median(curve_ms), "ms");
  ctx->AddMetric("core.analytic_scenario_ms", Median(scenario_ms), "ms");
  ctx->AddMetric("core.mc_create_ms", Median(create_ms[0]), "ms");
  ctx->AddMetric("core.analytic_create_ms", Median(create_ms[1]), "ms");
  const char* prefixes[2] = {"core.mc_", "core.analytic_"};
  for (int b = 0; b < 2; ++b) {
    std::vector<double> pc, tfc, first, warm, all;
    for (const QueryTimes& q : queries[b]) {
      pc.push_back(q.prob_consistent_us);
      tfc.push_back(q.time_for_consistency_us);
      if (q.sets_us.empty()) continue;
      first.push_back(q.sets_us.front());
      warm.insert(warm.end(), q.sets_us.begin() + 1, q.sets_us.end());
      all.insert(all.end(), q.sets_us.begin(), q.sets_us.end());
    }
    const std::string prefix = prefixes[b];
    ctx->AddMetric(prefix + "prob_consistent_us", Median(pc), "us");
    ctx->AddMetric(prefix + "time_for_consistency_us", Median(tfc), "us");
    ctx->AddMetric(prefix + "first_query_set_us", Median(first), "us");
    ctx->AddMetric(prefix + "warm_query_set_us", Median(warm), "us");
    if (!in.query_distribution) continue;
    ctx->AddMetric(prefix + "query_p50_us", Quantile(all, 0.5), "us");
    ctx->AddMetric(prefix + "query_p99_us", Quantile(all, 0.99), "us");
    ctx->AddMetric(prefix + "query_samples", static_cast<double>(all.size()),
                   "count");
  }
  ctx->AddMetric("core.evaluate_mixed_quorum_ms", Median(eval_ms), "ms");
  ctx->AddMetric("util.mc_parallel_speedup", Median(speedup), "x");
}

}  // namespace pbsbench
