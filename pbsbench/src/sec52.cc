// Workload `sec52`: the Section 5.2 validation sweep on the per-message
// cluster, shaped as bench/sec52_validation runs it — exponential
// W in {0.05, 0.1, 0.2} x A=R=S in {0.1, 0.2, 0.5}, N=3 R=W=1, all-N
// fan-out, 13 probe offsets 0..96 ms, 500 ms write spacing, leg profiling
// on, obs / controller / faults off, one thread.
//
// Unit of work: one simulated client op (13 probe reads per write).
// Output checks per cell: no simulated op fails, and the measured
// t-visibility curve is within the Section 5.2 RMSE bound of the Monte
// Carlo prediction for the same legs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/predictor.h"
#include "dist/primitives.h"
#include "harness.h"
#include "kvs/experiment.h"
#include "probes.h"
#include "trace.h"
#include "util/stats.h"

namespace pbsbench {

using namespace pbs;

namespace {

// Section 5.2's validation bound: the paper's worst configuration had a
// t-visibility prediction RMSE of 0.53% against the WARS Monte Carlo.
// bench/sec52_validation's prediction (400k trials, seed 521) is the
// reference. The analytic predictor's distance from the measured curve is
// reported too, but not gated: its t-visibility is a documented
// approximation whose residual on these exponential legs exceeds
// bench/analytic_vs_mc's 0.05 tolerance (that gate covers the Table 3
// fits only).
constexpr double kMcRmseBound = 0.0053;
constexpr int kMcTrials = 400000;
constexpr uint64_t kMcSeed = 521;

struct Cell {
  double lambda_w;
  double lambda_ars;
  WarsDistributions legs;
};

constexpr QuorumConfig kQuorum{3, 1, 1};

std::vector<Cell> Cells() {
  std::vector<Cell> cells;
  for (double lambda_w : {0.05, 0.1, 0.2}) {
    for (double lambda_ars : {0.1, 0.2, 0.5}) {
      cells.push_back({lambda_w, lambda_ars,
                       MakeWars("val", Exponential(lambda_w),
                                Exponential(lambda_ars))});
    }
  }
  return cells;
}

std::vector<double> Offsets() {
  std::vector<double> offsets;
  for (double t = 0.0; t <= 96.0; t += 8.0) offsets.push_back(t);
  return offsets;
}

kvs::StalenessExperimentOptions CellOptions(const WarsDistributions& legs,
                                            int writes, uint64_t seed) {
  kvs::StalenessExperimentOptions options;
  options.cluster.quorum = kQuorum;
  options.cluster.legs = legs;
  options.cluster.request_timeout_ms = 5000.0;
  options.writes = writes;
  options.write_spacing_ms = 500.0;
  options.read_offsets_ms = Offsets();
  options.profile_legs = true;
  options.seed = seed;
  return options;
}

// Sweep 0 runs every cell at the workload seed itself (the shipped harness
// uses one seed for the whole sweep); later sweeps derive theirs.
uint64_t SweepSeed(uint64_t seed, int sweep) {
  return seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(sweep);
}

// What the output checks need from one cell run: its simulated failures
// and its measured P(consistent | t) at the probe offsets.
struct Observed {
  size_t cell;
  int64_t failed;
  std::vector<double> p;
};

Observed Observe(size_t cell, const kvs::StalenessExperimentResult& run) {
  Observed observed{cell,
                    run.final_metrics.reads_failed +
                        run.final_metrics.writes_failed,
                    {}};
  for (const auto& point : run.t_visibility) {
    observed.p.push_back(point.ProbConsistent());
  }
  return observed;
}

class Validator {
 public:
  explicit Validator(RunContext* ctx) : ctx_(ctx) {}

  void CheckCell(const Cell& cell, const Observed& run) {
    const std::string name = "cell W=" + FormatCell(cell.lambda_w) +
                             " ARS=" + FormatCell(cell.lambda_ars);
    ctx_->Check(run.failed == 0, name + ": " + std::to_string(run.failed) +
                                     " simulated ops failed without faults");
    const Curves& curves = CurvesFor(cell, run.cell);
    const std::vector<double>& observed = run.p;
    if (observed.size() != curves.mc.size()) {
      ctx_->Check(false, name + ": probe offsets missing");
      return;
    }
    const double rmse = Rmse(observed, curves.mc);
    worst_rmse_ = std::max(worst_rmse_, rmse);
    ctx_->Check(rmse <= kMcRmseBound,
                name + ": t-visibility RMSE " + std::to_string(rmse) +
                    " vs Monte Carlo exceeds " + std::to_string(kMcRmseBound));
    for (size_t i = 0; i < observed.size(); ++i) {
      const double err = std::abs(observed[i] - curves.analytic[i]);
      if (err > worst_analytic_) {
        worst_analytic_ = err;
        worst_analytic_t_ = Offsets()[i];
      }
    }
  }

  double worst_rmse() const { return worst_rmse_; }
  double worst_analytic() const { return worst_analytic_; }
  double worst_analytic_t() const { return worst_analytic_t_; }

 private:
  static std::string FormatCell(double v) {
    char buffer[16];
    std::snprintf(buffer, sizeof buffer, "%.2f", v);
    return buffer;
  }

  // Predicted P(consistent | t) at the probe offsets, one predictor build
  // per cell. The timed loop validates only after TimedLoopDone(), so these
  // builds are not in peak_rss_mb.
  struct Curves {
    std::vector<double> mc;
    std::vector<double> analytic;
  };

  std::vector<double> Predict(const Cell& cell,
                              const PredictorOptions& options) {
    auto created = PbsPredictor::Create(
        kQuorum, MakeIidModel(cell.legs, kQuorum.n), options);
    ctx_->Call(created.ok(), "predictor for the t-visibility checks");
    std::vector<double> curve;
    if (!created.ok()) return curve;
    for (double t : Offsets()) curve.push_back(created.value().ProbConsistent(t));
    return curve;
  }

  const Curves& CurvesFor(const Cell& cell, size_t index) {
    auto it = curves_.find(index);
    if (it == curves_.end()) {
      PredictorOptions mc;
      mc.trials = kMcTrials;
      mc.seed = kMcSeed;
      mc.collect_propagation = false;
      mc.exec = ctx_->Exec();
      PredictorOptions analytic;
      analytic.backend = PredictorBackend::kAnalytic;
      it = curves_.emplace(index, Curves{Predict(cell, mc),
                                         Predict(cell, analytic)})
               .first;
    }
    return it->second;
  }

  RunContext* ctx_;
  std::map<size_t, Curves> curves_;
  double worst_rmse_ = 0.0;
  double worst_analytic_ = 0.0;
  double worst_analytic_t_ = 0.0;
};

}  // namespace

void RunSec52(RunContext* ctx) {
  const int writes = ctx->tiny ? 300 : 20000;
  const int warmup_writes = ctx->tiny ? 50 : 500;
  const std::vector<Cell> cells = Cells();
  ctx->AddInput("cells", static_cast<double>(cells.size()));
  ctx->AddInput("writes_per_cell", writes);
  ctx->AddInput("reads_per_write", static_cast<double>(Offsets().size()));
  ctx->AddInput("write_spacing_ms", 500.0);
  ctx->AddInput("quorum", kQuorum.ToString());
  ctx->AddInput("warmup_writes", warmup_writes);

  // Set-up: inputs above plus one short warm-up cell (first-touch of the
  // allocator and code paths).
  const auto warm =
      kvs::RunStalenessExperiment(CellOptions(cells[0].legs, warmup_writes,
                                              SweepSeed(ctx->seed, 1000)));
  ctx->Call(!warm.t_visibility.empty(), "warm-up cell");
  if (ctx->SetupDone()) return;

  Validator validator(ctx);
  Fnv digest;
  int64_t probe_trials = 0, probe_consistent = 0, events = 0;
  const auto digest_sweep0 = [&](const kvs::StalenessExperimentResult& run) {
    digest.Add(ExperimentDigest(run));
    for (const auto& point : run.t_visibility) {
      probe_trials += point.trials;
      probe_consistent += point.consistent;
    }
    events += RegistryCounter(run, "sim/events_processed");
  };

  if (!ctx->trace) {
    // At least one whole sweep, then cells until the budget is spent. The
    // metric is the rate of the fastest cell run. Host speed on a shared
    // machine switches between regimes up to ~2x apart that last seconds to
    // minutes (the same cell reads 240k to 530k ops/s within one process),
    // and contention only ever slows a cell down. Over sliding 20 s windows
    // of one long run, the quartile spread of the per-window maximum was
    // 0.20 against 0.45 for the median and 0.39 for a sweep of per-cell
    // bests.
    std::vector<double> rates;
    std::vector<Observed> observed;
    double timed_s = 0.0;
    int64_t ops = 0;
    int sweeps = 0;
    const auto loop_start = Clock::now();
    for (bool done = false; !done; ++sweeps) {
      for (size_t c = 0; c < cells.size() && !done; ++c) {
        const auto options =
            CellOptions(cells[c].legs, writes, SweepSeed(ctx->seed, sweeps));
        const auto start = Clock::now();
        const kvs::StalenessExperimentResult run =
            kvs::RunStalenessExperiment(options);
        const double s = SecondsSince(start);
        timed_s += s;
        ops += SimulatedOps(run);
        rates.push_back(SimulatedOps(run) / s);
        ctx->Call(!run.t_visibility.empty(), "RunStalenessExperiment");
        observed.push_back(Observe(c, run));
        if (sweeps == 0) digest_sweep0(run);
        done = sweeps > 0 && SecondsSince(loop_start) >= ctx->seconds;
      }
      done = done || SecondsSince(loop_start) >= ctx->seconds;
    }
    ctx->TimedLoopDone();
    for (const Observed& o : observed) validator.CheckCell(cells[o.cell], o);
    std::printf("sec52: %d sweep(s) begun, %lld simulated ops in %.3f host s; "
                "worst t-visibility RMSE vs Monte Carlo %.4f%% (bound "
                "0.53%%); worst |dP(t)| vs analytic %.4f at t=%.0f ms "
                "(reported, not gated)\n",
                sweeps, static_cast<long long>(ops), timed_s,
                100.0 * validator.worst_rmse(), validator.worst_analytic(),
                validator.worst_analytic_t());
    ctx->AddInput("cells_measured", static_cast<double>(rates.size()));
    ctx->AddMetric("work_per_s", *std::max_element(rates.begin(), rates.end()),
                   "1/s");
  } else {
    // Attribution: sweep 0 untraced (reference timing and digest), then
    // replayed with spans and timed legs; the digests must agree.
    SpanLog log;
    ClusterAttribution attribution;
    double untraced_s = 0.0;
    for (size_t c = 0; c < cells.size(); ++c) {
      auto options = CellOptions(cells[c].legs, writes, ctx->seed);
      auto start = Clock::now();
      const kvs::StalenessExperimentResult reference =
          kvs::RunStalenessExperiment(options);
      untraced_s += SecondsSince(start);
      digest_sweep0(reference);
      validator.CheckCell(cells[c], Observe(c, reference));

      options.cluster.legs = TimedLegs(cells[c].legs);
      start = Clock::now();
      const kvs::StalenessExperimentResult traced =
          ReplayStalenessExperiment(options, nullptr, &attribution.harness);
      attribution.traced_s += SecondsSince(start);
      attribution.Add(traced);
      ctx->Check(ExperimentDigest(traced) == ExperimentDigest(reference),
                 "traced replay reproduces the untraced cell digest");
    }
    EmitClusterMetrics(attribution, ctx);
    ctx->trace_json = log.Json();
    ProbeInputs probe;
    probe.legs = cells[4].legs;  // W=0.1, A=R=S=0.2: the sweep's centre
    probe.config = kQuorum;
    probe.seed = ctx->seed;
    RunLayerProbes(probe, ctx);
    ctx->AddMetric("trace.overhead_pct",
                   100.0 * (attribution.traced_s - untraced_s) / untraced_s,
                   "%");
  }
  ctx->AddDigest("sweep0_experiments", digest.Hex());
  ctx->AddDigest("sweep0_probe_trials", std::to_string(probe_trials));
  ctx->AddDigest("sweep0_probe_consistent", std::to_string(probe_consistent));
  ctx->AddDigest("sweep0_events_processed", std::to_string(events));
}

}  // namespace pbsbench
