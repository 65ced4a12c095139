// Workload `predict`: what `pbs predict`, `pbs sla` and
// bench/design_space_atlas cost. For every (N <= 5, R, W) cell of the three
// IID Table 3 fits (LNKD-SSD, LNKD-DISK, YMMR; 165 cells) and for each of
// the Monte Carlo and analytic backends, PbsPredictor::Create builds a
// predictor, and
// the predictor answers one what-if query set — the questions `pbs predict`
// asks (tools/pbs_cli.cc PrintPrediction), once, cold — as each caller
// does: one Create and one pass of questions per predictor.
//
// Unit of work: one cell built and queried with one backend (330 units).
// Units are visited in a seeded order; work_per_s is 330 over the sum of
// each unit's fastest visit, so it describes one full sweep of both
// backends regardless of where the time budget cut the last pass. The fastest visit, not the mean: host speed on a shared
// machine switches between regimes up to ~2x apart for seconds at a time,
// and contention only ever slows a visit down (see sec52.cc).
//
// Output checks: on bench/analytic_vs_mc's configurations ({3,1,1},
// {3,2,1}, {3,1,2}, {5,2,1}, {5,1,2} per fit) the analytic and Monte Carlo
// predictors agree within its tolerances — latency quantiles within
// 2% + 0.15 ms plus the Monte Carlo quantile's 3-sigma order-statistic
// interval, P(consistent | t) within 0.05.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/predictor.h"
#include "harness.h"
#include "probes.h"
#include "trace.h"

namespace pbsbench {

using namespace pbs;

namespace {

// Attribution run only: warm query sets answered after each cell's timed
// Create + cold set, to give core.*_query_p50/p99_us a warm population. They
// are not part of the timed cell.
constexpr int kWarmSetsPerCell = 7;

struct Cell {
  const WarsDistributions* fit;
  QuorumConfig config;
};

std::vector<Cell> Cells(const std::vector<WarsDistributions>& fits, int max_n) {
  std::vector<Cell> cells;
  for (const WarsDistributions& fit : fits) {
    for (int n = 1; n <= max_n; ++n) {
      for (int r = 1; r <= n; ++r) {
        for (int w = 1; w <= n; ++w) cells.push_back({&fit, {n, r, w}});
      }
    }
  }
  return cells;
}

uint64_t CellSeed(uint64_t seed, size_t index) {
  return seed + 0x9E3779B97F4A7C15ULL * (index + 1);
}

PredictorOptions Options(PredictorBackend backend, uint64_t seed,
                         const RunContext& ctx) {
  PredictorOptions options;
  options.backend = backend;
  options.seed = seed;
  options.exec = ctx.Exec();
  return options;
}

// Half-width of the Monte Carlo quantile's 3-sigma order-statistic
// interval (bench/analytic_vs_mc's QuantileCiHalfWidth, read through the
// predictor's percentile query).
double McQuantileCi(const PbsPredictor& mc, double pct, bool read, int trials) {
  const double p = pct / 100.0;
  const double sd = 3.0 * std::sqrt(p * (1.0 - p) / trials);
  const double lo = std::max(0.0, 100.0 * (p - sd));
  const double hi = std::min(100.0, 100.0 * (p + sd));
  return read ? 0.5 * (mc.ReadLatencyPercentile(hi) -
                       mc.ReadLatencyPercentile(lo))
              : 0.5 * (mc.WriteLatencyPercentile(hi) -
                       mc.WriteLatencyPercentile(lo));
}

void CheckAgreement(const std::vector<WarsDistributions>& fits,
                    RunContext* ctx) {
  const std::vector<QuorumConfig> configs = {
      {3, 1, 1}, {3, 2, 1}, {3, 1, 2}, {5, 2, 1}, {5, 1, 2}};
  double worst_tvis = 0.0;
  for (const WarsDistributions& fit : fits) {
    for (const QuorumConfig& config : configs) {
      const auto model = MakeIidModel(fit, config.n);
      const PredictorOptions mc_options =
          Options(PredictorBackend::kMonteCarlo, ctx->seed, *ctx);
      auto mc = PbsPredictor::Create(config, model, mc_options);
      auto an = PbsPredictor::Create(
          config, model, Options(PredictorBackend::kAnalytic, 0, *ctx));
      ctx->Call(mc.ok() && an.ok(), "check predictors " + config.ToString());
      if (!mc.ok() || !an.ok()) continue;
      const std::string where = fit.name + " " + config.ToString();
      for (double pct : {50.0, 99.0, 99.9}) {
        for (bool read : {true, false}) {
          const double m = read ? mc.value().ReadLatencyPercentile(pct)
                                : mc.value().WriteLatencyPercentile(pct);
          const double a = read ? an.value().ReadLatencyPercentile(pct)
                                : an.value().WriteLatencyPercentile(pct);
          const double tol =
              0.02 * m + 0.15 +
              McQuantileCi(mc.value(), pct, read, mc_options.trials);
          ctx->Check(std::abs(a - m) <= tol,
                     where + (read ? " read p" : " write p") +
                         std::to_string(pct) + ": analytic " +
                         std::to_string(a) + " vs MC " + std::to_string(m));
        }
      }
      for (double t : {0.0, 1.0, 5.0, 20.0, 60.0}) {
        const double err = std::abs(an.value().ProbConsistent(t) -
                                    mc.value().ProbConsistent(t));
        worst_tvis = std::max(worst_tvis, err);
        ctx->Check(err <= 0.05, where + " P(consistent|" + std::to_string(t) +
                                    ") differs by " + std::to_string(err));
      }
    }
  }
  std::printf("predict: analytic vs MC worst |dP(t)| %.4f on %zu check "
              "cells\n",
              worst_tvis, fits.size() * configs.size());
}

}  // namespace

void RunPredict(RunContext* ctx) {
  const std::vector<WarsDistributions> fits = AllIidProductionFits();
  const std::vector<Cell> cells = Cells(fits, ctx->tiny ? 2 : 5);
  constexpr PredictorBackend kBackends[2] = {PredictorBackend::kMonteCarlo,
                                             PredictorBackend::kAnalytic};
  // Unit u builds cell u % cells with backend u / cells.
  const size_t units = 2 * cells.size();
  ctx->AddInput("backends", "mc,analytic");
  ctx->AddInput("cells_per_backend", static_cast<double>(cells.size()));
  ctx->AddInput("query_sets_per_cell", 1);
  ctx->AddInput("queries_per_set", kQueriesPerSet);
  ctx->AddInput("mc_trials", PredictorOptions{}.trials);

  // Seeded visiting order, reshuffled every pass.
  Rng order_rng(ctx->seed);
  std::vector<size_t> order(units);
  const auto shuffle = [&]() {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.Next() % i]);
    }
  };

  // Set-up: one warm-up build per backend on the first cell (thread pool,
  // first-touch).
  for (PredictorBackend backend : kBackends) {
    auto warm = PbsPredictor::Create(
        cells[0].config, MakeIidModel(*cells[0].fit, cells[0].config.n),
        Options(backend, CellSeed(ctx->seed, units), *ctx));
    ctx->Call(warm.ok(), "warm-up Create");
  }
  if (ctx->SetupDone()) return;

  // One unit: Create plus one (cold) query set, then `warm_sets` untimed
  // extra sets whose latencies join set_us of its backend. Returns the
  // unit's host seconds.
  std::vector<uint64_t> unit_digests(units, 0);
  std::vector<double> set_us[2];
  const auto run_unit = [&](size_t unit, int warm_sets) {
    const Cell& cell = cells[unit % cells.size()];
    const size_t b = unit / cells.size();
    const auto start = Clock::now();
    StatusOr<PbsPredictor> predictor = [&]() {
      ScopedSpan span("core.create");
      return PbsPredictor::Create(
          cell.config, MakeIidModel(*cell.fit, cell.config.n),
          Options(kBackends[b], CellSeed(ctx->seed, unit), *ctx));
    }();
    ctx->Call(predictor.ok(), "Create " + cell.fit->name + " " +
                                  cell.config.ToString());
    Fnv digest;
    bool finite = true;
    double cold_us = 0.0;
    if (predictor.ok()) {
      ScopedSpan span("core.query_set", /*keep=*/false);
      const auto set_start = Clock::now();
      finite = AnswerQuerySet(predictor.value(), &digest);
      cold_us = SecondsSince(set_start) * 1e6;
    }
    const double unit_s = SecondsSince(start);
    ctx->Call(finite, "query answers finite");
    unit_digests[unit] = digest.value();
    if (predictor.ok() && warm_sets > 0) {
      set_us[b].push_back(cold_us);
      Fnv sink;
      for (int s = 0; s < warm_sets; ++s) {
        const auto set_start = Clock::now();
        AnswerQuerySet(predictor.value(), &sink);
        set_us[b].push_back(SecondsSince(set_start) * 1e6);
      }
    }
    return unit_s;
  };

  Fnv sweep_digest;
  const auto digest_all = [&]() {
    for (uint64_t d : unit_digests) sweep_digest.Add(d);
  };

  if (!ctx->trace) {
    std::vector<double> best_s(units, HUGE_VAL);
    int passes = 0;
    int64_t visited = 0;
    const auto loop_start = Clock::now();
    bool done = false;
    while (!done) {
      shuffle();
      for (size_t unit : order) {
        best_s[unit] = std::min(best_s[unit], run_unit(unit, 0));
        ++visited;
        if (passes > 0 && SecondsSince(loop_start) >= ctx->seconds) {
          done = true;
          break;
        }
      }
      if (passes == 0) digest_all();
      ++passes;
      if (SecondsSince(loop_start) >= ctx->seconds) done = true;
    }
    double sweep_s[2] = {0.0, 0.0};
    for (size_t unit = 0; unit < units; ++unit) {
      sweep_s[unit / cells.size()] += best_s[unit];
    }
    std::printf("predict: %lld cell builds in %.3f host s; one full sweep "
                "of %zu cells costs %.3f s with the Monte Carlo backend, "
                "%.3f s with the analytic one\n",
                static_cast<long long>(visited), SecondsSince(loop_start),
                cells.size(), sweep_s[0], sweep_s[1]);
    ctx->TimedLoopDone();
    ctx->AddInput("cells_measured", static_cast<double>(visited));
    ctx->AddMetric("work_per_s", units / (sweep_s[0] + sweep_s[1]), "1/s");
  } else {
    // Attribution: one untraced pass (reference timing, digest and, from
    // each unit's cold set plus kWarmSetsPerCell warm ones, the query-set
    // latency distribution per backend), then the same units with spans.
    // Both times sum the units' own Create + cold set only.
    shuffle();
    double untraced_s = 0.0;
    for (size_t unit : order) untraced_s += run_unit(unit, kWarmSetsPerCell);
    digest_all();
    const std::vector<uint64_t> untraced_digests = unit_digests;
    {
      SpanLog log;
      double traced_s = 0.0;
      for (size_t unit : order) traced_s += run_unit(unit, /*warm_sets=*/0);
      ctx->Check(unit_digests == untraced_digests,
                 "traced pass reproduces the untraced answers");
      const char* prefixes[2] = {"core.mc_", "core.analytic_"};
      for (int b = 0; b < 2; ++b) {
        const std::string prefix = prefixes[b];
        ctx->AddMetric(prefix + "query_p50_us", Quantile(set_us[b], 0.5),
                       "us");
        ctx->AddMetric(prefix + "query_p99_us", Quantile(set_us[b], 0.99),
                       "us");
        ctx->AddMetric(prefix + "query_samples",
                       static_cast<double>(set_us[b].size()), "count");
      }
      // No cluster runs here: sim / kvs / obs layer metrics read 0.
      EmitClusterMetrics(ClusterAttribution{}, ctx);
      ctx->trace_json = log.Json();
      ctx->AddMetric("trace.overhead_pct",
                     100.0 * (traced_s - untraced_s) / untraced_s, "%");
    }
    ProbeInputs probe;
    probe.legs = fits[1];  // LNKD-DISK
    probe.config = {3, 1, 2};
    probe.seed = ctx->seed;
    probe.query_distribution = false;  // measured in situ above
    RunLayerProbes(probe, ctx);
  }
  CheckAgreement(fits, ctx);
  ctx->AddDigest("pass0_answers", sweep_digest.Hex());
}

}  // namespace pbsbench
