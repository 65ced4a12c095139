// E4 — Tables 1-3 / Section 5.5: latency model fitting. Re-derives
// Pareto-body + exponential-tail mixture fits from the published percentile
// tables and reports N-RMSE, next to the paper's published Table 3
// parameters evaluated against the same tables.

#include <iostream>

#include "bench/bench_util.h"
#include "dist/fit.h"
#include "dist/production.h"
#include "util/radix_sort.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace pbs;

struct FitTarget {
  std::string name;
  std::vector<PercentilePoint> points;  // published operation latencies
  // The paper's Table 3 models are ONE-WAY message delays. LinkedIn's
  // tables are single-node latencies (request leg + response leg); Yammer's
  // are client-observed quorum operations on N=3, R=W=2 (order statistics
  // over replicas), which is how the paper's fits were derived.
  enum class Recompose { kTwoLegSum, kQuorumRead, kQuorumWrite };
  Recompose recompose;
  std::string published_desc;
};

/// Operation-level quantiles implied by the published one-way leg models,
/// under the target's recomposition rule.
std::vector<double> RecomposedQuantiles(const FitTarget& target,
                                        uint64_t seed) {
  std::vector<double> samples;
  const int trials = 200000;
  samples.reserve(trials);
  if (target.recompose == FitTarget::Recompose::kTwoLegSum) {
    // Single-node round trip: request + response leg of the same model.
    const auto legs =
        target.name.find("SSD") != std::string::npos ? LnkdSsd() : LnkdDisk();
    Rng rng(seed);
    for (int i = 0; i < trials; ++i) {
      samples.push_back(legs.w->Sample(rng) + legs.a->Sample(rng));
    }
  } else {
    // Yammer client operation: N=3, R=W=2 quorum over the YMMR legs.
    const auto model = MakeIidModel(Ymmr(), 3);
    const auto set = RunWarsTrials({3, 2, 2}, model, trials, seed,
                                   /*want_propagation=*/false,
                                   ReadFanout::kAllN, bench::BenchExecution());
    samples = target.recompose == FitTarget::Recompose::kQuorumRead
                  ? set.read_latencies
                  : set.write_latencies;
  }
  SortSamples(&samples);
  std::vector<double> out;
  for (const auto& pt : target.points) {
    out.push_back(QuantileSorted(samples, pt.percentile / 100.0));
  }
  return out;
}

void Run() {
  std::cout << "=== Section 5.5 / Table 3: latency model fitting ===\n\n";

  const std::vector<FitTarget> targets = {
      {"LinkedIn SSD (Table 1)", LinkedInSsdPercentiles(),
       FitTarget::Recompose::kTwoLegSum,
       "W=A=R=S: 91.22% Pareto(.235,10) + 8.78% Exp(1.66)"},
      {"LinkedIn disk (Table 1)", LinkedInDiskPercentiles(),
       FitTarget::Recompose::kTwoLegSum,
       "W: 38% Pareto(1.05,1.51) + 62% Exp(.183); A as SSD"},
      {"Yammer reads (Table 2)", YammerReadPercentiles(),
       FitTarget::Recompose::kQuorumRead,
       "R=S: 98.2% Pareto(1.5,3.8) + 1.8% Exp(.0217); op = R=2 of 3"},
      {"Yammer writes (Table 2)", YammerWritePercentiles(),
       FitTarget::Recompose::kQuorumWrite,
       "W: 93.9% Pareto(3,3.35) + 6.1% Exp(.0028); op = W=2 of 3"},
  };

  CsvWriter csv(std::string(bench::kResultsDir) + "/table3_fits.csv");
  csv.WriteHeader({"target", "weight_body", "xm", "alpha", "lambda",
                   "direct_fit_nrmse_pct", "published_roundtrip_nrmse_pct"});

  std::cout << "(1) Direct mixture fits of the round-trip percentile "
               "tables (our refit of the Section 5.5 methodology):\n\n";
  TextTable table({"target", "direct Pareto+Exp fit of the table",
                   "N-RMSE"});
  std::vector<ParetoExpFit> fits;
  for (const auto& target : targets) {
    const ParetoExpFit fit =
        FitParetoExponential(target.points, /*seed=*/55, /*restarts=*/32);
    fits.push_back(fit);
    table.AddRow(
        {target.name,
         FormatDouble(100.0 * fit.weight_body, 1) + "% Pareto(" +
             FormatDouble(fit.xm, 2) + "," + FormatDouble(fit.alpha, 2) +
             ") + Exp(" + FormatDouble(fit.lambda, 4) + ")",
         FormatDouble(100.0 * fit.n_rmse, 2) + "%"});
  }
  table.Print(std::cout);

  std::cout << "\n(2) The paper's Table 3 one-way models recomposed into "
               "the operations the tables actually measure (LinkedIn: "
               "single-node round trip; Yammer: N=3, R=W=2 quorum ops) and "
               "compared against the published tables:\n\n";
  TextTable rt({"target", "published one-way model", "table",
                "recomposed operation", "N-RMSE"});
  for (size_t i = 0; i < targets.size(); ++i) {
    const auto& target = targets[i];
    const auto implied = RecomposedQuantiles(target, /*seed=*/8000 + i);
    std::vector<double> published_table;
    std::string table_str;
    std::string implied_str;
    for (size_t j = 0; j < target.points.size(); ++j) {
      published_table.push_back(target.points[j].value);
      if (j) {
        table_str += "/";
        implied_str += "/";
      }
      table_str += FormatDouble(target.points[j].value, 1);
      implied_str += FormatDouble(implied[j], 1);
    }
    const double nrmse = NormalizedRmse(published_table, implied);
    rt.AddRow({target.name, target.published_desc, table_str, implied_str,
               FormatDouble(100.0 * nrmse, 2) + "%"});
    csv.WriteRow(target.name,
                 {fits[i].weight_body, fits[i].xm, fits[i].alpha,
                  fits[i].lambda, 100.0 * fits[i].n_rmse, 100.0 * nrmse});
  }
  rt.Print(std::cout);

  std::cout
      << "\nNotes: the paper fit one-way legs so that recomposed operation "
         "latencies matched its raw traces (N-RMSE .55% LNKD-SSD, .26% "
         "LNKD-DISK W, 1.84% YMMR W, .06% YMMR A=R=S); we only have the "
         "published percentile summaries, and the paper deliberately fit "
         "the YMMR 98th-percentile knee conservatively (\"fitting the data "
         "closely resulted in ... tens of seconds\"), so the recomposed "
         "YMMR write tail sits below Table 2's extreme points by design. "
         "The LinkedIn disk 'table' row includes an extrapolated 99.9th "
         "point (Table 1 publishes mean/95/99 only).\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
