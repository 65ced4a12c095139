// Trace workflow: the full operator loop with files in the middle —
//   1. run a (simulated) cluster with the online leg profiler attached,
//   2. export the measured W/A/R/S one-way latencies as trace files,
//   3. reload the traces (as an offline analysis tool would),
//   4. predict t-visibility/latency for candidate configurations, and
//   5. refit the paper's Pareto+Exponential mixture family to the traces.
//
//   $ ./trace_workflow [output_dir]

#include <cstdio>
#include <iostream>
#include <string>

#include "core/predictor.h"
#include "dist/fit.h"
#include "dist/production.h"
#include "dist/trace.h"
#include "kvs/client.h"
#include "kvs/cluster.h"
#include "kvs/profiler.h"
#include "util/radix_sort.h"
#include "util/stats.h"
#include "util/table.h"

using namespace pbs;

int main(int argc, char** argv) {
  const std::string dir = argc >= 2 ? argv[1] : "trace_workflow_out";

  // 1. Drive a cluster (YMMR-like latencies) and profile every leg.
  std::cout << "[1/5] running cluster with leg profiler...\n";
  kvs::KvsConfig config;
  config.quorum = {3, 2, 2};  // the Yammer production configuration
  config.legs = Ymmr();
  config.request_timeout_ms = 5000.0;
  kvs::Cluster cluster(config);
  kvs::LegProfiler profiler;
  cluster.set_leg_profiler(&profiler);
  kvs::ClientSession client(&cluster, cluster.coordinator(0).id(), 1);
  for (int i = 0; i < 5000; ++i) {
    cluster.sim().At(i * 25.0, [&client, i]() {
      client.Write(i % 50, "v", nullptr);
      client.Read(i % 50, nullptr);
    });
  }
  cluster.sim().Run();

  // 2. Export traces.
  std::cout << "[2/5] exporting traces to " << dir << "/...\n";
  struct LegFile {
    kvs::LegProfiler::Leg leg;
    const char* file;
  };
  const LegFile legs[] = {
      {kvs::LegProfiler::Leg::kWriteRequest, "w.trace"},
      {kvs::LegProfiler::Leg::kWriteAck, "a.trace"},
      {kvs::LegProfiler::Leg::kReadRequest, "r.trace"},
      {kvs::LegProfiler::Leg::kReadResponse, "s.trace"},
  };
  for (const auto& leg : legs) {
    const Status status = SaveLatencyTrace(dir + "/" + leg.file,
                                           profiler.samples(leg.leg));
    if (!status.ok()) {
      std::cerr << status.message() << "\n";
      return 1;
    }
    std::printf("  %s: %zu samples\n", leg.file,
                profiler.samples(leg.leg).size());
  }

  // 3. Reload (offline-analysis style).
  std::cout << "[3/5] reloading traces...\n";
  WarsDistributions measured;
  measured.name = "measured";
  DistributionPtr* slots[] = {&measured.w, &measured.a, &measured.r,
                              &measured.s};
  for (int i = 0; i < 4; ++i) {
    auto dist = LoadTraceDistribution(dir + "/" + legs[i].file);
    if (!dist.ok()) {
      std::cerr << dist.status().message() << "\n";
      return 1;
    }
    *slots[i] = dist.value();
  }

  // 4. Predict candidate configurations from the measured legs.
  std::cout << "[4/5] predictions from measured legs:\n\n";
  TextTable table({"config", "P(fresh, t=0)", "t@99.9% (ms)",
                   "Lr p99.9 (ms)", "Lw p99.9 (ms)"});
  for (const QuorumConfig candidate :
       {QuorumConfig{3, 1, 1}, QuorumConfig{3, 2, 1}, QuorumConfig{3, 2, 2}}) {
    PbsPredictor predictor(candidate, MakeIidModel(measured, 3),
                           {.trials = 150000});
    table.AddRow(candidate.ToString(),
                 {predictor.ProbConsistent(0.0),
                  predictor.TimeForConsistency(0.999),
                  predictor.ReadLatencyPercentile(99.9),
                  predictor.WriteLatencyPercentile(99.9)},
                 3);
  }
  table.Print(std::cout);

  // 5. Refit the Table 3 mixture family to the measured write leg.
  std::cout << "\n[5/5] mixture refit of the measured write leg:\n";
  std::vector<double> sorted = profiler.samples(legs[0].leg);
  SortSamples(&sorted);
  std::vector<PercentilePoint> points;
  for (double pct : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    points.push_back({pct, QuantileSorted(sorted, pct / 100.0)});
  }
  const ParetoExpFit fit = FitParetoExponential(points);
  std::cout << "  " << fit.Describe()
            << "\n  (ground truth: 93.9% Pareto(3, 3.35) + 6.1% "
               "Exp(0.0028) — Table 3's YMMR W)\n";
  return 0;
}
