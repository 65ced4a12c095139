// A7 — Section 6 "Variable configurations": the adaptive controller
// tracking latency-regime shifts. The environment moves through epochs
// (SSD-era -> disk-era -> heavy-tailed YMMR -> back to SSD); at each epoch
// the controller re-evaluates (R, W) for fixed N against a 10 ms @ 99.9%
// staleness SLA and minimizes 99.9th-percentile latency.
//
// A second run repeats the identical epoch schedule with the analytic
// evaluator (AdaptiveControllerOptions::backend = kAnalytic) and compares
// decisions and per-epoch wall time — the DESIGN.md §12 claim that the
// grid backend makes control epochs effectively free.

#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "core/adaptive.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace pbs;

void Run() {
  std::cout << "=== Adaptive (R, W) reconfiguration across latency-regime "
               "shifts (N=3, SLA: 10 ms @ 99.9%) ===\n\n";

  AdaptiveControllerOptions options;
  options.sla.fresh_probability = 0.999;
  options.sla.staleness_bound_ms = 10.0;
  options.trials_per_eval = 60000;
  options.seed = 7007;
  AdaptiveConfigController controller({3, 1, 1}, options);

  struct Epoch {
    std::string name;
    ReplicaLatencyModelPtr model;
  };
  const std::vector<Epoch> epochs = {
      {"SSD fleet", MakeIidModel(LnkdSsd(), 3)},
      {"SSD fleet (steady)", MakeIidModel(LnkdSsd(), 3)},
      {"disk fleet (migration)", MakeIidModel(LnkdDisk(), 3)},
      {"disk fleet (steady)", MakeIidModel(LnkdDisk(), 3)},
      {"fsync-bound (YMMR)", MakeIidModel(Ymmr(), 3)},
      {"back to SSD", MakeIidModel(LnkdSsd(), 3)},
  };

  CsvWriter csv(std::string(bench::kResultsDir) + "/adaptive_config.csv");
  csv.WriteHeader({"epoch", "environment", "r", "w", "t_visibility_ms",
                   "objective_ms", "feasible", "switched"});

  TextTable table({"epoch", "environment", "config", "t@99.9% (ms)",
                   "objective (ms)", "SLA met", "switched"});
  for (size_t e = 0; e < epochs.size(); ++e) {
    controller.Update(epochs[e].model);
    const auto& decision = controller.history().back();
    table.AddRow({std::to_string(e + 1), epochs[e].name,
                  decision.chosen.ToString(),
                  FormatDouble(decision.t_visibility_ms, 2),
                  FormatDouble(decision.objective_ms, 2),
                  decision.feasible ? "yes" : "NO",
                  decision.switched ? "yes" : "-"});
    csv.WriteRow(epochs[e].name,
                 {static_cast<double>(e + 1),
                  static_cast<double>(decision.chosen.r),
                  static_cast<double>(decision.chosen.w),
                  decision.t_visibility_ms, decision.objective_ms,
                  decision.feasible ? 1.0 : 0.0,
                  decision.switched ? 1.0 : 0.0});
  }
  table.Print(std::cout);

  std::cout
      << "\nReading: on SSDs R=W=1 meets the SLA at minimal latency; the "
         "disk migration blows the 10 ms window and the controller buys "
         "consistency with a bigger read quorum; under YMMR's fsync tails "
         "it must go stricter still; returning to SSDs it relaxes again "
         "(only past the hysteresis margin, so no flapping on noise).\n";

  // Same epoch schedule, per backend, timed: the analytic evaluator sweeps
  // the identical (R, W) lattice off one grid per epoch instead of a Monte
  // Carlo batch per candidate.
  std::cout << "\n=== Epoch cost by predictor backend (same schedule) ===\n\n";
  CsvWriter bcsv(std::string(bench::kResultsDir) +
                 "/adaptive_config_backend.csv");
  bcsv.WriteHeader({"backend", "epoch", "r", "w", "feasible",
                    "epoch_ms"});
  TextTable btable({"backend", "decisions (R,W per epoch)", "total (ms)",
                    "per epoch (ms)"});
  for (const PredictorBackend backend :
       {PredictorBackend::kMonteCarlo, PredictorBackend::kAnalytic}) {
    AdaptiveControllerOptions bopts = options;
    bopts.backend = backend;
    AdaptiveConfigController bench_controller({3, 1, 1}, bopts);
    std::string decisions;
    double total_ms = 0.0;
    for (size_t e = 0; e < epochs.size(); ++e) {
      const auto start = std::chrono::steady_clock::now();
      bench_controller.Update(epochs[e].model);
      const double epoch_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      total_ms += epoch_ms;
      const auto& decision = bench_controller.history().back();
      decisions += (e ? " " : "") + std::to_string(decision.chosen.r) + "," +
                   std::to_string(decision.chosen.w);
      bcsv.WriteRow(PredictorBackendName(backend),
                    {static_cast<double>(e + 1),
                     static_cast<double>(decision.chosen.r),
                     static_cast<double>(decision.chosen.w),
                     decision.feasible ? 1.0 : 0.0, epoch_ms});
    }
    btable.AddRow({PredictorBackendName(backend), decisions,
                   FormatDouble(total_ms, 1),
                   FormatDouble(total_ms / epochs.size(), 2)});
  }
  btable.Print(std::cout);
  std::cout << "\nReading: both backends walk the same regime shifts to the "
               "same quorum choices (grid bias common to all candidates "
               "cancels in the comparison); the analytic epochs cost an "
               "order of magnitude less than the Monte Carlo ones — cheap "
               "enough to re-run the control loop every measurement window "
               "instead of amortizing it.\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
