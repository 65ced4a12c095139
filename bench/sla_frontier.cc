// A3 — Section 6 "Latency/Staleness SLAs": automatic replication
// configuration. For a sweep of staleness SLAs (max t at 99.9% consistency)
// prints the latency-optimal (N, R, W) the optimizer picks and the
// resulting operation latencies — the frontier an operator would expose to
// applications.

#include <iostream>

#include "bench/bench_util.h"
#include "core/sla.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace pbs;

void Run() {
  std::cout << "=== SLA frontier: cheapest configuration meeting each "
               "staleness bound (LNKD-DISK, N in [2,5], 99.9% target) "
               "===\n\n";

  SlaOptimizer optimizer(
      [](int n) { return MakeIidModel(LnkdDisk(), n); },
      /*trials_per_config=*/60000, /*seed=*/4004);

  const std::vector<double> bounds = {0.0, 1.0, 5.0, 15.0, 50.0, 1e9};

  CsvWriter csv(std::string(bench::kResultsDir) + "/sla_frontier.csv");
  csv.WriteHeader({"max_t_ms", "n", "r", "w", "t_visibility_ms",
                   "read_99.9_ms", "write_99.9_ms", "objective_ms"});

  TextTable table({"staleness SLA (ms @ 99.9%)", "chosen config",
                   "achieved t (ms)", "Lr 99.9 (ms)", "Lw 99.9 (ms)",
                   "objective (ms)"});
  for (double bound : bounds) {
    SlaConstraints constraints;
    constraints.min_n = 2;
    constraints.max_n = 5;
    constraints.min_write_quorum = 1;
    constraints.sla.fresh_probability = 0.999;
    constraints.sla.staleness_bound_ms = bound;
    const auto best = optimizer.Optimize(constraints, {});
    if (!best.ok()) {
      table.AddRow({FormatDouble(bound, 1), "(unsatisfiable)", "-", "-",
                    "-", "-"});
      continue;
    }
    const SlaCandidate& c = best.value();
    table.AddRow({bound >= 1e9 ? "unbounded" : FormatDouble(bound, 1),
                  c.config.ToString(), FormatDouble(c.t_visibility_ms, 2),
                  FormatDouble(c.read_latency_ms, 2),
                  FormatDouble(c.write_latency_ms, 2),
                  FormatDouble(c.objective, 2)});
    csv.WriteRow("", {bound, static_cast<double>(c.config.n),
                      static_cast<double>(c.config.r),
                      static_cast<double>(c.config.w), c.t_visibility_ms,
                      c.read_latency_ms, c.write_latency_ms, c.objective});
  }
  table.Print(std::cout);

  std::cout << "\n=== Durability-constrained variant (W >= 2) ===\n\n";
  TextTable durable({"staleness SLA (ms @ 99.9%)", "chosen config",
                     "achieved t (ms)", "objective (ms)"});
  for (double bound : {0.0, 5.0, 1e9}) {
    SlaConstraints constraints;
    constraints.min_n = 2;
    constraints.max_n = 5;
    constraints.min_write_quorum = 2;
    constraints.sla.fresh_probability = 0.999;
    constraints.sla.staleness_bound_ms = bound;
    const auto best = optimizer.Optimize(constraints, {});
    if (!best.ok()) {
      durable.AddRow(
          {FormatDouble(bound, 1), "(unsatisfiable)", "-", "-"});
      continue;
    }
    const SlaCandidate& c = best.value();
    durable.AddRow({bound >= 1e9 ? "unbounded" : FormatDouble(bound, 1),
                    c.config.ToString(), FormatDouble(c.t_visibility_ms, 2),
                    FormatDouble(c.objective, 2)});
  }
  durable.Print(std::cout);
  std::cout << "\nReading: loose SLAs buy R=W=1 latency; a 0 ms window "
               "forces overlapping quorums; the durability floor trades "
               "write latency for resilience independent of staleness — "
               "the disentanglement Section 6 argues for.\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
