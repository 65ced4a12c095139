#ifndef PBS_CORE_SLA_H_
#define PBS_CORE_SLA_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/quorum_config.h"
#include "core/wars.h"
#include "util/status.h"

namespace pbs {

/// A declared consistency/latency SLA in the PCAP style (Rahman et al.,
/// arXiv:1509.02464): "at least `fresh_probability` of reads return data no
/// staler than `staleness_bound_ms`, at read p99 latency <=
/// `read_p99_ms`". The staleness clause is the paper's (t, p)-visibility
/// target; the latency clause is what keeps the controller from buying
/// freshness with unbounded quorum widening. Offline searches that state
/// no latency budget use read_p99_ms = +inf.
struct SlaTarget {
  double fresh_probability = 0.0;  // 0 == SLA disabled
  double staleness_bound_ms = 0.0;
  double read_p99_ms = 0.0;

  bool enabled() const { return fresh_probability > 0.0; }
  Status Validate() const;

  /// Parses the CLI/SLA wire form "p=0.999,t=10,p99<=15" (three
  /// comma-separated clauses, any order, no whitespace): p = fresh
  /// probability in (0, 1), t = staleness bound in ms (>= 0), p99<= = read
  /// p99 budget in ms (> 0).
  static StatusOr<SlaTarget> Parse(const std::string& text);

  friend bool operator==(const SlaTarget&, const SlaTarget&) = default;
};

/// Objective: minimize a weighted combination of read and write latency at
/// the given percentile (weights typically reflect the workload's op mix).
struct SlaObjective {
  double latency_percentile = 99.9;
  double read_weight = 0.5;
  double write_weight = 0.5;
};

/// The Section 6 "Latency/Staleness SLA" optimization: choose (N, R, W)
/// minimizing operation latency subject to `sla` and a durability floor,
/// within a search box.
struct SlaConstraints {
  /// Configurations with n in [min_n, max_n] are considered (the paper notes
  /// the search space is only O(N^2) per N).
  int min_n = 1;
  int max_n = 5;

  /// Durability/availability floor: at least this many replicas must
  /// acknowledge every write (operators "specify a minimum replication
  /// factor for durability").
  int min_write_quorum = 1;

  /// Reads consistent within 10 ms of commit with probability 0.999; no
  /// read-latency budget.
  SlaTarget sla{0.999, 10.0, std::numeric_limits<double>::infinity()};

  /// The box checks plus an enabled, valid `sla`.
  Status Validate() const;
};

/// One evaluated configuration.
struct SlaCandidate {
  QuorumConfig config;
  double t_visibility_ms = 0.0;   // t at the SLA's fresh probability
  double read_latency_ms = 0.0;   // at the objective percentile
  double write_latency_ms = 0.0;  // at the objective percentile
  double objective = 0.0;
  bool feasible = false;  // both SLA clauses hold
};

/// Scores one fixed candidate quorum: builds its engine on `backend`
/// (MakePredictionEngine) and reads t-visibility at the SLA's probability,
/// read/write latency at the objective percentile, and the read p99 for
/// the latency clause.
StatusOr<SlaCandidate> ScoreCandidate(const QuorumConfig& config,
                                      const ReplicaLatencyModelPtr& model,
                                      const PredictorOptions& options,
                                      const ResolvedBackend& backend,
                                      const SlaTarget& sla,
                                      const SlaObjective& objective);

/// Enumerates and scores quorum configurations against an SLA via WARS
/// Monte Carlo, every cell at the same seed. The caller provides a
/// latency-model factory because the model depends on N (e.g.
/// MakeIidModel(LnkdDisk(), n)).
class SlaOptimizer {
 public:
  using ModelFactory = std::function<ReplicaLatencyModelPtr(int n)>;

  SlaOptimizer(ModelFactory factory, int trials_per_config, uint64_t seed,
               const PbsExecutionOptions& exec = {});

  /// Scores every (n, r, w) in the constraint box, sorted by objective
  /// (feasible first). InvalidArgument when the constraints fail Validate
  /// or the factory returns an unusable model.
  StatusOr<std::vector<SlaCandidate>> EnumerateAll(
      const SlaConstraints& constraints, const SlaObjective& objective) const;

  /// Best feasible configuration; InvalidArgument as EnumerateAll, or
  /// NotFound if the SLA is unsatisfiable within the box.
  StatusOr<SlaCandidate> Optimize(const SlaConstraints& constraints,
                                  const SlaObjective& objective) const;

 private:
  ModelFactory factory_;
  PredictorOptions options_;
};

}  // namespace pbs

#endif  // PBS_CORE_SLA_H_
