#ifndef PBS_CORE_LATENCY_H_
#define PBS_CORE_LATENCY_H_

#include <cstdint>
#include <vector>

#include "core/wars.h"

namespace pbs {

/// A sorted sample of operation latencies with percentile accessors; the
/// representation behind Figure 5 (latency CDFs) and the Lr/Lw columns of
/// Table 4.
class LatencyProfile {
 public:
  explicit LatencyProfile(std::vector<double> samples);

  /// `pct` in [0, 100], e.g. Percentile(99.9).
  double Percentile(double pct) const;

  /// P(latency <= x) — one point of the operation-latency CDF.
  double CdfAt(double x) const;

  double Mean() const { return mean_; }
  double Median() const { return Percentile(50.0); }
  size_t size() const { return sorted_.size(); }
  const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
  double mean_;
};

/// Read/write operation latency profiles extracted from one WARS trial set.
struct OperationLatencies {
  LatencyProfile reads;
  LatencyProfile writes;
};

/// Convenience: run `trials` WARS trials and return the latency profiles.
/// Parallel over `exec.threads` workers with thread-count-independent
/// results (see RunWarsTrials).
OperationLatencies EstimateLatencies(const QuorumConfig& config,
                                     const ReplicaLatencyModelPtr& model,
                                     int trials, uint64_t seed,
                                     const PbsExecutionOptions& exec = {});

}  // namespace pbs

#endif  // PBS_CORE_LATENCY_H_
