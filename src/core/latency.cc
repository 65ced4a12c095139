#include "core/latency.h"

#include <cassert>
#include <numeric>

#include "util/radix_sort.h"
#include "util/stats.h"

namespace pbs {

LatencyProfile::LatencyProfile(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  assert(!sorted_.empty());
  SortSamples(&sorted_);
  mean_ = std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
          static_cast<double>(sorted_.size());
}

double LatencyProfile::Percentile(double pct) const {
  assert(pct >= 0.0 && pct <= 100.0);
  return QuantileSorted(sorted_, pct / 100.0);
}

double LatencyProfile::CdfAt(double x) const {
  return EcdfSorted(sorted_, x);
}

OperationLatencies EstimateLatencies(const QuorumConfig& config,
                                     const ReplicaLatencyModelPtr& model,
                                     int trials, uint64_t seed,
                                     const PbsExecutionOptions& exec) {
  WarsTrialSet set = RunWarsTrials(config, model, trials, seed,
                                   /*want_propagation=*/false,
                                   ReadFanout::kAllN, exec);
  return OperationLatencies{LatencyProfile(std::move(set.read_latencies)),
                            LatencyProfile(std::move(set.write_latencies))};
}

}  // namespace pbs
