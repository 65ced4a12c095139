#include "dist/empirical.h"

#include <cassert>
#include <numeric>

#include "util/radix_sort.h"
#include "util/stats.h"

namespace pbs {

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  assert(!sorted_.empty());
  SortSamples(&sorted_);
  mean_ = std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
          static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::Sample(Rng& rng) const {
  return sorted_[rng.NextBounded(sorted_.size())];
}

void EmpiricalDistribution::SampleBatch(Rng& rng,
                                        std::span<double> out) const {
  // Resampling is a bounded-integer draw plus a gather; nothing to fuse, but
  // the devirtualized loop drops a virtual call per sample.
  const size_t n = sorted_.size();
  for (double& x : out) x = sorted_[rng.NextBounded(n)];
}

double EmpiricalDistribution::Cdf(double x) const {
  return EcdfSorted(sorted_, x);
}

double EmpiricalDistribution::Quantile(double p) const {
  return QuantileSorted(sorted_, p);
}

std::string EmpiricalDistribution::Describe() const {
  return "Empirical(n=" + std::to_string(sorted_.size()) + ")";
}

DistributionPtr Empirical(std::vector<double> samples) {
  return std::make_shared<EmpiricalDistribution>(std::move(samples));
}

}  // namespace pbs
