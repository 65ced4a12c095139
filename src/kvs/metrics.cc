#include "kvs/metrics.h"

namespace pbs {
namespace kvs {

void ConsistencyByOffset::Record(double t, bool consistent) {
  Point& point = by_offset_[t];
  point.t = t;
  ++point.trials;
  if (consistent) ++point.consistent;
  ++total_trials_;
}

std::vector<ConsistencyByOffset::Point> ConsistencyByOffset::Points() const {
  std::vector<Point> points;
  points.reserve(by_offset_.size());
  for (const auto& [t, point] : by_offset_) points.push_back(point);
  return points;
}

void VersionStalenessHistogram::Record(int64_t versions_stale) {
  ++counts_[versions_stale];
  ++total_;
}

double VersionStalenessHistogram::ProbStalerThan(int64_t k) const {
  if (total_ == 0) return 0.0;
  int64_t staler = 0;
  for (const auto& [staleness, count] : counts_) {
    if (staleness >= k) staler += count;
  }
  return static_cast<double>(staler) / static_cast<double>(total_);
}

}  // namespace kvs
}  // namespace pbs
