#include "core/tvisibility.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "util/math.h"
#include "util/radix_sort.h"
#include "util/small_sort.h"
#include "util/stats.h"

namespace pbs {

TVisibilityCurve::TVisibilityCurve(std::vector<double> thresholds)
    : sorted_thresholds_(std::move(thresholds)) {
  assert(!sorted_thresholds_.empty());
  SortSamples(&sorted_thresholds_);
}

double TVisibilityCurve::ProbConsistent(double t) const {
  return EcdfSorted(sorted_thresholds_, t);
}

ProportionInterval TVisibilityCurve::ProbConsistentInterval(
    double t, double confidence) const {
  const auto it = std::upper_bound(sorted_thresholds_.begin(),
                                   sorted_thresholds_.end(), t);
  const int64_t successes = it - sorted_thresholds_.begin();
  return WilsonInterval(successes,
                        static_cast<int64_t>(sorted_thresholds_.size()),
                        confidence);
}

double TVisibilityCurve::TimeForConsistency(double p) const {
  assert(p > 0.0 && p <= 1.0);
  // Smallest threshold rank covering probability p, computed exactly: the
  // old ceil(p * n) - 1 + 1e-9 dance was off by one whenever the rounding
  // of p * n and the epsilon disagreed about which side of an integer the
  // product fell on.
  const auto n = static_cast<int64_t>(sorted_thresholds_.size());
  return sorted_thresholds_[CeilProbabilityRank(p, n) - 1];
}

TVisibilityCurve EstimateTVisibility(const QuorumConfig& config,
                                     const ReplicaLatencyModelPtr& model,
                                     int trials, uint64_t seed,
                                     const PbsExecutionOptions& exec) {
  WarsTrialSet set = RunWarsTrials(config, model, trials, seed,
                                   /*want_propagation=*/false,
                                   ReadFanout::kAllN, exec);
  return TVisibilityCurve(std::move(set.staleness_thresholds));
}

std::vector<double> EmpiricalPwAt(const WarsTrialSet& set, int n, double t) {
  assert(!set.propagation.empty());
  assert(static_cast<int>(set.propagation.size()) == n);
  const size_t trials = set.propagation[0].size();
  assert(trials > 0);
  std::vector<double> pw(n + 1, 0.0);
  // Wr(t) <= c  <=>  the (c+1)-th replica (0-indexed column c) receives the
  // version strictly after t.
  for (int c = 0; c < n; ++c) {
    size_t count = 0;
    for (double arrival : set.propagation[c]) {
      if (arrival > t) ++count;
    }
    pw[c] = static_cast<double>(count) / static_cast<double>(trials);
  }
  pw[n] = 1.0;
  return pw;
}

double KTStalenessResult::ProbStalerThan(int k) const {
  assert(k >= 0);
  int64_t total = 0;
  int64_t staler = 0;
  for (size_t d = 0; d < histogram.size(); ++d) {
    total += histogram[d];
    if (static_cast<int>(d) >= k) staler += histogram[d];
  }
  if (total == 0) return 0.0;
  return static_cast<double>(staler) / static_cast<double>(total);
}

double KTStalenessResult::MeanStaleness() const {
  int64_t total = 0;
  double weighted = 0.0;
  for (size_t d = 0; d < histogram.size(); ++d) {
    total += histogram[d];
    weighted += static_cast<double>(d) * static_cast<double>(histogram[d]);
  }
  if (total == 0) return 0.0;
  return weighted / static_cast<double>(total);
}

KTStalenessResult EstimateKTStaleness(const QuorumConfig& config,
                                      const ReplicaLatencyModelPtr& model,
                                      const DistributionPtr& inter_arrival,
                                      double t, int history, int trials,
                                      uint64_t seed,
                                      const PbsExecutionOptions& exec) {
  assert(config.IsValid());
  assert(model != nullptr);
  assert(model->num_replicas() == config.n);
  assert(inter_arrival != nullptr);
  assert(history >= 1);
  assert(trials > 0);

  const int n = config.n;
  const std::vector<Rng> streams =
      MakeJumpStreams(Rng(seed), NumChunks(trials, exec));
  std::vector<std::vector<int64_t>> chunk_histograms(
      streams.size(), std::vector<int64_t>(history + 1, 0));

  ParallelFor(trials, exec, [&](int64_t chunk, int64_t begin, int64_t end) {
    Rng rng = streams[chunk];
    std::vector<int64_t>& histogram = chunk_histograms[chunk];

    // SoA leg block [w | a | r | s] plus derived columns; all hoisted out of
    // the trial loop so steady-state trials are allocation-free.
    std::vector<double> legs(static_cast<size_t>(4 * n));
    std::vector<double> write_arrival(n);
    std::vector<double> read_round_trip(n);
    std::vector<double> responder(n);  // replica index payload, co-sorted
    std::vector<int> read_order(n);
    // Per replica, the initiation + propagation arrival of each version.
    std::vector<std::vector<double>> version_arrival(history,
                                                     std::vector<double>(n));
    std::vector<double> commit_time(history);

    const double* w = legs.data();
    const double* a = w + n;
    const double* r = w + 2 * n;
    const double* s = w + 3 * n;

    for (int64_t trial = begin; trial < end; ++trial) {
      // Write stream: version v (1-indexed as v+1 below) initiated at
      // start_v, propagating under its own WARS sample.
      double start = 0.0;
      for (int v = 0; v < history; ++v) {
        if (v > 0) start += inter_arrival->Sample(rng);
        model->SampleTrialSoA(rng, legs.data());
        double* arrivals = version_arrival[v].data();
        for (int i = 0; i < n; ++i) arrivals[i] = start + w[i];
        for (int i = 0; i < n; ++i) write_arrival[i] = w[i] + a[i];
        commit_time[v] =
            start + SmallKthSmallest(write_arrival.data(), n, config.w);
      }

      // The read uses its own fresh R/S legs (sampling with the newest
      // write's trial legs would correlate them; draw a dedicated sample
      // instead).
      model->SampleTrialSoA(rng, legs.data());
      const double read_issue = commit_time[history - 1] + t;
      for (int j = 0; j < n; ++j) read_round_trip[j] = r[j] + s[j];
      const bool small = n <= 8;
      if (small) {
        for (int j = 0; j < n; ++j) responder[j] = static_cast<double>(j);
        SmallSortPairs(read_round_trip.data(), responder.data(), n);
      } else {
        std::iota(read_order.begin(), read_order.end(), 0);
        std::partial_sort(read_order.begin(), read_order.begin() + config.r,
                          read_order.end(), [&](int x, int y) {
                            return read_round_trip[x] < read_round_trip[y];
                          });
      }

      // Each responder returns the newest version that reached it before the
      // read request arrived; the coordinator keeps the global newest.
      int newest = 0;  // 0 = no version seen
      for (int k = 0; k < config.r; ++k) {
        const int j =
            small ? static_cast<int>(responder[k]) : read_order[k];
        const double arrival = read_issue + r[j];
        for (int v = history - 1; v >= newest; --v) {
          if (version_arrival[v][j] <= arrival) {
            newest = std::max(newest, v + 1);
            break;
          }
        }
      }
      const int staleness = history - newest;  // 0 = newest version returned
      ++histogram[staleness];
    }
  });

  KTStalenessResult result;
  result.histogram.assign(history + 1, 0);
  for (const auto& partial : chunk_histograms) {
    for (int d = 0; d <= history; ++d) result.histogram[d] += partial[d];
  }
  return result;
}

}  // namespace pbs
