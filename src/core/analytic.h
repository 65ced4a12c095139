#ifndef PBS_CORE_ANALYTIC_H_
#define PBS_CORE_ANALYTIC_H_

#include <memory>
#include <vector>

#include "core/backend.h"
#include "core/quorum_config.h"
#include "core/wars.h"
#include "dist/production.h"

namespace pbs {

/// A non-negative distribution discretized onto a uniform grid over
/// [0, max_value): bin i carries the probability mass of
/// [i*step, (i+1)*step); mass beyond max_value is lumped into the last bin
/// (choose max_value well past the tail you care about). The numerical
/// backbone of the analytic WARS solver: supports convolution, order
/// statistics and mixtures, which the sampling path cannot expose in closed
/// form.
class DiscretizedDistribution {
 public:
  /// Discretizes `dist` by differencing its CDF at the bin edges.
  /// `bins` >= 1 (a single-bin grid is a point mass at step/2).
  static DiscretizedDistribution FromDistribution(const Distribution& dist,
                                                  double max_value, int bins);

  /// Sum of two independent variables (both inputs must share the same
  /// grid). Bin-center masses land exactly on bin edges, so each product
  /// mass is split evenly across the two straddled bins — this keeps the
  /// mean exact (see FoldSum in analytic.cc). Large grids go through an
  /// O(bins log bins) FFT; small ones use the direct O(bins^2) loop.
  static DiscretizedDistribution Convolve(const DiscretizedDistribution& a,
                                          const DiscretizedDistribution& b);

  /// k-th smallest (1-indexed) of n iid copies: CDF mixing
  /// P(X_(k) <= x) = sum_{j=k}^{n} C(n,j) F(x)^j (1-F(x))^(n-j).
  static DiscretizedDistribution OrderStatistic(
      const DiscretizedDistribution& dist, int n, int k);

  /// Exact two-component mixture on a shared grid:
  /// F(x) = weight_a * F_a(x) + weight_b * F_b(x). Weights must be >= 0
  /// and sum to ~1. This is how the analytic backend combines the r_lo /
  /// r_hi order-statistic arms of a McKenzie fractional quorum.
  static DiscretizedDistribution Mixture(const DiscretizedDistribution& a,
                                         double weight_a,
                                         const DiscretizedDistribution& b,
                                         double weight_b);

  double step() const { return step_; }
  int bins() const { return static_cast<int>(pmf_.size()); }
  double mass(int i) const { return pmf_[i]; }
  /// Center of bin i (the evaluation point used by the solver).
  double value(int i) const { return (i + 0.5) * step_; }
  /// Cumulative mass at the *upper edge* of bin i, i.e. P(X <= (i+1)*step).
  double CdfAtEdge(int i) const { return cdf_[i]; }

  /// P(X <= x), linear within bins.
  double Cdf(double x) const;
  /// Inverse CDF at p (grid resolution).
  double Quantile(double p) const;
  double Mean() const;

 private:
  friend class AnalyticScenario;  // folds its own FFT products (FoldSum)

  DiscretizedDistribution() = default;
  DiscretizedDistribution(double step, std::vector<double> pmf);

  /// The grid distribution of a sum from the full linear convolution `full`
  /// (length 2 * bins - 1) of two `bins`-bin pmfs on grid `step`.
  static DiscretizedDistribution FoldSum(double step, int bins,
                                         std::vector<double> full);

  double step_ = 0.0;
  std::vector<double> pmf_;
  std::vector<double> cdf_;  // cumulative at bin upper edges
};

/// Tail-aware grid bound for one scenario: twice the largest per-leg
/// (1 - 1e-4) quantile. Past that point each leg carries <= 1e-4 of mass,
/// so lumping it into the last bin shifts quantiles at or below p99.9 and
/// t-visibility probabilities by well under the documented tolerances —
/// while the step (max / bins) shrinks to the scenario's actual latency
/// scale. Used by AnalyticGridOptions::auto_max (core/backend.h).
double AutoGridMaxMs(const WarsDistributions& dists);

/// The grid bound `grid` resolves to for `dists`: AutoGridMaxMs capped by
/// grid.max_ms when grid.auto_max, else grid.max_ms literally. Always at
/// least one step wide.
double ResolveGridMaxMs(const WarsDistributions& dists,
                        const AnalyticGridOptions& grid);

/// Quorum-independent grids for one latency scenario: the discretized legs,
/// the leg-sum convolutions w+a and r+s, and the staleness kernel
/// q(u) = P(w > u + r). Building these costs O(bins log bins) (FFT
/// convolutions); once built, every (R, W, fanout) evaluation on top is
/// just O(bins * n) order statistics — which is what makes the analytic
/// backend milliseconds-per-point across a design-space sweep or a control
/// epoch. Immutable after construction; share via AnalyticScenarioPtr.
class AnalyticScenario {
 public:
  AnalyticScenario(const WarsDistributions& dists, double max_ms, int bins);
  AnalyticScenario(const WarsDistributions& dists,
                   const AnalyticGridOptions& grid)
      : AnalyticScenario(dists, ResolveGridMaxMs(dists, grid), grid.bins) {}

  double step() const { return step_; }
  int bins() const { return write_ack_.bins(); }
  double max_ms() const { return step_ * bins(); }
  const std::string& name() const { return name_; }

  /// Discretized write-request leg (kept for the propagation CDF Pw).
  const DiscretizedDistribution& write_leg() const { return write_leg_; }
  /// w + a per replica: order statistics of this give commit time.
  const DiscretizedDistribution& write_ack() const { return write_ack_; }
  /// r + s per replica: order statistics of this give read latency.
  const DiscretizedDistribution& read_response() const {
    return read_response_;
  }

  /// q(u) = P(w > u + r) tabulated at u = (i + 0.5) * step over
  /// [0, 2 * max_ms); zero beyond. Index with QIndex(u).
  double q(int i) const { return q_[i]; }
  int QIndex(double u) const {
    const int i = static_cast<int>(u / step_);
    return i < static_cast<int>(q_.size()) ? i
                                           : static_cast<int>(q_.size()) - 1;
  }
  int q_size() const { return static_cast<int>(q_.size()); }

 private:
  double step_;
  std::string name_;
  DiscretizedDistribution write_leg_;
  DiscretizedDistribution write_ack_;
  DiscretizedDistribution read_response_;
  std::vector<double> q_;
};

using AnalyticScenarioPtr = std::shared_ptr<const AnalyticScenario>;

/// Builds the shared grids for `dists` (validating the grid shape).
StatusOr<AnalyticScenarioPtr> MakeAnalyticScenario(
    const WarsDistributions& dists, const AnalyticGridOptions& grid);

/// Numerical WARS solver (the analytic counterpart of WarsSimulator).
///
/// Exact (to grid resolution) for operation latencies, because they are
/// pure order statistics of iid per-replica sums:
///   write latency = W-th smallest of N iid (w + a),
///   read latency  = R-th smallest of N iid (r + s)   (kAllN fan-out), or
///                   the max of R iid (r + s)          (kQuorumOnly).
///
/// Approximate for t-visibility: the paper (Section 4.1) notes the exact
/// probability couples the commit time wt with the probed replicas' own
/// write legs and with the response-order selection. This solver keeps the
/// parts of that coupling that are free under IID legs and approximates
/// the rest:
///   P(stale | t) = ps * E_wt[ (q(wt + t) / S_wa(wt))^R ]            (*)
/// with q(u) = P(w > u + r) and S_wa(x) = P(w + a > x). The ps =
/// C(N-W, R)/C(N, R) factor (Equation 1) is exact: the W ack-ers already
/// hold the version, and response order is independent of ack status, so a
/// stale read must draw all R probes from the N-W non-ack-ers. The
/// division by S_wa conditions each probe on being a non-ack-er (also
/// exact, given the order statistic wt). What remains assumed is
/// conditional independence across the R probes and ignoring the first-R
/// selection bias toward small r + s. The residual error versus Monte
/// Carlo is quantified in bench/analytic_vs_mc (a few points of
/// probability at t = 0, vanishing with t); the kAuto backend guard
/// (core/backend.h) enforces that bar at runtime.
class AnalyticWars {
 public:
  /// Convenience: builds a private scenario. `max_ms` bounds the grid
  /// (values beyond it collapse into the last bin); `bins` sets the
  /// resolution (step = max_ms / bins).
  AnalyticWars(const QuorumConfig& config, const WarsDistributions& dists,
               double max_ms, int bins,
               ReadFanout read_fanout = ReadFanout::kAllN);

  /// Shared-scenario fast path: per-quorum cost is two order statistics,
  /// O(bins * n). This is the constructor sweeps and the controller use.
  AnalyticWars(const QuorumConfig& config, AnalyticScenarioPtr scenario,
               ReadFanout read_fanout = ReadFanout::kAllN);

  const QuorumConfig& config() const { return config_; }
  const AnalyticScenarioPtr& scenario() const { return scenario_; }

  // Exact (grid-resolution) operation latency marginals.
  double WriteLatencyCdf(double x) const { return commit_time_.Cdf(x); }
  double WriteLatencyQuantile(double p) const {
    return commit_time_.Quantile(p);
  }
  double ReadLatencyCdf(double x) const { return read_latency_.Cdf(x); }
  double ReadLatencyQuantile(double p) const {
    return read_latency_.Quantile(p);
  }
  const DiscretizedDistribution& read_latency() const { return read_latency_; }
  const DiscretizedDistribution& commit_time() const { return commit_time_; }

  /// Approximate P(consistent | t) under the documented assumptions. The
  /// per-commit-bin factors (ack-survival weights, staleness-kernel powers)
  /// are hoisted at construction (BuildStaleCurve in analytic.cc), so each
  /// query is one shifted dot product against the grid — tens of
  /// microseconds, with no per-query CDF or power evaluations.
  double ApproxProbConsistent(double t) const;

  /// Approximate inconsistency window: smallest grid t with
  /// ApproxProbConsistent(t) >= p (p in (0, 1]). The curve is monotone on
  /// the grid, so this binary-searches it — O(log bins) lookups.
  double ApproxTimeForConsistency(double p) const;

  /// Approximate write-propagation CDF over the replica count at time t
  /// after commit: pw[c] = P(at most c replicas hold the version), c in
  /// [0, N], pw[N] = 1 — the Equation 4/5 input (core/closed_form.h).
  /// Approximation: given commit time wt, each replica independently holds
  /// the version with probability Fw(wt + t). This ignores that the W
  /// ack-ers are guaranteed holders, which *underestimates* the count —
  /// but TVisibilityStalenessBound already forces P(Wr < W) = 0, and for
  /// c >= W the underestimate only inflates the staleness bound, keeping
  /// it a conservative upper bound.
  std::vector<double> ApproxPwAt(double t) const;

 private:
  void BuildStaleCurve();

  QuorumConfig config_;
  ReadFanout read_fanout_;
  AnalyticScenarioPtr scenario_;
  double step_;
  DiscretizedDistribution commit_time_;   // W-th order statistic of w+a
  DiscretizedDistribution read_latency_;  // R-of-N or R-of-R of r+s
  /// Hoisted staleness factors: stale(k*step) = sum_i h[i] * g[i+k].
  /// Empty for strict quorums (identically consistent).
  std::vector<double> stale_h_;  // ps * commit mass / S_wa^R per commit bin
  std::vector<double> stale_g_;  // q^R per kernel bin
};

}  // namespace pbs

#endif  // PBS_CORE_ANALYTIC_H_
