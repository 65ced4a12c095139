#include "core/analytic.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/fft.h"
#include "util/math.h"

namespace pbs {

DiscretizedDistribution::DiscretizedDistribution(double step,
                                                 std::vector<double> pmf)
    : step_(step), pmf_(std::move(pmf)) {
  assert(step_ > 0.0);
  assert(!pmf_.empty());
  cdf_.resize(pmf_.size());
  double total = 0.0;
  for (size_t i = 0; i < pmf_.size(); ++i) {
    total += pmf_[i];
    cdf_[i] = total;
  }
  // Normalize away accumulated rounding (inputs are probability masses).
  if (total > 0.0 && std::abs(total - 1.0) > 1e-12) {
    for (auto& m : pmf_) m /= total;
    for (auto& c : cdf_) c /= total;
  }
}

DiscretizedDistribution DiscretizedDistribution::FromDistribution(
    const Distribution& dist, double max_value, int bins) {
  assert(max_value > 0.0);
  assert(bins >= 1);
  const double step = max_value / bins;
  std::vector<double> pmf(bins);
  double prev = dist.Cdf(0.0);
  for (int i = 0; i < bins; ++i) {
    const double next = dist.Cdf((i + 1) * step);
    pmf[i] = std::max(0.0, next - prev);
    prev = next;
  }
  // Lump the tail beyond the grid into the last bin.
  pmf[bins - 1] += std::max(0.0, 1.0 - prev);
  // Mass below zero (none for latency distributions) would go to bin 0.
  pmf[0] += std::max(0.0, dist.Cdf(0.0));
  return DiscretizedDistribution(step, std::move(pmf));
}

DiscretizedDistribution DiscretizedDistribution::Convolve(
    const DiscretizedDistribution& a, const DiscretizedDistribution& b) {
  assert(std::abs(a.step_ - b.step_) < 1e-12);
  return FoldSum(a.step_, a.bins(), ConvolveReal(a.pmf_, b.pmf_));
}

DiscretizedDistribution DiscretizedDistribution::FoldSum(
    double step, int bins, std::vector<double> full) {
  // Bin centers sum to (i+0.5)+(j+0.5) = (i+j+1)*step — exactly the *edge*
  // between bins i+j and i+j+1. Putting all the mass into i+j would bias
  // every convolution's mean low by step/2; splitting it evenly across the
  // two straddled bins keeps the mean exact:
  // ((i+j+0.5) + (i+j+1+0.5))/2 = i+j+1. So from the full linear
  // convolution c[k] = sum_{i+j=k} a_i b_j:
  //   pmf[k]      = (c[k] + c[k-1]) / 2          for k < bins - 1,
  //   pmf[bins-1] = everything else (the grid's usual tail lump).
  double total = 0.0;
  for (auto& m : full) {
    m = std::max(0.0, m);  // FFT rounding can dip microscopically negative
    total += m;
  }
  std::vector<double> pmf(bins, 0.0);
  double head = 0.0;
  for (int k = 0; k + 1 < bins; ++k) {
    const double below = k == 0 ? 0.0 : full[k - 1];
    pmf[k] = 0.5 * (full[k] + below);
    head += pmf[k];
  }
  pmf[bins - 1] = std::max(0.0, total - head);
  return DiscretizedDistribution(step, std::move(pmf));
}

DiscretizedDistribution DiscretizedDistribution::OrderStatistic(
    const DiscretizedDistribution& dist, int n, int k) {
  assert(n >= 1);
  assert(k >= 1 && k <= n);
  const int bins = dist.bins();
  // G(x) = P(k-th smallest <= x) = sum_{j=k}^{n} C(n,j) F^j (1-F)^(n-j),
  // evaluated at bin upper edges, then differenced back into masses.
  // Binomial coefficients are hoisted and the powers built incrementally,
  // so the whole pass is O(bins * n) multiplies — this is the entire
  // per-quorum cost of the shared-scenario fast path.
  std::vector<double> coeff(n + 1);
  for (int j = k; j <= n; ++j) coeff[j] = Binomial(n, j);
  std::vector<double> pow_f(n + 1), pow_s(n + 1);
  pow_f[0] = pow_s[0] = 1.0;
  std::vector<double> pmf(bins);
  double prev = 0.0;
  for (int i = 0; i < bins; ++i) {
    const double f = dist.cdf_[i];
    const double s = 1.0 - f;
    for (int j = 1; j <= n; ++j) {
      pow_f[j] = pow_f[j - 1] * f;
      pow_s[j] = pow_s[j - 1] * s;
    }
    double g = 0.0;
    for (int j = k; j <= n; ++j) {
      g += coeff[j] * pow_f[j] * pow_s[n - j];
    }
    g = ClampProbability(g);
    pmf[i] = std::max(0.0, g - prev);
    prev = g;
  }
  return DiscretizedDistribution(dist.step_, std::move(pmf));
}

DiscretizedDistribution DiscretizedDistribution::Mixture(
    const DiscretizedDistribution& a, double weight_a,
    const DiscretizedDistribution& b, double weight_b) {
  assert(std::abs(a.step_ - b.step_) < 1e-12);
  assert(a.bins() == b.bins());
  assert(weight_a >= 0.0 && weight_b >= 0.0);
  std::vector<double> pmf(a.pmf_.size());
  for (size_t i = 0; i < pmf.size(); ++i) {
    pmf[i] = weight_a * a.pmf_[i] + weight_b * b.pmf_[i];
  }
  return DiscretizedDistribution(a.step_, std::move(pmf));
}

double DiscretizedDistribution::Cdf(double x) const {
  if (x < 0.0) return 0.0;
  const int idx = static_cast<int>(x / step_);
  if (idx >= bins()) return 1.0;
  const double below = idx == 0 ? 0.0 : cdf_[idx - 1];
  const double frac = (x - idx * step_) / step_;
  return below + frac * pmf_[idx];
}

double DiscretizedDistribution::Quantile(double p) const {
  assert(p >= 0.0 && p <= 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), p);
  if (it == cdf_.end()) return bins() * step_;
  const int idx = static_cast<int>(it - cdf_.begin());
  const double below = idx == 0 ? 0.0 : cdf_[idx - 1];
  const double frac =
      pmf_[idx] > 0.0 ? (p - below) / pmf_[idx] : 0.0;
  return (idx + frac) * step_;
}

double DiscretizedDistribution::Mean() const {
  double mean = 0.0;
  for (int i = 0; i < bins(); ++i) mean += pmf_[i] * value(i);
  return mean;
}

double AutoGridMaxMs(const WarsDistributions& dists) {
  // Each leg truncates <= 1e-4 of mass past its (1 - 1e-4) quantile; the
  // factor of two covers the two-leg sums (w+a, r+s) whose joint extreme
  // exceeds either marginal's. Heavy Pareto tails make far-out quantiles
  // (1 - 1e-6 and beyond) blow the bound back up to the worst case, which
  // is exactly what this is trying to avoid — 1e-4 is past every gated
  // quantile (p99.9) and every probability tolerance in the bench.
  const double p = 1.0 - 1e-4;
  double worst = 0.0;
  for (const Distribution* leg :
       {dists.w.get(), dists.a.get(), dists.r.get(), dists.s.get()}) {
    if (leg != nullptr) worst = std::max(worst, leg->Quantile(p));
  }
  return 2.0 * worst;
}

double ResolveGridMaxMs(const WarsDistributions& dists,
                        const AnalyticGridOptions& grid) {
  if (!grid.auto_max) return grid.max_ms;
  const double floor_ms = grid.max_ms / grid.bins;  // >= one configured step
  return std::clamp(AutoGridMaxMs(dists), floor_ms, grid.max_ms);
}

AnalyticScenario::AnalyticScenario(const WarsDistributions& dists,
                                   double max_ms, int bins)
    : step_(max_ms / bins), name_(dists.name) {
  // Each distinct leg object (by identity, as SamplerPlan dedups them) is
  // discretized and transformed once: in every Table 3 fit A, R and S are
  // one object (LNKD-SSD's W too), so the three products below need one or
  // two leg spectra. One plan covers the 2 * bins - 1 outputs of a full
  // linear convolution.
  const std::size_t full = 2 * static_cast<std::size_t>(bins) - 1;
  const RealFft fft(full);
  struct Leg {
    const Distribution* source;
    DiscretizedDistribution grid;
    RealFft::Spectrum spectrum;
  };
  std::vector<Leg> legs;
  legs.reserve(4);  // references below stay valid: at most four legs
  const auto leg = [&](const Distribution& dist) -> const Leg& {
    for (const Leg& known : legs) {
      if (known.source == &dist) return known;
    }
    auto grid = DiscretizedDistribution::FromDistribution(dist, max_ms, bins);
    RealFft::Spectrum spectrum = fft.Forward(grid.pmf_);
    legs.push_back({&dist, std::move(grid), std::move(spectrum)});
    return legs.back();
  };
  const Leg& w = leg(*dists.w);
  const Leg& a = leg(*dists.a);
  const Leg& r = leg(*dists.r);
  const Leg& s = leg(*dists.s);
  const auto sum = [&](const Leg& x, const Leg& y) {
    return DiscretizedDistribution::FoldSum(
        step_, bins,
        fft.InverseProduct(x.spectrum, y.spectrum, /*conjugate_a=*/false,
                           full));
  };
  write_leg_ = w.grid;
  write_ack_ = sum(w, a);
  read_response_ = sum(r, s);

  // q(u) = P(w > u + r) = sum_j P(r in bin j) * (1 - Fw(u + r_j)), with u
  // and r_j at bin centers: the CDF argument (ui+0.5+j+0.5)*step lands
  // exactly on edge ui+j+1, so with Sw[m] = 1 - Fw at edge m+1 this is the
  // correlation q[ui] = sum_j r[j] * Sw[ui + j] — the inverse of
  // conj(R) .* FFT(Sw), which reuses the read leg's spectrum (identical
  // values to the former O(bins^2) loop, up to FP rounding). Sw is zero
  // beyond the grid, so q vanishes for u >= max_ms (the upper half of the
  // table).
  std::vector<double> survival(bins);
  for (int m = 0; m < bins; ++m) {
    survival[m] = std::max(0.0, 1.0 - write_leg_.CdfAtEdge(m));
  }
  const std::vector<double> corr =
      fft.InverseProduct(r.spectrum, fft.Forward(survival),
                         /*conjugate_a=*/true, bins);
  q_.assign(2 * static_cast<size_t>(bins), 0.0);
  for (int ui = 0; ui < bins; ++ui) q_[ui] = ClampProbability(corr[ui]);
}

StatusOr<AnalyticScenarioPtr> MakeAnalyticScenario(
    const WarsDistributions& dists, const AnalyticGridOptions& grid) {
  const Status status = grid.Validate();
  if (!status.ok()) return status;
  if (dists.w == nullptr || dists.a == nullptr || dists.r == nullptr ||
      dists.s == nullptr) {
    return Status::InvalidArgument(
        "analytic scenario requires all four WARS leg distributions");
  }
  return AnalyticScenarioPtr(
      std::make_shared<const AnalyticScenario>(dists, grid));
}

AnalyticWars::AnalyticWars(const QuorumConfig& config,
                           const WarsDistributions& dists, double max_ms,
                           int bins, ReadFanout read_fanout)
    : AnalyticWars(config,
                   std::make_shared<const AnalyticScenario>(dists, max_ms,
                                                            bins),
                   read_fanout) {}

AnalyticWars::AnalyticWars(const QuorumConfig& config,
                           AnalyticScenarioPtr scenario,
                           ReadFanout read_fanout)
    : config_(config), read_fanout_(read_fanout),
      scenario_(std::move(scenario)), step_(scenario_->step()),
      commit_time_(DiscretizedDistribution::OrderStatistic(
          scenario_->write_ack(), config.n, config.w)),
      read_latency_(read_fanout == ReadFanout::kAllN
                        ? DiscretizedDistribution::OrderStatistic(
                              scenario_->read_response(), config.n, config.r)
                        : DiscretizedDistribution::OrderStatistic(
                              scenario_->read_response(), config.r,
                              config.r)) {
  assert(config_.IsValid());
  if (!config_.IsStrict()) BuildStaleCurve();
}

void AnalyticWars::BuildStaleCurve() {
  // P(stale | t) = ps * E_wt[ (q(wt + t) / S_wa(wt))^R ]  (header, eq. *):
  //
  //  - ps = C(N-W, R) / C(N, R): the W ack-ers (w + a <= wt, hence
  //    w <= wt <= wt + t + r) are guaranteed fresh, so a stale read must
  //    draw its R probes entirely from the N-W non-ack-ers. Response order
  //    (r + s) is independent of ack status under IID legs, so the probe
  //    set is uniform over R-subsets and the factor is exact — for both
  //    fan-out policies (Section 2.3).
  //  - Given the W-th order statistic wt, the non-ack-ers' legs are iid
  //    conditioned on w + a > wt, and since w > wt + t + r already implies
  //    w + a > wt (t, r, a >= 0), each probe's staleness is exactly
  //    q(wt + t) / S_wa(wt) with S_wa(x) = P(w + a > x).
  //
  // What remains approximate: staleness is treated as independent across
  // the R probes given wt, and the selection bias of the first R
  // responders toward small r + s (which shares r with the freshness
  // condition) is ignored.
  //
  // Separating the per-bin factors, with commit bin i at wt_i = (i+0.5)*step
  // and t = k*step:
  //   stale[k] = sum_i  (ps * m_i / S_i^R)  *  q[i + k]^R
  // so hoisting h_i = ps * m_i / S_i^R and g[u] = q[u]^R once per quorum
  // turns every curve point into a shifted dot product — tens of
  // microseconds against the scenario's grid, with no transcendentals in
  // the loop. q <= S_wa holds by construction (w > wt + t + r implies
  // w + a > wt), so the per-term ratio never exceeds 1; the epsilon floor
  // only guards far-tail bins where both sides underflow together.
  const double ps = BinomialRatio(config_.n - config_.w, config_.n, config_.r);
  const DiscretizedDistribution& wa = scenario_->write_ack();
  const int bins = commit_time_.bins();
  stale_g_.resize(bins);
  for (int u = 0; u < bins; ++u) {
    const double q = scenario_->q(u);
    double pow_r = 1.0;
    for (int j = 0; j < config_.r; ++j) pow_r *= q;
    stale_g_[u] = pow_r;
  }
  stale_h_.assign(bins, 0.0);
  for (int i = 0; i < bins; ++i) {
    const double mass = commit_time_.mass(i);
    if (mass == 0.0) continue;
    const double s_wa =
        std::max(1.0 - wa.Cdf(commit_time_.value(i)), 1e-12);
    double pow_s = 1.0;
    for (int j = 0; j < config_.r; ++j) pow_s *= s_wa;
    stale_h_[i] = ps * mass / pow_s;
  }
}

double AnalyticWars::ApproxProbConsistent(double t) const {
  assert(t >= 0.0);
  // Strict quorums are exactly consistent by intersection; the independence
  // approximation only applies to partial quorums (BuildStaleCurve).
  if (stale_h_.empty()) return 1.0;
  // Bin centers make the direct evaluation's index floor((i+0.5)*step + t)
  // equal i + round(t / step) — so the factored dot product reproduces the
  // per-bin sum exactly, not just at grid-aligned t. g vanishes past the
  // grid (q's upper half is zero), so terms with i + k >= bins drop out,
  // which also covers the former index clamp at the table edge.
  const int bins = static_cast<int>(stale_h_.size());
  const double shift = std::min(t / step_ + 0.5, static_cast<double>(bins));
  const int k = static_cast<int>(shift);
  double stale = 0.0;
  for (int i = 0; i + k < bins; ++i) {
    stale += stale_h_[i] * stale_g_[i + k];
  }
  return ClampProbability(1.0 - stale);
}

double AnalyticWars::ApproxTimeForConsistency(double p) const {
  assert(p > 0.0 && p <= 1.0);
  // ApproxProbConsistent is nondecreasing on the grid (q is nonincreasing
  // in u and every commit bin's index shifts uniformly with t), so the
  // smallest grid t with P(consistent | t) >= p binary-searches in
  // O(log bins) curve evaluations. k == q_size() is the "never reaches p
  // on the grid" sentinel, mirroring the former linear scan's max_t.
  int lo = 0, hi = scenario_->q_size();
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (ApproxProbConsistent(mid * step_) >= p) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo * step_;
}

std::vector<double> AnalyticWars::ApproxPwAt(double t) const {
  assert(t >= 0.0);
  const int n = config_.n;
  std::vector<double> coeff(n + 1);
  for (int c = 0; c <= n; ++c) coeff[c] = Binomial(n, c);
  std::vector<double> pow_p(n + 1), pow_s(n + 1);
  pow_p[0] = pow_s[0] = 1.0;
  // pw[c] = E_wt[ P(Binomial(n, Fw(wt + t)) <= c) ]: each replica holds
  // the version iff its write leg landed by wt + t (see the header for why
  // this keeps Equations 4/5 conservative).
  std::vector<double> pw(n + 1, 0.0);
  const DiscretizedDistribution& w = scenario_->write_leg();
  for (int i = 0; i < commit_time_.bins(); ++i) {
    const double mass = commit_time_.mass(i);
    if (mass == 0.0) continue;
    const double p = w.Cdf(commit_time_.value(i) + t);
    const double s = 1.0 - p;
    for (int j = 1; j <= n; ++j) {
      pow_p[j] = pow_p[j - 1] * p;
      pow_s[j] = pow_s[j - 1] * s;
    }
    double cumulative = 0.0;
    for (int c = 0; c <= n; ++c) {
      cumulative += coeff[c] * pow_p[c] * pow_s[n - c];
      pw[c] += mass * cumulative;
    }
  }
  for (int c = 0; c <= n; ++c) pw[c] = ClampProbability(pw[c]);
  pw[n] = 1.0;
  return pw;
}

}  // namespace pbs
