#include "core/analytic.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/closed_form.h"
#include "core/latency.h"
#include "core/tvisibility.h"
#include "core/wars.h"
#include "dist/primitives.h"
#include "dist/production.h"
#include "util/math.h"

namespace pbs {
namespace {

TEST(DiscretizedDistributionTest, RoundTripsExponentialCdf) {
  const auto exp = Exponential(0.5);
  const auto grid =
      DiscretizedDistribution::FromDistribution(*exp, 100.0, 4000);
  for (double x : {0.5, 1.0, 2.0, 5.0, 10.0, 30.0}) {
    EXPECT_NEAR(grid.Cdf(x), exp->Cdf(x), 0.002) << "x=" << x;
  }
  EXPECT_NEAR(grid.Mean(), 2.0, 0.02);
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(grid.Quantile(p), exp->Quantile(p), 0.05) << "p=" << p;
  }
}

TEST(DiscretizedDistributionTest, TailMassLumpedIntoLastBin) {
  const auto exp = Exponential(0.01);  // mean 100 >> grid max 10
  const auto grid = DiscretizedDistribution::FromDistribution(*exp, 10.0, 100);
  EXPECT_NEAR(grid.Cdf(10.0), 1.0, 1e-12);  // all mass inside the grid
  EXPECT_GT(grid.mass(99), 0.85);           // most of it in the last bin
}

TEST(DiscretizedDistributionTest, ConvolutionOfPointMasses) {
  const auto a = DiscretizedDistribution::FromDistribution(
      *PointMass(2.0), 10.0, 1000);
  const auto b = DiscretizedDistribution::FromDistribution(
      *PointMass(3.0), 10.0, 1000);
  const auto sum = DiscretizedDistribution::Convolve(a, b);
  EXPECT_NEAR(sum.Quantile(0.5), 5.0, 0.02);
  EXPECT_NEAR(sum.Mean(), 5.0, 0.02);
}

TEST(DiscretizedDistributionTest, ConvolutionMatchesKnownSum) {
  // Sum of two Exp(1) is Gamma(2,1): CDF = 1 - e^-x (1 + x).
  const auto e = DiscretizedDistribution::FromDistribution(
      *Exponential(1.0), 60.0, 6000);
  const auto sum = DiscretizedDistribution::Convolve(e, e);
  for (double x : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double expected = 1.0 - std::exp(-x) * (1.0 + x);
    EXPECT_NEAR(sum.Cdf(x), expected, 0.003) << "x=" << x;
  }
}

TEST(DiscretizedDistributionTest, ConvolutionPreservesTheMean) {
  // Regression: bin centers sum to a bin *edge*; dumping that product mass
  // into the lower bin biased every convolution's mean low by step/2. On
  // this deliberately coarse grid (step = 0.5) the old bias was 0.25 —
  // an order of magnitude beyond the tolerance here.
  const auto a = DiscretizedDistribution::FromDistribution(
      *Exponential(1.0), 40.0, 80);
  const auto b = DiscretizedDistribution::FromDistribution(
      *Exponential(0.5), 40.0, 80);
  const auto sum = DiscretizedDistribution::Convolve(a, b);
  EXPECT_NEAR(sum.Mean(), a.Mean() + b.Mean(), 0.02);

  // Self-convolution chains must not accumulate the bias either: the old
  // placement lost k * step/2 after k convolutions.
  auto chain = a;
  for (int k = 0; k < 4; ++k) {
    chain = DiscretizedDistribution::Convolve(chain, a);
  }
  EXPECT_NEAR(chain.Mean(), 5.0 * a.Mean(), 0.05);
}

TEST(DiscretizedDistributionTest, OrderStatisticMinimumOfExponentials) {
  // Min of n iid Exp(lambda) is Exp(n * lambda).
  const auto e = DiscretizedDistribution::FromDistribution(
      *Exponential(0.5), 60.0, 6000);
  const auto minimum = DiscretizedDistribution::OrderStatistic(e, 3, 1);
  const auto expected = Exponential(1.5);
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(minimum.Quantile(p), expected->Quantile(p),
                0.02 + 0.02 * expected->Quantile(p))
        << "p=" << p;
  }
}

TEST(DiscretizedDistributionTest, OrderStatisticMaximum) {
  // Max of n iid U(0,1): CDF = x^n.
  const auto u = DiscretizedDistribution::FromDistribution(
      *Uniform(0.0, 1.0), 1.0, 2000);
  const auto maximum = DiscretizedDistribution::OrderStatistic(u, 4, 4);
  for (double x : {0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(maximum.Cdf(x), std::pow(x, 4.0), 0.003) << "x=" << x;
  }
}

TEST(DiscretizedDistributionTest, SingleBinGridIsAPointMass) {
  // The documented degenerate grid: one bin carries all the mass at its
  // center, step/2.
  const auto grid =
      DiscretizedDistribution::FromDistribution(*Exponential(1.0), 10.0, 1);
  EXPECT_EQ(grid.bins(), 1);
  EXPECT_DOUBLE_EQ(grid.mass(0), 1.0);
  EXPECT_DOUBLE_EQ(grid.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(grid.CdfAtEdge(0), 1.0);
  EXPECT_GE(grid.Quantile(0.5), 0.0);
  EXPECT_LE(grid.Quantile(0.99), 10.0);
  // Order statistics of a point mass are the point mass.
  const auto order = DiscretizedDistribution::OrderStatistic(grid, 5, 3);
  EXPECT_DOUBLE_EQ(order.mass(0), 1.0);
}

TEST(DiscretizedDistributionTest, OrderStatisticExtremesBracketTheMiddle) {
  // k = 1 (min) and k = n (max) are the exact R = 1 / R = N arms of the
  // solver; any middle k must sit between them pointwise in the CDF.
  const auto e = DiscretizedDistribution::FromDistribution(
      *Exponential(0.5), 60.0, 3000);
  const auto lo = DiscretizedDistribution::OrderStatistic(e, 5, 1);
  const auto mid = DiscretizedDistribution::OrderStatistic(e, 5, 3);
  const auto hi = DiscretizedDistribution::OrderStatistic(e, 5, 5);
  for (double x : {0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_GE(lo.Cdf(x) + 1e-12, mid.Cdf(x)) << "x=" << x;
    EXPECT_GE(mid.Cdf(x) + 1e-12, hi.Cdf(x)) << "x=" << x;
    // Max of n iid: CDF = F^n exactly.
    EXPECT_NEAR(hi.Cdf(x), std::pow(e.Cdf(x), 5.0), 0.005) << "x=" << x;
  }
}

TEST(DiscretizedDistributionTest, MixtureIsTheWeightedCdf) {
  const auto a = DiscretizedDistribution::FromDistribution(
      *Exponential(1.0), 50.0, 2000);
  const auto b = DiscretizedDistribution::FromDistribution(
      *Exponential(0.2), 50.0, 2000);
  const auto mixed = DiscretizedDistribution::Mixture(a, 0.3, b, 0.7);
  for (double x : {0.5, 2.0, 5.0, 20.0}) {
    EXPECT_NEAR(mixed.Cdf(x), 0.3 * a.Cdf(x) + 0.7 * b.Cdf(x), 1e-12)
        << "x=" << x;
  }
  EXPECT_NEAR(mixed.Mean(), 0.3 * a.Mean() + 0.7 * b.Mean(), 1e-9);
}

TEST(AnalyticGridTest, AutoMaxTracksTheLegScaleUnderTheCap) {
  // LNKD-SSD's legs live at sub-millisecond scale with a Pareto tail: the
  // auto-scaled bound lands far below the 4000 ms default cap, buying a
  // proportionally finer step from the same bin budget.
  const AnalyticGridOptions defaults;
  ASSERT_TRUE(defaults.auto_max);
  const double resolved = ResolveGridMaxMs(LnkdSsd(), defaults);
  EXPECT_LT(resolved, defaults.max_ms);
  EXPECT_DOUBLE_EQ(resolved, AutoGridMaxMs(LnkdSsd()));
  EXPECT_GT(resolved, 0.0);

  // Explicit grids opt out: max_ms is literal.
  AnalyticGridOptions pinned = defaults;
  pinned.auto_max = false;
  EXPECT_DOUBLE_EQ(ResolveGridMaxMs(LnkdSsd(), pinned), pinned.max_ms);

  // Degenerate legs cannot collapse the grid below one step's width.
  WarsDistributions tiny;
  tiny.name = "tiny";
  tiny.w = PointMass(1e-6);
  tiny.a = PointMass(1e-6);
  tiny.r = PointMass(1e-6);
  tiny.s = PointMass(1e-6);
  EXPECT_DOUBLE_EQ(ResolveGridMaxMs(tiny, defaults),
                   defaults.max_ms / defaults.bins);
}

TEST(AnalyticGridTest, ScenarioConstructionHonorsTheResolvedBound) {
  const AnalyticGridOptions defaults;
  const auto scenario = MakeAnalyticScenario(LnkdSsd(), defaults);
  ASSERT_TRUE(scenario.ok());
  EXPECT_NEAR(scenario.value()->max_ms(),
              ResolveGridMaxMs(LnkdSsd(), defaults), 1e-9);
  EXPECT_EQ(scenario.value()->bins(), defaults.bins);
}

TEST(AnalyticGridTest, SharedLegSpectraMatchDirectReferences) {
  // The scenario transforms each distinct leg once and reuses the spectra
  // across w+a, r+s and the q correlation. At 400 bins Convolve takes the
  // exact direct path, so it and an O(bins^2) q loop are the reference.
  // LNKD-DISK has distinct W and shared A/R/S objects, covering both.
  const WarsDistributions legs = LnkdDisk();
  const int bins = 400;
  const double max_ms = 200.0;
  const AnalyticScenario scenario(legs, max_ms, bins);
  const auto w = DiscretizedDistribution::FromDistribution(*legs.w, max_ms,
                                                           bins);
  const auto a = DiscretizedDistribution::FromDistribution(*legs.a, max_ms,
                                                           bins);
  const auto wa = DiscretizedDistribution::Convolve(w, a);
  const auto rs = DiscretizedDistribution::Convolve(a, a);
  for (int i = 0; i < bins; ++i) {
    EXPECT_NEAR(scenario.write_ack().CdfAtEdge(i), wa.CdfAtEdge(i), 1e-14)
        << i;
    EXPECT_NEAR(scenario.read_response().CdfAtEdge(i), rs.CdfAtEdge(i),
                1e-14)
        << i;
    double q = 0.0;
    for (int j = 0; i + j < bins; ++j) {
      q += a.mass(j) * std::max(0.0, 1.0 - w.CdfAtEdge(i + j));
    }
    EXPECT_NEAR(scenario.q(i), q, 1e-14) << i;
  }
}

TEST(AnalyticWarsTest, LatencyQuantilesMatchMonteCarloExactly) {
  // Operation latencies are pure order statistics: the analytic solver and
  // the sampler must agree to grid + sampling resolution.
  const auto dists = LnkdDisk();
  for (const QuorumConfig config :
       {QuorumConfig{3, 1, 1}, QuorumConfig{3, 2, 2}, QuorumConfig{3, 3, 1}}) {
    const AnalyticWars analytic(config, dists, 4000.0, 40000);
    const auto mc = EstimateLatencies(config, MakeIidModel(dists, config.n),
                                      300000, /*seed=*/1);
    // Tolerance tightened after the convolution mean-bias fix: with the
    // product mass split across the straddled bins the grid marginals no
    // longer drift low by step/2 per convolved leg.
    for (double pct : {50.0, 90.0, 99.0, 99.9}) {
      const double expected = mc.writes.Percentile(pct);
      EXPECT_NEAR(analytic.WriteLatencyQuantile(pct / 100.0), expected,
                  0.02 * expected + 0.15)
          << config.ToString() << " write pct=" << pct;
      const double read_expected = mc.reads.Percentile(pct);
      EXPECT_NEAR(analytic.ReadLatencyQuantile(pct / 100.0), read_expected,
                  0.02 * read_expected + 0.15)
          << config.ToString() << " read pct=" << pct;
    }
  }
}

TEST(AnalyticWarsTest, ApproxTVisibilityTracksMonteCarlo) {
  // The independence approximation should land within a few points of the
  // Monte Carlo truth for N=3 partial quorums and converge as t grows.
  const auto dists = LnkdDisk();
  const QuorumConfig config{3, 1, 1};
  const AnalyticWars analytic(config, dists, 2000.0, 20000);
  const auto mc = EstimateTVisibility(config, MakeIidModel(dists, 3), 300000,
                                      /*seed=*/2);
  for (double t : {0.0, 5.0, 20.0, 60.0}) {
    // The ignored correlations matter most immediately after commit
    // (~0.07 at t=0 for N=3; see bench/analytic_vs_mc) and wash out as t
    // grows.
    const double tolerance = t == 0.0 ? 0.10 : 0.05;
    EXPECT_NEAR(analytic.ApproxProbConsistent(t), mc.ProbConsistent(t),
                tolerance)
        << "t=" << t;
  }
  // Convergence at large t.
  EXPECT_NEAR(analytic.ApproxProbConsistent(500.0), 1.0, 0.005);
}

TEST(AnalyticWarsTest, ApproxCurveMonotoneInT) {
  const AnalyticWars analytic({3, 1, 1}, Ymmr(), 4000.0, 8000);
  double prev = 0.0;
  for (double t = 0.0; t <= 2000.0; t += 50.0) {
    const double p = analytic.ApproxProbConsistent(t);
    EXPECT_GE(p + 1e-9, prev);
    prev = p;
  }
}

TEST(AnalyticWarsTest, StrictQuorumsExactlyConsistent) {
  const AnalyticWars analytic({3, 2, 2}, LnkdDisk(), 1000.0, 2000);
  EXPECT_DOUBLE_EQ(analytic.ApproxProbConsistent(0.0), 1.0);
  EXPECT_DOUBLE_EQ(analytic.ApproxTimeForConsistency(0.9999), 0.0);
}

TEST(AnalyticWarsTest, TimeForConsistencyInvertsTheCurve) {
  const AnalyticWars analytic({3, 1, 1}, LnkdDisk(), 2000.0, 8000);
  const double t = analytic.ApproxTimeForConsistency(0.99);
  EXPECT_GE(analytic.ApproxProbConsistent(t), 0.99);
  EXPECT_GT(t, 0.0);
  // Binary search returns the *smallest* grid point meeting p: one step
  // earlier must miss it.
  const double step = analytic.scenario()->step();
  if (t >= step) {
    EXPECT_LT(analytic.ApproxProbConsistent(t - step), 0.99);
  }
}

TEST(AnalyticWarsTest, QuorumOnlyFanoutReadsTheMaxOfR) {
  // kQuorumOnly sends exactly R probes, so read latency is the max of R
  // iid (r + s) — the R-of-R order statistic on the shared grid.
  const auto scenario = MakeAnalyticScenario(LnkdDisk(), AnalyticGridOptions{});
  ASSERT_TRUE(scenario.ok());
  const QuorumConfig config{3, 2, 2};
  const AnalyticWars all_n(config, scenario.value(), ReadFanout::kAllN);
  const AnalyticWars quorum_only(config, scenario.value(),
                                 ReadFanout::kQuorumOnly);
  const auto expected = DiscretizedDistribution::OrderStatistic(
      scenario.value()->read_response(), 2, 2);
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(quorum_only.ReadLatencyQuantile(p), expected.Quantile(p),
                1e-9)
        << "p=" << p;
    // R-of-N (N > R helpers racing) is never slower than R-of-R.
    EXPECT_LE(all_n.ReadLatencyQuantile(p),
              quorum_only.ReadLatencyQuantile(p) + 1e-9)
        << "p=" << p;
  }
  // Write latency does not depend on the read fan-out.
  EXPECT_DOUBLE_EQ(all_n.WriteLatencyQuantile(0.99),
                   quorum_only.WriteLatencyQuantile(0.99));
}

TEST(AnalyticWarsTest, HoistedCurveMatchesTheDirectFormula) {
  // Regression for the shifted-dot-product evaluation: stale(t) must equal
  // the direct per-commit-bin sum
  //   sum_i m_i * ps * (q(wt_i + t) / S_wa(wt_i))^R
  // evaluated straight off the scenario accessors.
  const auto scenario = MakeAnalyticScenario(LnkdDisk(), AnalyticGridOptions{});
  ASSERT_TRUE(scenario.ok());
  const QuorumConfig config{3, 1, 2};
  const AnalyticWars analytic(config, scenario.value());
  const double step = scenario.value()->step();
  const int bins = scenario.value()->bins();
  const double ps =
      BinomialRatio(config.n - config.w, config.n, config.r);
  const auto& commit = analytic.commit_time();
  const auto& wa = scenario.value()->write_ack();
  for (double t : {0.0, 3.0 * step, 17.0 * step, 100.0 * step}) {
    const int k = static_cast<int>(t / step + 0.5);
    double stale = 0.0;
    for (int i = 0; i + k < bins; ++i) {
      const double mass = commit.mass(i);
      if (mass == 0.0) continue;
      const double s_wa =
          std::max(1.0 - wa.Cdf(commit.value(i)), 1e-12);
      double term = 1.0;
      for (int j = 0; j < config.r; ++j) {
        term *= scenario.value()->q(i + k) / s_wa;
      }
      stale += ps * mass * term;
    }
    EXPECT_NEAR(analytic.ApproxProbConsistent(t), 1.0 - stale, 1e-12)
        << "t=" << t;
  }
}

TEST(AnalyticWarsTest, SlowPropagationDegeneratesToClosedFormPs) {
  // When writes propagate far slower than everything else, almost no
  // non-ack replica holds the version at t = 0 and P(stale | 0) collapses
  // to the Equation 1 combinatorial floor ps = C(N-W, R)/C(N, R) — which
  // is also KStalenessProbability(config, 1).
  WarsDistributions slow;
  slow.name = "slow-propagation";
  slow.w = Exponential(0.001);  // mean 1000 ms
  slow.a = PointMass(0.1);
  slow.r = PointMass(0.1);
  slow.s = PointMass(0.1);
  for (const QuorumConfig config :
       {QuorumConfig{3, 1, 1}, QuorumConfig{5, 2, 2}}) {
    const AnalyticWars analytic(config, slow, 20000.0, 20000);
    const double ps = KStalenessProbability(config, 1);
    EXPECT_NEAR(1.0 - analytic.ApproxProbConsistent(0.0), ps, 0.01)
        << config.ToString();
  }
}

}  // namespace
}  // namespace pbs
