#include "util/fft.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace pbs {
namespace {

std::vector<double> RandomMasses(std::size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(size);
  for (double& x : out) x = rng.NextDouble();
  return out;
}

double Sum(const std::vector<double>& x) {
  return std::accumulate(x.begin(), x.end(), 0.0);
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// The header's accuracy contract: 1e-15 * sum(a) * sum(b) per coefficient.
void ExpectWithinContract(const std::vector<double>& a,
                          const std::vector<double>& b,
                          const std::vector<double>& got) {
  const double bound = 1e-15 * Sum(a) * Sum(b);
  EXPECT_LE(MaxAbsDiff(got, ConvolveRealDirect(a, b)), bound)
      << "|a| = " << a.size() << ", |b| = " << b.size();
}

TEST(FftConvolutionTest, FftPathMatchesDirectOnAwkwardLengths) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {13, 13},
      {17, 1000}, {1000, 17}, {999, 1001}, {4096, 3}};
  uint64_t seed = 1;
  for (const auto& [na, nb] : shapes) {
    const auto a = RandomMasses(na, seed++);
    const auto b = RandomMasses(nb, seed++);
    const auto got = ConvolveRealFft(a, b);
    ASSERT_EQ(got.size(), na + nb - 1);
    ExpectWithinContract(a, b, got);
  }
}

TEST(FftConvolutionTest, ThresholdPinsBothPaths) {
  // 512 * 511 sits just below the threshold: the direct loop, bit for bit.
  const auto a = RandomMasses(512, 11);
  const auto below = RandomMasses(511, 12);
  ASSERT_LT(a.size() * below.size(), kFftConvolutionThreshold);
  EXPECT_EQ(ConvolveReal(a, below), ConvolveRealDirect(a, below));
  // 512 * 512 is the threshold itself: the FFT path.
  const auto at = RandomMasses(512, 13);
  ASSERT_EQ(a.size() * at.size(), kFftConvolutionThreshold);
  const auto got = ConvolveReal(a, at);
  EXPECT_EQ(got, ConvolveRealFft(a, at));
  ExpectWithinContract(a, at, got);
}

TEST(FftConvolutionTest, DefaultGridConvolutionIsAccurate) {
  // Two 20,000-bin probability masses, the analytic backend's default grid
  // (three convolutions of this shape per scenario build).
  auto a = RandomMasses(20000, 21);
  auto b = RandomMasses(20000, 22);
  const double sa = Sum(a), sb = Sum(b);
  for (double& x : a) x /= sa;
  for (double& x : b) x /= sb;
  const auto got = ConvolveReal(a, b);
  const double err = MaxAbsDiff(got, ConvolveRealDirect(a, b));
  EXPECT_LE(err, 1e-15);
  // The former std::complex kernel with incrementally updated twiddles
  // reached 5.3e-16 on this shape; the exact twiddle table must not do
  // worse.
  EXPECT_LE(err, 5.3e-16);
}

TEST(FftConvolutionTest, ConjugateProductIsCorrelation) {
  // conj(U) .* V inverts to sum_j u[j] v[k + j]: the analytic scenario's
  // q table against the write-leg survival function.
  const auto u = RandomMasses(300, 31);
  const auto v = RandomMasses(300, 32);
  const RealFft fft(u.size() + v.size() - 1);
  const auto got = fft.InverseProduct(fft.Forward(u), fft.Forward(v),
                                      /*conjugate_a=*/true, v.size());
  ASSERT_EQ(got.size(), v.size());
  double worst = 0.0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    double want = 0.0;
    for (std::size_t j = 0; j + k < v.size(); ++j) want += u[j] * v[k + j];
    worst = std::max(worst, std::abs(got[k] - want));
  }
  EXPECT_LE(worst, 1e-15 * Sum(u) * Sum(v));
}

TEST(FftConvolutionTest, ForwardMatchesNaiveDft) {
  const RealFft fft(64);  // m = 64: bins 0..32
  const auto x = RandomMasses(50, 41);
  const auto spectrum = fft.Forward(x);
  ASSERT_EQ(spectrum.re.size(), 33u);
  for (std::size_t k = 0; k <= 32; ++k) {
    double re = 0.0, im = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double angle = -2.0 * M_PI * static_cast<double>(j * k) / 64.0;
      re += x[j] * std::cos(angle);
      im += x[j] * std::sin(angle);
    }
    EXPECT_NEAR(spectrum.re[k], re, 1e-12) << k;
    EXPECT_NEAR(spectrum.im[k], im, 1e-12) << k;
  }
}

}  // namespace
}  // namespace pbs
