#include "util/radix_sort.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/wars.h"
#include "dist/production.h"
#include "util/rng.h"

namespace pbs {
namespace {

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  bits.reserve(values.size());
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

// The contract: for non-NaN input without mixed zeros, SortSamples returns
// exactly the bits std::sort does.
void ExpectSameAsStdSort(std::vector<double> values, const std::string& what) {
  std::vector<double> expect = values;
  std::sort(expect.begin(), expect.end());
  SortSamples(&values);
  EXPECT_EQ(Bits(values), Bits(expect)) << what << " n=" << values.size();
}

void Shuffle(std::vector<double>* values, Rng& rng) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[rng.NextBounded(i)]);
  }
}

TEST(RadixSortTest, MatchesStdSortOnWarsColumns) {
  const WarsDistributions fits[] = {LnkdSsd(), LnkdDisk(), Ymmr()};
  for (const WarsDistributions& fit : fits) {
    for (int n = 1; n <= 5; ++n) {
      // R = W = 1 keeps the staleness column non-trivial for N > 1.
      const WarsTrialSet set =
          RunWarsTrials({n, 1, 1}, MakeIidModel(fit, n), 20000, 7 + n);
      const std::string what = fit.name + " N=" + std::to_string(n);
      ExpectSameAsStdSort(set.staleness_thresholds, what + " staleness");
      ExpectSameAsStdSort(set.read_latencies, what + " read");
      ExpectSameAsStdSort(set.write_latencies, what + " write");
    }
  }
}

TEST(RadixSortTest, ConcurrentCallsShareNothing) {
  // MonteCarloEngine sorts its three columns at once; each call owns its
  // scratch and histograms.
  const WarsTrialSet set =
      RunWarsTrials({3, 1, 1}, MakeIidModel(LnkdDisk(), 3), 50000, 11);
  std::vector<double> columns[] = {set.staleness_thresholds,
                                   set.read_latencies, set.write_latencies};
  std::vector<std::thread> threads;
  for (auto& column : columns) {
    threads.emplace_back([&column] { SortSamples(&column); });
  }
  for (auto& thread : threads) thread.join();
  const std::vector<double>* originals[] = {&set.staleness_thresholds,
                                            &set.read_latencies,
                                            &set.write_latencies};
  for (int c = 0; c < 3; ++c) {
    std::vector<double> expect = *originals[c];
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(Bits(columns[c]), Bits(expect)) << "column " << c;
  }
}

TEST(RadixSortTest, MatchesStdSortOnMixedSignsAndMagnitudes) {
  Rng rng(3);
  std::vector<double> scaled(50000);
  for (double& v : scaled) {
    const double sign = rng.NextBounded(2) ? -1.0 : 1.0;
    const int exponent = static_cast<int>(rng.NextBounded(241)) - 120;
    v = sign * std::ldexp(rng.NextOpenDouble(), exponent);
  }
  ExpectSameAsStdSort(scaled, "scaled");

  // Arbitrary bit patterns cover every exponent, both signs and every digit.
  std::vector<double> raw;
  while (raw.size() < 50000) {
    const double v = std::bit_cast<double>(rng.Next());
    if (!std::isnan(v) && v != 0.0) raw.push_back(v);
  }
  ExpectSameAsStdSort(raw, "raw bits");
}

TEST(RadixSortTest, AllEqualAndHeavyDuplicatesSkipPasses) {
  ExpectSameAsStdSort(std::vector<double>(5000, 3.25), "all equal");
  ExpectSameAsStdSort(std::vector<double>(5000, -2.5), "all equal negative");

  Rng rng(5);
  const double pool[] = {-1e300, -1.0, 0.5, 2.0, 2.0000000000000004, 1e300};
  std::vector<double> dups(30000);
  for (double& v : dups) v = pool[rng.NextBounded(std::size(pool))];
  ExpectSameAsStdSort(dups, "heavy duplicates");
}

TEST(RadixSortTest, MatchesStdSortOnInfinitiesSubnormalsAndZeros) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 4000; ++i) {
    values.push_back(0.0);
    values.push_back(kTiny * static_cast<double>(rng.NextBounded(1 << 20)));
    values.push_back(-kTiny * static_cast<double>(1 + rng.NextBounded(1000)));
  }
  for (int i = 0; i < 300; ++i) {
    values.push_back(kInf);
    values.push_back(-kInf);
    values.push_back(std::numeric_limits<double>::min());
    values.push_back(std::numeric_limits<double>::max());
  }
  Shuffle(&values, rng);
  ExpectSameAsStdSort(values, "inf/subnormal/+0");
}

TEST(RadixSortTest, MatchesStdSortAroundTheCutoff) {
  Rng rng(13);
  for (size_t n : {size_t{0}, size_t{1}, kRadixSortCutoff - 1,
                   kRadixSortCutoff, kRadixSortCutoff + 1}) {
    std::vector<double> values(n);
    for (double& v : values) v = 100.0 * rng.NextDouble() - 10.0;
    ExpectSameAsStdSort(values, "cutoff");
  }
}

TEST(RadixSortTest, OddPassCountsLandTheResultInScratch) {
  // 1 + i * 2^-52 differs from 1.0 only in the low mantissa bits. With
  // i < 2^11 only the first digit varies (one pass); with i < 2^33 the first
  // three do (three passes). Either way the last pass writes into scratch
  // and the result has to be copied back.
  Rng rng(17);
  std::vector<double> one_pass(3 * 2048);
  for (size_t j = 0; j < one_pass.size(); ++j) {
    one_pass[j] = 1.0 + std::ldexp(static_cast<double>(j % 2048), -52);
  }
  Shuffle(&one_pass, rng);
  ExpectSameAsStdSort(one_pass, "one pass");

  std::vector<double> three_passes(20000);
  for (double& v : three_passes) {
    const uint64_t i = rng.NextBounded(uint64_t{1} << 33);
    v = 1.0 + std::ldexp(static_cast<double>(i), -52);
  }
  ExpectSameAsStdSort(three_passes, "three passes");
}

TEST(RadixSortTest, MixedZerosComeOutSortedAndPermuted) {
  // std::sort may order -0.0 and +0.0 either way, so only order and content
  // are checked here.
  Rng rng(23);
  std::vector<double> values(10000);
  for (double& v : values) {
    switch (rng.NextBounded(4)) {
      case 0: v = -0.0; break;
      case 1: v = 0.0; break;
      default: v = rng.NextDouble() - 0.5; break;
    }
  }
  std::vector<double> sorted = values;
  SortSamples(&sorted);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  std::vector<uint64_t> in = Bits(values), out = Bits(sorted);
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(in, out);
}

}  // namespace
}  // namespace pbs
