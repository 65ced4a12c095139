#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/radix_sort.h"

namespace pbs {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  return count_ ? mean_ : std::numeric_limits<double>::quiet_NaN();
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double RunningStats::max() const {
  return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

std::vector<double> Quantiles(std::vector<double> samples,
                              const std::vector<double>& qs) {
  SortSamples(&samples);
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) out.push_back(QuantileSorted(samples, q));
  return out;
}

double EcdfSorted(const std::vector<double>& sorted, double x) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

double Rmse(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

double NormalizedRmse(const std::vector<double>& reference,
                      const std::vector<double>& estimate) {
  const double rmse = Rmse(reference, estimate);
  if (reference.empty()) return rmse;
  const auto [lo, hi] =
      std::minmax_element(reference.begin(), reference.end());
  const double range = *hi - *lo;
  if (range <= 0.0) return rmse;
  return rmse / range;
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  assert(hi > lo);
  assert(bins > 0);
}

void Histogram::Add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const size_t idx = static_cast<size_t>((x - lo_) / width_);
  ++counts_[std::min(idx, counts_.size() - 1)];
}

double Histogram::bin_lo(size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::CdfAt(double x) const {
  if (total_ == 0) return 0.0;
  if (x < lo_) return 0.0;
  size_t below = underflow_;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (x >= bin_hi(i)) {
      below += counts_[i];
      continue;
    }
    // Partial bin: interpolate.
    const double frac = (x - bin_lo(i)) / width_;
    return (static_cast<double>(below) +
            frac * static_cast<double>(counts_[i])) /
           static_cast<double>(total_);
  }
  below += overflow_;
  return static_cast<double>(below) / static_cast<double>(total_);
}

std::string FormatDouble(double x, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, x);
  return buf;
}

namespace {

// Inverse standard-normal CDF (Acklam's rational approximation; the
// richer Distribution-facing copy lives in dist/distribution.cc, but util
// cannot depend on dist).
double Probit(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  assert(p > 0.0 && p < 1.0);
  if (p < 0.02425) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - 0.02425) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

ProportionInterval WilsonInterval(int64_t successes, int64_t trials,
                                  double confidence) {
  assert(trials >= 1);
  assert(successes >= 0 && successes <= trials);
  assert(confidence > 0.0 && confidence < 1.0);
  const double z = Probit(0.5 + confidence / 2.0);
  const double n = static_cast<double>(trials);
  const double p_hat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denominator = 1.0 + z2 / n;
  const double center = (p_hat + z2 / (2.0 * n)) / denominator;
  const double margin =
      z * std::sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)) /
      denominator;
  ProportionInterval interval;
  interval.lower = std::max(0.0, center - margin);
  interval.upper = std::min(1.0, center + margin);
  return interval;
}

}  // namespace pbs
