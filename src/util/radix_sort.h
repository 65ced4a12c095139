#ifndef PBS_UTIL_RADIX_SORT_H_
#define PBS_UTIL_RADIX_SORT_H_

#include <cstddef>
#include <vector>

namespace pbs {

/// Inputs shorter than this go to std::sort: below it the six histogram
/// scans and the scratch allocation cost more than the comparisons save.
inline constexpr size_t kRadixSortCutoff = 2048;

/// Sorts a column of double samples ascending: the Monte Carlo trial
/// columns, latency pools and traces that every order-statistic query reads.
///
/// An LSD radix sort over order-preserving 64-bit keys (non-negative values
/// flip the sign bit, negative values flip every bit), 11-bit digits over six
/// passes. One pre-pass encodes the keys in place and builds all six
/// histograms; a pass whose digit is the same for every key is skipped. The
/// passes ping-pong between the caller's storage and one n-word scratch
/// buffer that is allocated per call and freed on return, so concurrent
/// calls share nothing.
///
/// Precondition: no NaN (the same as util/small_sort.h). For such input the
/// result is bitwise identical to std::sort's unless it holds both +0.0 and
/// -0.0: keys that compare equal then have equal bits, so there is only one
/// sorted sequence. Mixed zeros come out -0.0 first, an order std::sort
/// leaves unspecified.
void SortSamples(std::vector<double>* samples);

}  // namespace pbs

#endif  // PBS_UTIL_RADIX_SORT_H_
