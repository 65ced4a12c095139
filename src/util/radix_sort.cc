#include "util/radix_sort.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

namespace pbs {
namespace {

constexpr int kDigitBits = 11;
constexpr int kPasses = 6;  // ceil(64 / 11); the last digit is 9 bits wide.
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr uint64_t kDigitMask = kBuckets - 1;
constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Keys live in double storage (the caller's vector and the scratch buffer),
// so every access copies the bits instead of aliasing them.
inline uint64_t LoadBits(const double* p) {
  uint64_t bits = 0;
  std::memcpy(&bits, p, sizeof bits);
  return bits;
}

inline void StoreBits(double* p, uint64_t bits) {
  std::memcpy(p, &bits, sizeof bits);
}

// Unsigned order of the key is the numeric order of the double: a
// non-negative value ranks above every negative one, and among negatives a
// larger magnitude ranks lower.
inline uint64_t ToKey(uint64_t bits) {
  return bits ^ ((0 - (bits >> 63)) | kSignBit);
}

inline uint64_t FromKey(uint64_t key) {
  return key ^ (((key >> 63) - 1) | kSignBit);
}

inline size_t Digit(uint64_t key, int pass) {
  return static_cast<size_t>((key >> (pass * kDigitBits)) & kDigitMask);
}

// One counting-sort pass by `pass`'s digit; the last pass decodes as it goes.
template <bool kDecode>
void Scatter(const double* src, double* dst, size_t n, int pass,
             uint32_t* offset) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = LoadBits(src + i);
    StoreBits(dst + offset[Digit(key, pass)]++, kDecode ? FromKey(key) : key);
  }
}

}  // namespace

void SortSamples(std::vector<double>* samples) {
  const size_t n = samples->size();
  // 32-bit counts keep the six histograms at 48 KB.
  if (n < kRadixSortCutoff || n > std::numeric_limits<uint32_t>::max()) {
    std::sort(samples->begin(), samples->end());
    return;
  }
  double* data = samples->data();
  std::array<std::array<uint32_t, kBuckets>, kPasses> counts{};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = ToKey(LoadBits(data + i));
    StoreBits(data + i, key);
    for (int pass = 0; pass < kPasses; ++pass) ++counts[pass][Digit(key, pass)];
  }

  // A digit every key shares (one bucket holds all n) leaves the order as it
  // is, so its pass is skipped.
  std::array<bool, kPasses> active{};
  int last = -1;
  for (int pass = 0; pass < kPasses; ++pass) {
    active[pass] = counts[pass][Digit(LoadBits(data), pass)] != n;
    if (active[pass]) last = pass;
  }
  if (last < 0) {  // Every key is equal.
    for (size_t i = 0; i < n; ++i) {
      StoreBits(data + i, FromKey(LoadBits(data + i)));
    }
    return;
  }

  const auto scratch = std::make_unique_for_overwrite<double[]>(n);
  double* src = data;
  double* dst = scratch.get();
  for (int pass = 0; pass <= last; ++pass) {
    if (!active[pass]) continue;
    uint32_t* offset = counts[pass].data();
    uint32_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) sum += std::exchange(offset[b], sum);
    if (pass == last) {
      Scatter<true>(src, dst, n, pass, offset);
    } else {
      Scatter<false>(src, dst, n, pass, offset);
    }
    std::swap(src, dst);
  }
  // An odd number of passes leaves the result in scratch.
  if (src != data) std::memcpy(data, src, n * sizeof(double));
}

}  // namespace pbs
