#ifndef PBS_UTIL_FFT_H_
#define PBS_UTIL_FFT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbs {

/// A planned real-input FFT of one power-of-two length m, for linear
/// convolutions and correlations of non-negative real sequences.
///
/// A real length-m transform runs as one complex transform of length m/2
/// (even samples in the real part, odd in the imaginary part) plus an O(m)
/// split pass; the real-output inverse is the same trick backwards. The
/// complex transform is an iterative radix-2 Cooley-Tukey on split
/// real/imaginary arrays whose per-stage twiddles are contiguous slices of a
/// table of exact cos/sin values (no incremental twiddle products, so the
/// rounding does not accumulate across a stage). A plan is immutable after
/// construction: one plan and one Spectrum per distinct input serve any
/// number of products, from any number of threads.
class RealFft {
 public:
  /// Half spectrum X[0..m/2] of a real sequence zero-padded to m.
  struct Spectrum {
    std::vector<double> re;
    std::vector<double> im;
  };

  /// Plans the smallest power-of-two length m >= max(min_length, 16).
  explicit RealFft(std::size_t min_length);

  /// Forward transform of `x` (x.size() <= m), zero-padded.
  Spectrum Forward(const std::vector<double>& x) const;

  /// The first `out_size` (<= m) values of the circular inverse of
  /// a .* b, or of conj(a) .* b when `conjugate_a` is set. With a and b the
  /// spectra of sequences u and v this is the linear convolution
  /// sum_j u[j] v[k - j] (resp. the correlation sum_j u[j] v[k + j]) as
  /// long as the length covers it without wrap-around.
  std::vector<double> InverseProduct(const Spectrum& a, const Spectrum& b,
                                     bool conjugate_a,
                                     std::size_t out_size) const;

 private:
  std::size_t half_ = 0;               // n = m/2, the complex length
  std::vector<double> twiddle_re_;     // stage h's twiddles at [h, 2h)
  std::vector<double> twiddle_im_;
  std::vector<std::uint32_t> bitrev_;  // bit-reversal permutation of n
};

/// Linear convolution of two non-negative real sequences,
/// out[k] = sum_j a[j] * b[k - j], length a.size() + b.size() - 1.
///
/// Large inputs go through RealFft (O(m log m) at the padded power-of-two
/// size m); small ones use the direct O(|a|*|b|) loop, which is both faster
/// at that scale and exact. FFT results carry rounding noise of order
/// 1e-15 * sum(a) * sum(b) per coefficient and may dip microscopically
/// negative; callers convolving probability masses should clamp at zero
/// (DiscretizedDistribution renormalizes after clamping).
std::vector<double> ConvolveReal(const std::vector<double>& a,
                                 const std::vector<double>& b);

/// The crossover above which ConvolveReal switches to the FFT path, as a
/// bound on |a| * |b|. Exposed so tests can pin both paths explicitly.
inline constexpr std::size_t kFftConvolutionThreshold = std::size_t{1} << 18;

/// Direct-path convolution regardless of size (test/reference use).
std::vector<double> ConvolveRealDirect(const std::vector<double>& a,
                                       const std::vector<double>& b);

/// FFT-path convolution regardless of size (test use).
std::vector<double> ConvolveRealFft(const std::vector<double>& a,
                                    const std::vector<double>& b);

}  // namespace pbs

#endif  // PBS_UTIL_FFT_H_
