#include "util/fft.h"

#include <cassert>
#include <cmath>

namespace pbs {

namespace {

/// One radix-2 span: (a, b) <- (a + w b, a - w b) elementwise over h
/// entries. Restrict-qualified parameters let the loop vectorize.
void Span(double* __restrict ar, double* __restrict ai,
          double* __restrict br, double* __restrict bi,
          const double* __restrict wr, const double* __restrict wi,
          std::size_t h) {
  for (std::size_t j = 0; j < h; ++j) {
    const double tr = br[j] * wr[j] - bi[j] * wi[j];
    const double ti = br[j] * wi[j] + bi[j] * wr[j];
    br[j] = ar[j] - tr;
    bi[j] = ai[j] - ti;
    ar[j] += tr;
    ai[j] += ti;
  }
}

/// In-place forward DFT of the length-n complex sequence (re, im), whose
/// input is already in bit-reversed order; n is a power of two >= 4. The
/// inverse transform is the same call with re and im swapped (up to the 1/n
/// scale): swap(DFT(swap(z))) = n * IDFT(z).
void Butterflies(double* re, double* im, std::size_t n,
                 const double* twiddle_re, const double* twiddle_im) {
  // Stages h = 1 and h = 2 fused: their twiddles are 1 and -i.
  for (std::size_t i = 0; i < n; i += 4) {
    const double r0 = re[i] + re[i + 1], i0 = im[i] + im[i + 1];
    const double r1 = re[i] - re[i + 1], i1 = im[i] - im[i + 1];
    const double r2 = re[i + 2] + re[i + 3], i2 = im[i + 2] + im[i + 3];
    const double r3 = re[i + 2] - re[i + 3], i3 = im[i + 2] - im[i + 3];
    re[i] = r0 + r2;
    im[i] = i0 + i2;
    re[i + 2] = r0 - r2;
    im[i + 2] = i0 - i2;
    // (r3 + i*i3) * -i = i3 - i*r3.
    re[i + 1] = r1 + i3;
    im[i + 1] = i1 - r3;
    re[i + 3] = r1 - i3;
    im[i + 3] = i1 + r3;
  }
  for (std::size_t h = 4; h < n; h <<= 1) {
    for (std::size_t i = 0; i < n; i += 2 * h) {
      Span(re + i, im + i, re + i + h, im + i + h, twiddle_re + h,
           twiddle_im + h, h);
    }
  }
}

}  // namespace

RealFft::RealFft(std::size_t min_length) {
  std::size_t m = 16;
  while (m < min_length) m <<= 1;
  const std::size_t n = m / 2;
  half_ = n;

  // Twiddles, contiguous per stage: [h, 2h) holds e^{-pi i j / h} for
  // j < h. The butterflies read stages h = 4 .. n/2 (1 and 2 are fused);
  // "stage" n is W^k = e^{-2 pi i k / m}, the real split/merge roots, from
  // exact cos/sin on the first octant k <= m/8 mirrored onto (m/8, m/4]
  // and (m/4, m/2). Stage h's entry j is W^(j n / h).
  twiddle_re_.assign(2 * n, 0.0);
  twiddle_im_.assign(2 * n, 0.0);
  double* root_re = twiddle_re_.data() + n;
  double* root_im = twiddle_im_.data() + n;
  const double unit = 2.0 * M_PI / static_cast<double>(m);
  const std::size_t octant = m / 8, quarter = m / 4;
  for (std::size_t k = 0; k <= octant; ++k) {
    const double angle = unit * static_cast<double>(k);
    root_re[k] = std::cos(angle);
    root_im[k] = -std::sin(angle);
  }
  for (std::size_t k = octant + 1; k <= quarter; ++k) {
    root_re[k] = -root_im[quarter - k];
    root_im[k] = -root_re[quarter - k];
  }
  for (std::size_t k = quarter + 1; k < n; ++k) {
    root_re[k] = -root_re[n - k];
    root_im[k] = root_im[n - k];
  }
  for (std::size_t h = 4; h < n; h <<= 1) {
    const std::size_t stride = n / h;
    for (std::size_t j = 0; j < h; ++j) {
      twiddle_re_[h + j] = root_re[j * stride];
      twiddle_im_[h + j] = root_im[j * stride];
    }
  }

  int bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  bitrev_.assign(n, 0);
  for (std::size_t k = 1; k < n; ++k) {
    bitrev_[k] = (bitrev_[k >> 1] >> 1) |
                 static_cast<std::uint32_t>((k & 1) << (bits - 1));
  }
}

RealFft::Spectrum RealFft::Forward(const std::vector<double>& x) const {
  const std::size_t n = half_;
  assert(x.size() <= 2 * n);
  // z[k] = x[2k] + i x[2k+1], stored bit-reversed; Z = DFT_n(z).
  Spectrum out;
  out.re.assign(n + 1, 0.0);
  out.im.assign(n + 1, 0.0);
  double* re = out.re.data();
  double* im = out.im.data();
  const std::size_t len = x.size();
  for (std::size_t k = 0; 2 * k < len; ++k) {
    re[bitrev_[k]] = x[2 * k];
    if (2 * k + 1 < len) im[bitrev_[k]] = x[2 * k + 1];
  }
  Butterflies(re, im, n, twiddle_re_.data(), twiddle_im_.data());

  // Split: with E = (Z[k] + conj Z[n-k]) / 2 and O = (Z[k] - conj Z[n-k])
  // / 2i the even/odd half spectra, X[k] = E + W^k O and X[n-k] =
  // conj(E - W^k O), W = e^{-2 pi i / m}. Pairs (k, n-k) update in place.
  const double z0r = re[0], z0i = im[0];
  re[0] = z0r + z0i;
  im[0] = 0.0;
  re[n] = z0r - z0i;
  im[n] = 0.0;
  for (std::size_t k = 1; k <= n / 2; ++k) {
    const std::size_t kk = n - k;
    const double ar = re[k], ai = im[k], br = re[kk], bi = im[kk];
    const double er = 0.5 * (ar + br), ei = 0.5 * (ai - bi);
    const double orr = 0.5 * (ai + bi), oi = -0.5 * (ar - br);
    const double wr = twiddle_re_[n + k], wi = twiddle_im_[n + k];
    const double pr = wr * orr - wi * oi, pi = wr * oi + wi * orr;
    re[k] = er + pr;
    im[k] = ei + pi;
    if (kk != k) {
      re[kk] = er - pr;
      im[kk] = pi - ei;
    }
  }
  return out;
}

std::vector<double> RealFft::InverseProduct(const Spectrum& a,
                                            const Spectrum& b,
                                            bool conjugate_a,
                                            std::size_t out_size) const {
  const std::size_t n = half_;
  assert(a.re.size() == n + 1 && b.re.size() == n + 1);
  assert(out_size <= 2 * n);
  const double sign = conjugate_a ? -1.0 : 1.0;
  const auto product = [&](std::size_t k, double* pr, double* pi) {
    const double ar = a.re[k], ai = sign * a.im[k];
    *pr = ar * b.re[k] - ai * b.im[k];
    *pi = ar * b.im[k] + ai * b.re[k];
  };
  // Merge: with P the product, E' = (P[k] + conj P[n-k]) / 2 and O' =
  // (P[k] - conj P[n-k]) conj(W^k) / 2 the even/odd half spectra of the
  // output, Z'[k] = E' + i O' and Z'[n-k] = conj E' + i conj O'. The
  // inverse's 1/n folds into the halving (both powers of two, so exact).
  // Z' is written bit-reversed, transformed, and read back as
  // out[2k] + i out[2k+1] = z'[k].
  const double scale = 0.5 / static_cast<double>(n);
  std::vector<double> re(n), im(n);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const std::size_t kk = n - k;
    double pr = 0.0, pi = 0.0, qr = 0.0, qi = 0.0;
    product(k, &pr, &pi);
    product(kk, &qr, &qi);
    const double er = scale * (pr + qr), ei = scale * (pi - qi);
    const double dr = scale * (pr - qr), di = scale * (pi + qi);
    const double wr = twiddle_re_[n + k], wi = -twiddle_im_[n + k];
    const double orr = dr * wr - di * wi, oi = dr * wi + di * wr;
    // Stored swapped (real part in `im`), so the forward butterflies run
    // the inverse transform.
    im[bitrev_[k]] = er - oi;
    re[bitrev_[k]] = ei + orr;
    if (k != 0 && kk != k) {
      im[bitrev_[kk]] = er + oi;
      re[bitrev_[kk]] = orr - ei;
    }
  }
  Butterflies(re.data(), im.data(), n, twiddle_re_.data(),
              twiddle_im_.data());
  std::vector<double> out(out_size);
  for (std::size_t k = 0; 2 * k < out_size; ++k) {
    out[2 * k] = im[k];
    if (2 * k + 1 < out_size) out[2 * k + 1] = re[k];
  }
  return out;
}

std::vector<double> ConvolveRealDirect(const std::vector<double>& a,
                                       const std::vector<double>& b) {
  assert(!a.empty() && !b.empty());
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0.0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

std::vector<double> ConvolveRealFft(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  assert(!a.empty() && !b.empty());
  const std::size_t out_size = a.size() + b.size() - 1;
  const RealFft fft(out_size);
  return fft.InverseProduct(fft.Forward(a), fft.Forward(b),
                            /*conjugate_a=*/false, out_size);
}

std::vector<double> ConvolveReal(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  assert(!a.empty() && !b.empty());
  if (a.size() * b.size() < kFftConvolutionThreshold) {
    return ConvolveRealDirect(a, b);
  }
  return ConvolveRealFft(a, b);
}

}  // namespace pbs
