#include "nas/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ib12x::nas {

namespace {

// One radix-2 butterfly on (re, im) pairs a and b with twiddle (wr, wi):
// t = w·b, a ← a + t, b ← a - t.
inline void butterfly(double* a, double* b, double wr, double wi) {
  const double br = b[0], bi = b[1];
  const double tr = wr * br - wi * bi;
  const double ti = wr * bi + wi * br;
  const double ar = a[0], ai = a[1];
  a[0] = ar + tr;
  a[1] = ai + ti;
  b[0] = ar - tr;
  b[1] = ai - ti;
}

}  // namespace

Fft::Fft(std::size_t n) : n_(n) {
  if (n == 0 || (n & (n - 1)) != 0) throw std::invalid_argument("Fft: size must be a power of 2");
  log2n_ = 0;
  while ((1u << log2n_) < n) ++log2n_;

  bitrev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < log2n_; ++b) {
      if (i & (1u << b)) r |= 1u << (log2n_ - 1 - b);
    }
    bitrev_[i] = r;
  }

  // exp(-2πi k / n), k in [0, n/2); the stage of span 2h reads every
  // (n/2h)-th of them.
  std::vector<Complex> roots(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    roots[k] = Complex(std::cos(ang), std::sin(ang));
  }
  for (std::size_t half = 1; half < n; half <<= 1) {
    const std::size_t step = n / (2 * half);
    for (std::size_t k = 0; k < half; ++k) {
      forward_.push_back(roots[k * step]);
      inverse_.push_back(std::conj(roots[k * step]));
    }
  }
}

void Fft::transform(Complex* data, int sign) const {
  const std::size_t n = n_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  double* d = reinterpret_cast<double*>(data);
  for (std::size_t half = 1; half < n; half <<= 1) {
    const double* w = twiddles(sign) + 2 * (half - 1);
    for (std::size_t base = 0; base < n; base += 2 * half) {
      double* a = d + 2 * base;
      double* b = a + 2 * half;
      for (std::size_t k = 0; k < half; ++k) butterfly(a + 2 * k, b + 2 * k, w[2 * k], w[2 * k + 1]);
    }
  }
  if (sign > 0) {
    const double inv = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) d[i] *= inv;
  }
}

void Fft::transform_columns(Complex* data, std::size_t count, std::size_t stride, int sign) const {
  if (count > stride) throw std::invalid_argument("Fft::transform_columns: count exceeds stride");
  const std::size_t n = n_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap_ranges(data + i * stride, data + i * stride + count, data + j * stride);
  }
  double* d = reinterpret_cast<double*>(data);
  const std::size_t row = 2 * stride;  // doubles from one row to the next
  const std::size_t cols = 2 * count;  // doubles a row holds of the batch
  for (std::size_t half = 1; half < n; half <<= 1) {
    const double* w = twiddles(sign) + 2 * (half - 1);
    for (std::size_t base = 0; base < n; base += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[2 * k], wi = w[2 * k + 1];
        double* a = d + (base + k) * row;
        double* b = a + half * row;
        for (std::size_t c = 0; c < cols; c += 2) butterfly(a + c, b + c, wr, wi);
      }
    }
  }
  if (sign > 0) {
    const double inv = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < cols; ++c) d[i * row + c] *= inv;
    }
  }
}

double Fft::flops() const {
  return 5.0 * static_cast<double>(n_) * log2n_;
}

}  // namespace ib12x::nas
