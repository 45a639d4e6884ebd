#include "nas/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#define IB12X_FFT_AVX2 1
#endif

namespace ib12x::nas {

namespace {

// The kernels below are templates over the vector type V; each V holds
// kPoints<V> complex points as (re, im) lane pairs.  Helpers take vectors by
// reference only, so no vector crosses a call boundary under the ABI of a
// target that lacks it: every helper is inlined into its kernel, and each
// kernel's width is compiled for the target of the function that calls it.
typedef double v2d __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));

template <typename V>
constexpr std::size_t kPoints = sizeof(V) / (2 * sizeof(double));

// A twiddle w = (wr, wi) per point as two vectors, re = (wr, wr) and
// im = (-wi, wi) in each lane pair.  The butterfly forms
//   t = re·b + im·(bi, br) = (wr·br - wi·bi, wr·bi + wi·br)
// lane by lane, since x + (-y) is x - y exactly: the products and sums the
// scalar kernel forms, at any width.

/// The twiddles of kPoints<V> consecutive k, from their (wr, wi) pairs at w.
template <typename V>
[[gnu::always_inline]] inline void twiddle_run(const double* w, V& re, V& im) {
  V v;
  __builtin_memcpy(&v, w, sizeof(V));
  const V neg = -v;
  if constexpr (kPoints<V> == 1) {
    re = __builtin_shufflevector(v, v, 0, 0);
    im = __builtin_shufflevector(neg, v, 1, 3);
  } else {
    re = __builtin_shufflevector(v, v, 0, 0, 2, 2);
    im = __builtin_shufflevector(neg, v, 1, 5, 3, 7);
  }
}

/// One twiddle (wr, wi) for every point.
template <typename V>
[[gnu::always_inline]] inline void twiddle_all(double wr, double wi, V& re, V& im) {
  if constexpr (kPoints<V> == 1) {
    re = V{wr, wr};
    im = V{-wi, wi};
  } else {
    re = V{wr, wr, wr, wr};
    im = V{-wi, wi, -wi, wi};
  }
}

/// Radix-2 butterflies on the kPoints<V> points at a and at b: t = w·b,
/// a ← a + t, b ← a - t.
template <typename V>
[[gnu::always_inline]] inline void butterfly(double* a, double* b, const V& re, const V& im) {
  V av, bv, swapped;
  __builtin_memcpy(&bv, b, sizeof(V));
  if constexpr (kPoints<V> == 1) {
    swapped = __builtin_shufflevector(bv, bv, 1, 0);
  } else {
    swapped = __builtin_shufflevector(bv, bv, 1, 0, 3, 2);
  }
  const V t = re * bv + im * swapped;
  __builtin_memcpy(&av, a, sizeof(V));
  const V sum = av + t, diff = av - t;
  __builtin_memcpy(a, &sum, sizeof(V));
  __builtin_memcpy(b, &diff, sizeof(V));
}

// Below this span a stage loops twiddle-outer, so that its inner loop runs
// over the n/2h groups instead of the few twiddles of one group.
constexpr std::size_t kTwiddleOuterBelow = 8;

/// One stage of span 2·half, twiddle-outer; half is a multiple of kPoints<V>.
template <typename V>
[[gnu::always_inline]] inline void stage_twiddle_outer(double* d, std::size_t n, std::size_t half,
                                                        const double* w) {
  for (std::size_t k = 0; k < half; k += kPoints<V>) {
    V re, im;
    twiddle_run(w + 2 * k, re, im);
    for (std::size_t base = 0; base < n; base += 2 * half) {
      double* a = d + 2 * (base + k);
      butterfly(a, a + 2 * half, re, im);
    }
  }
}

/// The inverse's 1/n scale of `count` doubles every `row` doubles, `rows`
/// times.
[[gnu::always_inline]] inline void scale(double* d, std::size_t rows, std::size_t row,
                                         std::size_t count, std::size_t n) {
  const double inv = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < count; ++c) d[i * row + c] *= inv;
  }
}

template <typename V>
[[gnu::always_inline]] inline void transform_kernel(Complex* data, std::size_t n,
                                                    const std::size_t* bitrev, const double* tw,
                                                    int sign) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  double* d = reinterpret_cast<double*>(data);
  for (std::size_t half = 1; half < n; half <<= 1) {
    const double* w = tw + 2 * (half - 1);
    if (half < kPoints<V>) {
      // A group's halves are narrower than V: take them one point at a time.
      stage_twiddle_outer<v2d>(d, n, half, w);
    } else if (half < kTwiddleOuterBelow) {
      stage_twiddle_outer<V>(d, n, half, w);
    } else {
      for (std::size_t base = 0; base < n; base += 2 * half) {
        double* a = d + 2 * base;
        double* b = a + 2 * half;
        for (std::size_t k = 0; k < half; k += kPoints<V>) {
          V re, im;
          twiddle_run(w + 2 * k, re, im);
          butterfly(a + 2 * k, b + 2 * k, re, im);
        }
      }
    }
  }
  if (sign > 0) scale(d, 1, 0, 2 * n, n);
}

template <typename V>
[[gnu::always_inline]] inline void columns_kernel(Complex* data, std::size_t n,
                                                  const std::size_t* bitrev, const double* tw,
                                                  std::size_t count, std::size_t stride,
                                                  int sign) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) std::swap_ranges(data + i * stride, data + i * stride + count, data + j * stride);
  }
  double* d = reinterpret_cast<double*>(data);
  const std::size_t row = 2 * stride;  // doubles from one row to the next
  const std::size_t cols = 2 * count;  // doubles a row holds of the batch
  constexpr std::size_t lanes = 2 * kPoints<V>;
  for (std::size_t half = 1; half < n; half <<= 1) {
    const double* w = tw + 2 * (half - 1);
    for (std::size_t base = 0; base < n; base += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        V re, im;
        twiddle_all(w[2 * k], w[2 * k + 1], re, im);
        double* a = d + (base + k) * row;
        double* b = a + half * row;
        std::size_t c = 0;
        for (; c + lanes <= cols; c += lanes) butterfly(a + c, b + c, re, im);
        if constexpr (lanes > 2) {
          if (c < cols) {  // an odd count's last column
            v2d re2, im2;
            twiddle_all(w[2 * k], w[2 * k + 1], re2, im2);
            butterfly(a + c, b + c, re2, im2);
          }
        }
      }
    }
  }
  if (sign > 0) scale(d, n, row, cols, n);
}

void transform_two(Complex* data, std::size_t n, const std::size_t* bitrev, const double* tw,
                   int sign) {
  transform_kernel<v2d>(data, n, bitrev, tw, sign);
}

void columns_two(Complex* data, std::size_t n, const std::size_t* bitrev, const double* tw,
                 std::size_t count, std::size_t stride, int sign) {
  columns_kernel<v2d>(data, n, bitrev, tw, count, stride, sign);
}

#ifdef IB12X_FFT_AVX2
// AVX2 without FMA: see fft.hpp for why FMA stays off.
[[gnu::target("avx2")]] void transform_four(Complex* data, std::size_t n,
                                             const std::size_t* bitrev, const double* tw,
                                             int sign) {
  transform_kernel<v4d>(data, n, bitrev, tw, sign);
}

[[gnu::target("avx2")]] void columns_four(Complex* data, std::size_t n,
                                           const std::size_t* bitrev, const double* tw,
                                           std::size_t count, std::size_t stride, int sign) {
  columns_kernel<v4d>(data, n, bitrev, tw, count, stride, sign);
}
#endif

bool host_has_avx2() {
#ifdef IB12X_FFT_AVX2
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

void require(FftWidth w) {
  if (!Fft::supports(w)) throw std::invalid_argument("Fft: this host has no AVX2 for FftWidth::Four");
}

}  // namespace

FftWidth Fft::width() { return host_has_avx2() ? FftWidth::Four : FftWidth::Two; }

bool Fft::supports(FftWidth w) { return w == FftWidth::Two || host_has_avx2(); }

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

void Fft::transform(Complex* data, int sign, FftWidth w) const {
  require(w);
#ifdef IB12X_FFT_AVX2
  if (w == FftWidth::Four) return transform_four(data, n_, bitrev_.data(), twiddles(sign), sign);
#endif
  transform_two(data, n_, bitrev_.data(), twiddles(sign), sign);
}

void Fft::transform_columns(Complex* data, std::size_t count, std::size_t stride, int sign,
                            FftWidth w) const {
  if (count > stride) throw std::invalid_argument("Fft::transform_columns: count exceeds stride");
  require(w);
#ifdef IB12X_FFT_AVX2
  if (w == FftWidth::Four) {
    return columns_four(data, n_, bitrev_.data(), twiddles(sign), count, stride, sign);
  }
#endif
  columns_two(data, n_, bitrev_.data(), twiddles(sign), count, stride, sign);
}

double Fft::flops() const {
  return 5.0 * static_cast<double>(n_) * log2n_;
}

}  // namespace ib12x::nas
