// Serial complex FFT used by the FT kernel: iterative radix-2 with cached
// twiddle factors.  Sizes must be powers of two.
//
// The arithmetic is the textbook kernel's, bit for bit: bit-reversal
// permutation, then per stage t = w·b, (a + t, a - t), and a final 1/n
// scale on the inverse.  The complex product is written out on doubles
// (wr·br - wi·bi, wr·bi + wi·br), the same products and sums std::complex
// forms for finite operands, without its NaN recovery path.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ib12x::nas {

using Complex = std::complex<double>;

class Fft {
 public:
  explicit Fft(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place transform of `data` (length size()).  sign = -1 forward,
  /// +1 inverse; the inverse includes the 1/n normalization.
  void transform(Complex* data, int sign) const;

  /// In-place transform of `count` adjacent columns: column c holds
  /// data[c + i*stride], i in [0, size()), and stride >= count.  Each column
  /// gets exactly the bits transform() would give it; the inner loop runs
  /// across columns, so a plane's column FFTs need no gather or scatter.
  void transform_columns(Complex* data, std::size_t count, std::size_t stride, int sign) const;

  /// Flop estimate for one transform of this size (the classic 5·n·log2 n).
  [[nodiscard]] double flops() const;

 private:
  /// Stage-major twiddles for `sign`, as (re, im) pairs (a std::complex
  /// array may be read as double pairs, [complex.numbers]): the stage of
  /// butterfly span 2h starts at pair h - 1 and holds w_k = exp(∓2πi k/2h),
  /// k in [0, h), conjugated ahead of time for the inverse.
  [[nodiscard]] const double* twiddles(int sign) const {
    return reinterpret_cast<const double*>(sign > 0 ? inverse_.data() : forward_.data());
  }

  std::size_t n_;
  int log2n_;
  std::vector<std::size_t> bitrev_;
  std::vector<Complex> forward_;
  std::vector<Complex> inverse_;
};

}  // namespace ib12x::nas
