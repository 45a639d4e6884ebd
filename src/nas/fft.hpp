// Serial complex FFT used by the FT kernel: iterative radix-2 with cached
// twiddle factors.  Sizes must be powers of two.
//
// The arithmetic is the textbook kernel's, bit for bit: bit-reversal
// permutation, then per stage t = w·b, (a + t, a - t), and a final 1/n
// scale on the inverse.  The complex product is written out lane by lane,
// (wr·br - wi·bi, wr·bi + wi·br), the same products and sums std::complex
// forms for finite operands, without its NaN recovery path.
//
// The butterflies come in two widths, built from one kernel source:
//   - Two: one complex point per 2-double vector, on every target (SSE2 on
//     x86-64);
//   - Four: two points per 4-double vector, with AVX2 and without FMA.
// Every lane of either width forms the same two products and the same sum
// or difference of them, each rounded on its own, so both give the bits
// above.  FMA would round a product and a sum once, together, and change
// them; the four-wide kernel is compiled for AVX2 alone so that the compiler
// cannot contract one.  transform() and transform_columns() use Four when
// the host CPU has AVX2, decided on the first call (not during static
// initialisation); the overloads that take a width let tests run both.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ib12x::nas {

using Complex = std::complex<double>;

/// Butterfly vector width in doubles (see the header comment).
enum class FftWidth { Two, Four };

class Fft {
 public:
  explicit Fft(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// The width transform() and transform_columns() use: Four where the host
  /// CPU has AVX2, else Two.  Chosen once, on the first call.
  [[nodiscard]] static FftWidth width();
  /// Whether this host can run `w`: Two always, Four where it has AVX2.
  [[nodiscard]] static bool supports(FftWidth w);

  /// In-place transform of `data` (length size()).  sign = -1 forward,
  /// +1 inverse; the inverse includes the 1/n normalization.
  void transform(Complex* data, int sign) const { transform(data, sign, width()); }
  /// The same with the width given; throws std::invalid_argument when the
  /// host cannot run it.
  void transform(Complex* data, int sign, FftWidth w) const;

  /// In-place transform of `count` adjacent columns: column c holds
  /// data[c + i*stride], i in [0, size()), and stride >= count.  Each column
  /// gets exactly the bits transform() would give it; the inner loop runs
  /// across columns, so a plane's column FFTs need no gather or scatter.
  void transform_columns(Complex* data, std::size_t count, std::size_t stride, int sign) const {
    transform_columns(data, count, stride, sign, width());
  }
  /// The same with the width given, as transform() above.
  void transform_columns(Complex* data, std::size_t count, std::size_t stride, int sign,
                         FftWidth w) const;

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
