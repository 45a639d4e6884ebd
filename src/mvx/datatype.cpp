#include "mvx/datatype.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

namespace ib12x::mvx {

namespace {

/// The type Sum and Prod compute in: integers wrap modulo 2^N as MPI
/// implementations do, which signed arithmetic would make undefined.  The
/// conversion back to T is modular, so results are bit-identical to a
/// two's-complement wrap.
template <typename T>
using WrapT = typename std::conditional_t<std::is_integral_v<T>, std::make_unsigned<T>,
                                          std::type_identity<T>>::type;

template <typename T>
void apply_arith(Op op, T* inout, const T* in, std::size_t n) {
  using W = WrapT<T>;
  switch (op) {
    case Op::Sum:
      for (std::size_t i = 0; i < n; ++i) {
        inout[i] = static_cast<T>(static_cast<W>(inout[i]) + static_cast<W>(in[i]));
      }
      return;
    case Op::Prod:
      for (std::size_t i = 0; i < n; ++i) {
        inout[i] = static_cast<T>(static_cast<W>(inout[i]) * static_cast<W>(in[i]));
      }
      return;
    case Op::Max:
      for (std::size_t i = 0; i < n; ++i) inout[i] = std::max(inout[i], in[i]);
      return;
    case Op::Min:
      for (std::size_t i = 0; i < n; ++i) inout[i] = std::min(inout[i], in[i]);
      return;
    default:
      throw std::invalid_argument("reduce_apply: bitwise op on arithmetic type");
  }
}

template <typename T>
void apply_bits(Op op, T* inout, const T* in, std::size_t n) {
  switch (op) {
    case Op::Band:
      for (std::size_t i = 0; i < n; ++i) inout[i] = static_cast<T>(inout[i] & in[i]);
      return;
    case Op::Bor:
      for (std::size_t i = 0; i < n; ++i) inout[i] = static_cast<T>(inout[i] | in[i]);
      return;
    default:
      apply_arith(op, inout, in, n);
      return;
  }
}

void apply_complex(Op op, std::complex<double>* inout, const std::complex<double>* in,
                   std::size_t n) {
  switch (op) {
    case Op::Sum:
      for (std::size_t i = 0; i < n; ++i) inout[i] += in[i];
      return;
    case Op::Prod:
      for (std::size_t i = 0; i < n; ++i) inout[i] *= in[i];
      return;
    default:
      throw std::invalid_argument("reduce_apply: unsupported op for complex");
  }
}

}  // namespace

void reduce_apply(Op op, Datatype dt, void* inout, const void* in, std::size_t count) {
  switch (dt.id) {
    case TypeId::Byte:
      apply_bits(op, static_cast<std::uint8_t*>(inout), static_cast<const std::uint8_t*>(in), count);
      return;
    case TypeId::Int32:
      apply_bits(op, static_cast<std::int32_t*>(inout), static_cast<const std::int32_t*>(in), count);
      return;
    case TypeId::Int64:
      apply_bits(op, static_cast<std::int64_t*>(inout), static_cast<const std::int64_t*>(in), count);
      return;
    case TypeId::Double:
      apply_arith(op, static_cast<double*>(inout), static_cast<const double*>(in), count);
      return;
    case TypeId::Complex:
      apply_complex(op, static_cast<std::complex<double>*>(inout),
                    static_cast<const std::complex<double>*>(in), count);
      return;
  }
  throw std::invalid_argument("reduce_apply: unknown datatype");
}

}  // namespace ib12x::mvx
