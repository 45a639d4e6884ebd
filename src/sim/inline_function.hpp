// Small-buffer inline callable for the event kernel.
//
// Every event the simulator processes used to be a heap-allocated
// std::function<void()>; at tens of millions of events per figure bench the
// allocator and the double indirection dominated kernel wall-clock time.
// InlineFunction stores the callable in 48 bytes of in-place storage — no
// heap, ever: a callable that does not fit is a compile error, so the hot
// paths cannot silently regress.  Oversized cold-path captures wrap
// themselves explicitly with sim::boxed(), which moves the capture behind a
// unique_ptr (one visible allocation at the call site).
//
// InlineFunction is move-only (so events can own unique_ptr state) and
// requires nothrow-movable callables (heap sift operations relocate entries).
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ib12x::sim {

class InlineFunction {
 public:
  /// In-place storage size.  48 bytes fits every hot-path event capture
  /// (a few pointers plus a timestamp or a Wc) while keeping a queue entry
  /// within one cache line.
  static constexpr std::size_t kCapacity = 48;
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "event capture exceeds the 48-byte in-place storage — capture pointers "
                  "instead of values, or wrap the callable with sim::boxed()");
    static_assert(alignof(Fn) <= kAlign, "over-aligned event capture");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event callables must be nothrow-movable (queue entries relocate)");
    constexpr bool kTrivial =
        std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;
    // A trivial callable relocates by copying all kCapacity bytes, so the
    // bytes it does not occupy are zeroed rather than left indeterminate.
    if constexpr (kTrivial) std::memset(buf_, 0, kCapacity);
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    if constexpr (kTrivial) {
      manage_ = nullptr;  // relocated by memcpy, destroyed by forgetting
    } else {
      manage_ = [](void* dst, void* src) {
        if (dst != nullptr) ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

 private:
  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (invoke_ != nullptr) {
      if (manage_ != nullptr) {
        manage_(buf_, other.buf_);  // move-construct here, destroy there
      } else {
        std::memcpy(buf_, other.buf_, kCapacity);
      }
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() noexcept {
    if (invoke_ != nullptr && manage_ != nullptr) manage_(nullptr, buf_);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(kAlign) unsigned char buf_[kCapacity];
  void (*invoke_)(void*) = nullptr;
  /// Relocate (dst != null) or destroy (dst == null); null for trivially
  /// copyable callables, which relocate by memcpy with no destructor call.
  void (*manage_)(void*, void*) = nullptr;
};

/// Action run when an event fires.
using Event = InlineFunction;

/// Boxes an oversized callable behind one explicit allocation so it fits the
/// in-place event storage.  Cold paths only: the allocation is the point —
/// it is visible at the call site instead of hidden inside std::function.
template <typename F>
auto boxed(F&& f) {
  using Fn = std::decay_t<F>;
  return [p = std::make_unique<Fn>(std::forward<F>(f))]() { (*p)(); };
}

}  // namespace ib12x::sim
