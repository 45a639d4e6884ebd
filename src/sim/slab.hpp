// Recycled parking space for event state that does not fit an event's
// 48-byte in-place capture (sim/inline_function.hpp).
//
// A hot path whose event needs, say, a whole MsgHeader parks the state with
// put() and captures only the returned slot id; the event moves it back out
// with take(), which frees the slot.  Slots are reused LIFO, so a warmed-up
// slab performs no allocation per event, unlike sim::boxed, which allocates
// once per event and is meant for cold paths.  Single-threaded, like the
// rest of the model.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace ib12x::sim {

template <typename T>
class Slab {
 public:
  /// Parks `value` and returns the slot id an event captures.
  std::uint32_t put(T value) {
    if (free_.empty()) {
      items_.push_back(std::move(value));
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    items_[slot] = std::move(value);
    return slot;
  }

  /// Moves the value parked in `slot` out and frees the slot.
  T take(std::uint32_t slot) {
    T value = std::move(items_[slot]);
    free_.push_back(slot);
    return value;
  }

  /// Values parked and not yet taken.
  [[nodiscard]] std::size_t parked() const { return items_.size() - free_.size(); }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

}  // namespace ib12x::sim
