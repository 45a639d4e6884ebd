// FIFO queue on a power-of-two ring that allocates nothing until the first
// push.  std::deque allocates its map and a first 512-byte block on
// construction, which a simulator holding one queue per QP and per peer pays
// tens of thousands of times for queues that mostly stay empty.  Storage
// grows by doubling and is kept across drains, so a warmed-up queue pushes
// and pops allocation-free.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace ib12x::sim {

template <typename T>
class Fifo {
 public:
  Fifo() = default;
  Fifo(const Fifo&) = default;
  Fifo& operator=(const Fifo&) = default;
  // A moved-from queue is empty (the defaults would keep its count).
  Fifo(Fifo&& other) noexcept { swap(other); }
  Fifo& operator=(Fifo&& other) noexcept {
    Fifo(std::move(other)).swap(*this);
    return *this;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Oldest element; precondition: !empty().
  [[nodiscard]] T& front() { return ring_[head_]; }
  [[nodiscard]] const T& front() const { return ring_[head_]; }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) & (ring_.size() - 1)] = T(std::forward<Args>(args)...);
    ++count_;
  }
  void push_back(T v) { emplace_back(std::move(v)); }

  /// Drops the oldest element (its slot is reset, releasing what it owns).
  void pop_front() {
    ring_[head_] = T{};
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }

  void swap(Fifo& other) noexcept {
    ring_.swap(other.ring_);
    std::swap(head_, other.head_);
    std::swap(count_, other.count_);
  }

 private:
  void grow() {
    const std::size_t cap = ring_.empty() ? 4 : ring_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ib12x::sim
