// Host copies of message payloads, owned by the model.
//
// Every eager payload the model copies is a Payload made by Payload::copy:
// the shm segment copy, the net channel's receive copies (held by the
// matcher's reorder park and unexpected queue), and a communicator's self
// queue.  A Payload handle owns one copy; the copy is released when the
// handle dies, which is where the payload is consumed (copied into the
// matched receive buffer, read by the rendezvous accept, or dropped as a
// duplicate).
//
// Copies of BlockPool::kMinBytes and up live in blocks of the process's
// BlockPool (block_pool.hpp), so a large payload's pages fault in once per
// process instead of once per message, and a block that goes back to the
// pool first forgets its registrations.  Smaller copies are exact-size heap
// blocks that go back to the heap, whose own bins recycle them (pooling them
// in power-of-two classes too raised coll_fattree64's peak RSS from 181 to
// 188-192 MB), and whose operator delete forgets their registrations.
// Collective staging is the one large host buffer kept apart from the pool:
// coll/schedule.hpp's ScratchPool blocks must stay registered between
// collectives, which a pool that forgets on release cannot give.
#pragma once

#include <cstddef>
#include <utility>

namespace ib12x::mvx {

/// One payload copy; move-only.  An empty Payload holds no memory.
class Payload {
 public:
  Payload() = default;
  Payload(Payload&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)), size_(std::exchange(o.size_, 0)) {}
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      if (data_ != nullptr) release();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~Payload() {
    if (data_ != nullptr) release();
  }

  /// Copies [src, src+bytes); 0 bytes gives an empty Payload.
  static Payload copy(const void* src, std::size_t bytes);

  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  Payload(std::byte* data, std::size_t size) : data_(data), size_(size) {}
  /// Gives the copy back; data_ is not null.
  void release() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ib12x::mvx
