// Host copies of message payloads, owned by the model.
//
// Every eager payload the model copies is made by its World's PayloadPool:
// the shm segment copy, the net and RDMA fast-path receive copies (held by
// the matcher's reorder park and unexpected queue), and a communicator's
// self queue.  A Payload handle owns one copy; the copy is released when the
// handle dies, which is where the payload is consumed (copied into the
// matched receive buffer, read by the rendezvous accept, or dropped as a
// duplicate).
//
// Payloads of kMappedBytes and up live in blocks the pool maps straight from
// the kernel, outside the malloc heap, in power-of-two size classes.  A
// released block goes back on its class's free list for the next payload,
// the way Liu et al.'s MPICH2-over-IB recycles its pre-registered copy
// buffers, so its pages fault in once per World instead of once per message.
// The blocks the pool holds, live and free, never exceed the high-water mark
// of its live bytes: before it maps a block for a class whose free list is
// empty, the pool unmaps free blocks of other classes until the new block
// fits.  Smaller payloads are exact-size heap blocks that go back to the
// heap, whose own bins recycle them (pooling them in power-of-two classes too
// raised coll_fattree64's peak RSS from 181 to 188-192 MB).
//
// The pin-down rule of pin_cache.hpp holds for pool blocks as for heap
// buffers: a block that goes back on a free list, or back to the kernel,
// first forgets every registration inside it, since its next payload is a
// different buffer.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

namespace ib12x::mvx {

class PayloadPool;

/// One payload copy made by a PayloadPool; move-only.  An empty Payload
/// holds no memory.
class Payload {
 public:
  Payload() = default;
  Payload(Payload&& o) noexcept
      : pool_(std::exchange(o.pool_, nullptr)),
        data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      release();
      pool_ = std::exchange(o.pool_, nullptr);
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~Payload() { release(); }

  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  friend class PayloadPool;
  Payload(PayloadPool* pool, std::byte* data, std::size_t size)
      : pool_(pool), data_(data), size_(size) {}
  void release() noexcept;

  PayloadPool* pool_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

class PayloadPool {
 public:
  /// Payloads of this size and up get pool blocks (glibc's default mmap
  /// threshold, above which the heap would map and unmap each one).
  static constexpr std::size_t kMappedBytes = std::size_t{128} << 10;

  PayloadPool() = default;
  /// Every Payload of the pool must be gone by now.
  ~PayloadPool();

  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// Copies [src, src+bytes) into a block; 0 bytes gives an empty Payload.
  Payload copy(const void* src, std::size_t bytes);

  /// Bytes of the blocks on the free lists (class sizes).
  [[nodiscard]] std::size_t free_bytes() const { return free_bytes_; }

 private:
  friend class Payload;

  static constexpr int kClasses = 48;  ///< class c holds blocks of 2^c bytes

  static int class_of(std::size_t bytes);
  void release(std::byte* data, std::size_t bytes) noexcept;
  /// Unmaps free blocks until live + free bytes fit the live high-water mark.
  void trim();

  std::array<std::vector<std::byte*>, kClasses> free_;
  std::array<std::size_t, kClasses> blocks_{};  ///< per class, live + free
  std::size_t free_bytes_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t live_hwm_ = 0;
};

inline void Payload::release() noexcept {
  if (pool_ != nullptr) pool_->release(data_, size_);
  pool_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

}  // namespace ib12x::mvx
