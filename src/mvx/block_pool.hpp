// The process's recycled large host blocks.
//
// Every host buffer of kMinBytes and up that the simulator allocates over
// and over — eager payload copies (payload.hpp) and the NAS kernels' key and
// field arrays (PoolVector) — comes from the one BlockPool of the process.
// Without it each such buffer is a fresh mmap (glibc's threshold is 128
// KiB): the simulator thread page-faults it in, zero-fills it and unmaps it
// again on every call.  The pool maps blocks straight from the kernel, in
// power-of-two size classes, and a released block goes back on its class's
// LIFO free list for the next request, the way Liu et al.'s MPICH2-over-IB
// recycles its pre-registered copy buffers.  The pool outlives every World,
// so a block faults in once per process, not once per call or per World.
//
// The blocks the pool holds, live and free, never exceed the high-water mark
// of its live bytes: before it maps a block for a class whose free list is
// empty, it unmaps free blocks of other classes until the new block fits.
//
// The pin-down rule of pin_cache.hpp holds for pool blocks as for heap
// buffers: a block that goes back on a free list, or back to the kernel,
// first forgets every registration inside it, since its next owner is a
// different buffer.  (coll/schedule.hpp's ScratchPool keeps its own blocks
// for that reason: collective staging must stay registered between calls.)
//
// Only the simulator's thread may take or return blocks: both throw on a
// host worker thread (sim/host_pool.hpp), whose jobs must not allocate what
// an MPI call could see.  Under AddressSanitizer a block on a free list is
// poisoned, so a use after release is caught as for a heap block.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ib12x::mvx {

class BlockPool {
 public:
  /// Requests of this size and up get pool blocks (glibc's default mmap
  /// threshold, above which the heap would map and unmap each one).
  static constexpr std::size_t kMinBytes = std::size_t{128} << 10;

  struct Stats {
    std::size_t live_bytes = 0;  ///< class bytes of the blocks handed out
    std::size_t free_bytes = 0;  ///< class bytes of the blocks on free lists
    std::size_t live_hwm = 0;    ///< high-water mark of live_bytes
    std::uint64_t acquired = 0;  ///< blocks handed out so far
    std::uint64_t mapped = 0;    ///< blocks mapped from the kernel so far
  };

  BlockPool() = default;
  /// Unmaps the free blocks; every block must have been released.
  ~BlockPool();

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  /// The pool of the process, never destroyed.
  static BlockPool& shared();

  /// A block of `bytes` (> 0): from shared() at kMinBytes and up, else an
  /// exact-size heap block.  deallocate() takes it back with the same
  /// `bytes`; either way the block forgets its registrations.
  static std::byte* allocate(std::size_t bytes);
  static void deallocate(std::byte* block, std::size_t bytes);

  /// A page-aligned block of at least `bytes` (>= kMinBytes).
  std::byte* acquire(std::size_t bytes);
  /// Returns the block acquire(bytes) gave, with the same `bytes`.
  void release(std::byte* block, std::size_t bytes);
  /// Unmaps every free block.
  void drop_free();

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr int kClasses = 48;  ///< class c holds blocks of 2^c bytes

  static int class_of(std::size_t bytes);
  static void check_thread();
  void unmap(std::byte* block, int cls);
  /// Unmaps free blocks until live + free bytes fit the live high-water mark.
  void trim();

  std::array<std::vector<std::byte*>, kClasses> free_;
  std::array<std::size_t, kClasses> blocks_{};  ///< per class, live + free
  Stats stats_;
};

/// Standard allocator over BlockPool::allocate: allocations of kMinBytes
/// and up are pool blocks, smaller ones heap blocks.  Simulator thread only,
/// like the pool.
template <typename T>
struct PoolAlloc {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  PoolAlloc() = default;
  template <typename U>
  PoolAlloc(const PoolAlloc<U>&) noexcept {}

  T* allocate(std::size_t n) { return reinterpret_cast<T*>(BlockPool::allocate(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) {
    BlockPool::deallocate(reinterpret_cast<std::byte*>(p), n * sizeof(T));
  }

  friend bool operator==(const PoolAlloc&, const PoolAlloc&) { return true; }
};

template <typename T>
using PoolVector = std::vector<T, PoolAlloc<T>>;

}  // namespace ib12x::mvx
