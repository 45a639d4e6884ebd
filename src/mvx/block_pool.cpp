#include "mvx/block_pool.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>
#include <stdexcept>

#include "mvx/pin_cache.hpp"
#include "sim/host_pool.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define IB12X_ASAN_POOL 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IB12X_ASAN_POOL 1
#endif
#endif

#ifdef IB12X_ASAN_POOL
#include <sanitizer/asan_interface.h>
#endif

namespace ib12x::mvx {

namespace {

std::size_t class_bytes(int cls) { return std::size_t{1} << cls; }

// A block on a free list is poisoned; a block handed out is addressable up to
// the bytes asked for.
void poison(std::byte* block, std::size_t len) {
#ifdef IB12X_ASAN_POOL
  ASAN_POISON_MEMORY_REGION(block, len);
#else
  (void)block;
  (void)len;
#endif
}

void unpoison(std::byte* block, std::size_t len) {
#ifdef IB12X_ASAN_POOL
  ASAN_UNPOISON_MEMORY_REGION(block, len);
#else
  (void)block;
  (void)len;
#endif
}

}  // namespace

BlockPool::~BlockPool() { drop_free(); }

BlockPool& BlockPool::shared() {
  // Never destroyed: a static object freed at exit could release blocks to
  // a pool that is already gone.
  static BlockPool* const pool = new BlockPool;
  return *pool;
}

std::byte* BlockPool::allocate(std::size_t bytes) {
  if (bytes < kMinBytes) return static_cast<std::byte*>(::operator new(bytes));
  return shared().acquire(bytes);
}

void BlockPool::deallocate(std::byte* block, std::size_t bytes) {
  if (bytes < kMinBytes) {
    ::operator delete(block, bytes);  // forgets the block's registrations
  } else {
    shared().release(block, bytes);
  }
}

int BlockPool::class_of(std::size_t bytes) {
  const int c = static_cast<int>(std::bit_width(bytes - 1));
  if (c >= kClasses) throw std::length_error("BlockPool: block too large");
  return c;
}

void BlockPool::check_thread() {
  if (sim::on_host_worker()) {
    throw std::logic_error("BlockPool: blocks are taken and returned on the simulator thread only");
  }
}

std::byte* BlockPool::acquire(std::size_t bytes) {
  check_thread();
  if (bytes < kMinBytes) throw std::invalid_argument("BlockPool: request below kMinBytes");
  const int c = class_of(bytes);
  auto& list = free_[static_cast<std::size_t>(c)];
  std::byte* block;
  stats_.live_bytes += class_bytes(c);
  if (list.empty()) {
    // Make room under the new high-water mark before mapping the block.
    stats_.live_hwm = std::max(stats_.live_hwm, stats_.live_bytes);
    trim();
    void* p = mmap(nullptr, class_bytes(c), PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p == MAP_FAILED) {
      stats_.live_bytes -= class_bytes(c);
      throw std::bad_alloc();
    }
    block = static_cast<std::byte*>(p);
    ++stats_.mapped;
    // A free list never outgrows its class, so release() cannot allocate.
    list.reserve(++blocks_[static_cast<std::size_t>(c)]);
  } else {
    block = list.back();
    list.pop_back();
    stats_.free_bytes -= class_bytes(c);
  }
  ++stats_.acquired;
  poison(block, class_bytes(c));
  unpoison(block, bytes);
  return block;
}

void BlockPool::release(std::byte* block, std::size_t bytes) {
  check_thread();
  const int c = class_of(bytes);
  PinCache::forget_everywhere(block, class_bytes(c));
  poison(block, class_bytes(c));
  free_[static_cast<std::size_t>(c)].push_back(block);
  stats_.free_bytes += class_bytes(c);
  stats_.live_bytes -= class_bytes(c);
}

void BlockPool::unmap(std::byte* block, int cls) {
  unpoison(block, class_bytes(cls));
  munmap(block, class_bytes(cls));
  --blocks_[static_cast<std::size_t>(cls)];
  stats_.free_bytes -= class_bytes(cls);
}

void BlockPool::drop_free() {
  for (int c = 0; c < kClasses; ++c) {
    auto& list = free_[static_cast<std::size_t>(c)];
    for (std::byte* block : list) unmap(block, c);
    list.clear();
  }
}

void BlockPool::trim() {
  for (int c = 0; c < kClasses && stats_.live_bytes + stats_.free_bytes > stats_.live_hwm; ++c) {
    auto& list = free_[static_cast<std::size_t>(c)];
    while (!list.empty() && stats_.live_bytes + stats_.free_bytes > stats_.live_hwm) {
      unmap(list.back(), c);
      list.pop_back();
    }
  }
}

}  // namespace ib12x::mvx
