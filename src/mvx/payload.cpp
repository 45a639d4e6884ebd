#include "mvx/payload.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

#include "mvx/pin_cache.hpp"

namespace ib12x::mvx {

namespace {

std::size_t class_bytes(int cls) { return std::size_t{1} << cls; }

void unmap(std::byte* block, std::size_t len) {
  PinCache::forget_everywhere(block, len);
  munmap(block, len);
}

}  // namespace

PayloadPool::~PayloadPool() {
  for (int c = 0; c < kClasses; ++c) {
    for (std::byte* block : free_[static_cast<std::size_t>(c)]) unmap(block, class_bytes(c));
  }
}

int PayloadPool::class_of(std::size_t bytes) {
  const int c = static_cast<int>(std::bit_width(bytes - 1));
  if (c >= kClasses) throw std::length_error("PayloadPool: payload too large");
  return c;
}

Payload PayloadPool::copy(const void* src, std::size_t bytes) {
  if (bytes == 0) return {};
  std::byte* block;
  if (bytes < kMappedBytes) {
    block = static_cast<std::byte*>(::operator new(bytes));
  } else {
    const int c = class_of(bytes);
    auto& list = free_[static_cast<std::size_t>(c)];
    live_bytes_ += class_bytes(c);
    if (list.empty()) {
      // Make room under the new high-water mark before mapping the block.
      live_hwm_ = std::max(live_hwm_, live_bytes_);
      trim();
      void* p = mmap(nullptr, class_bytes(c), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      block = static_cast<std::byte*>(p);
      // A free list never outgrows its class, so release() cannot allocate.
      list.reserve(++blocks_[static_cast<std::size_t>(c)]);
    } else {
      block = list.back();
      list.pop_back();
      free_bytes_ -= class_bytes(c);
    }
  }
  std::memcpy(block, src, bytes);
  return Payload(this, block, bytes);
}

void PayloadPool::release(std::byte* data, std::size_t bytes) noexcept {
  if (bytes < kMappedBytes) {
    ::operator delete(data, bytes);  // forgets the block's registrations
    return;
  }
  const int c = class_of(bytes);
  PinCache::forget_everywhere(data, class_bytes(c));
  free_[static_cast<std::size_t>(c)].push_back(data);
  free_bytes_ += class_bytes(c);
  live_bytes_ -= class_bytes(c);
}

void PayloadPool::trim() {
  for (int c = 0; c < kClasses && live_bytes_ + free_bytes_ > live_hwm_; ++c) {
    auto& list = free_[static_cast<std::size_t>(c)];
    while (!list.empty() && live_bytes_ + free_bytes_ > live_hwm_) {
      unmap(list.back(), class_bytes(c));
      list.pop_back();
      --blocks_[static_cast<std::size_t>(c)];
      free_bytes_ -= class_bytes(c);
    }
  }
}

}  // namespace ib12x::mvx
