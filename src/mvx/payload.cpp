#include "mvx/payload.hpp"

#include <cstring>

#include "mvx/block_pool.hpp"

namespace ib12x::mvx {

Payload Payload::copy(const void* src, std::size_t bytes) {
  if (bytes == 0) return {};
  std::byte* block = BlockPool::allocate(bytes);
  std::memcpy(block, src, bytes);
  return Payload(block, bytes);
}

void Payload::release() noexcept {
  BlockPool::deallocate(data_, size_);
  data_ = nullptr;
  size_ = 0;
}

}  // namespace ib12x::mvx
