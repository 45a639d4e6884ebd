// Memory registration.  A MemoryDomain plays the role of a protection
// domain's MR table: RDMA operations must name a registered region by rkey
// and stay within its bounds, which catches a whole class of MPI-layer bugs
// (stale CTS, wrong stripe offsets) at the point of damage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "ib/types.hpp"

namespace ib12x::ib {

struct MemoryRegion {
  std::uint64_t addr = 0;  ///< start address (host pointer value)
  std::uint64_t length = 0;
  LKey lkey = 0;
  RKey rkey = 0;
};

class MemoryDomain {
 public:
  /// Registers [buf, buf+len).  Overlapping registrations are allowed, as in
  /// real verbs.  A read-only source registers the same way: the region
  /// records an address, and whether it is written is up to the operations
  /// that name its keys.
  MemoryRegion register_memory(const void* buf, std::size_t len);

  void deregister(const MemoryRegion& mr);

  /// Resolves an rkey-qualified remote access; throws std::runtime_error on
  /// unknown rkey or out-of-bounds access.
  std::byte* translate_rkey(RKey rkey, std::uint64_t addr, std::uint64_t len) const;

  /// Validates a local-key access the same way.
  void check_lkey(LKey lkey, const void* addr, std::uint64_t len) const;

  [[nodiscard]] std::size_t region_count() const { return by_key_.size(); }

 private:
  /// One region per key: a registration's lkey and rkey are the same value,
  /// drawn from a monotone counter, so a deregistered key is never reused.
  std::unordered_map<std::uint32_t, MemoryRegion> by_key_;
  std::uint32_t next_key_ = 1;
};

}  // namespace ib12x::ib
