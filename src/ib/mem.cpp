#include "ib/mem.hpp"

#include <stdexcept>
#include <string>

namespace ib12x::ib {

MemoryRegion MemoryDomain::register_memory(const void* buf, std::size_t len) {
  MemoryRegion mr;
  mr.addr = reinterpret_cast<std::uint64_t>(buf);
  mr.length = len;
  mr.lkey = next_key_;
  mr.rkey = next_key_;
  ++next_key_;
  by_key_.emplace(mr.lkey, mr);
  return mr;
}

void MemoryDomain::deregister(const MemoryRegion& mr) { by_key_.erase(mr.lkey); }

namespace {

/// [addr, addr + len) lies inside the region.  Written without addr + len,
/// which a huge len would wrap past the region's end.
bool within(const MemoryRegion& mr, std::uint64_t addr, std::uint64_t len) {
  return addr >= mr.addr && len <= mr.length && addr - mr.addr <= mr.length - len;
}

}  // namespace

std::byte* MemoryDomain::translate_rkey(RKey rkey, std::uint64_t addr, std::uint64_t len) const {
  auto it = by_key_.find(rkey);
  if (it == by_key_.end()) {
    throw std::runtime_error("MemoryDomain: remote access with unknown rkey " + std::to_string(rkey));
  }
  if (!within(it->second, addr, len)) {
    throw std::runtime_error("MemoryDomain: remote access out of bounds (rkey " + std::to_string(rkey) +
                             ", addr " + std::to_string(addr) + ", len " + std::to_string(len) + ")");
  }
  return reinterpret_cast<std::byte*>(addr);
}

void MemoryDomain::check_lkey(LKey lkey, const void* addr, std::uint64_t len) const {
  auto it = by_key_.find(lkey);
  if (it == by_key_.end()) {
    throw std::runtime_error("MemoryDomain: local access with unknown lkey " + std::to_string(lkey));
  }
  if (!within(it->second, reinterpret_cast<std::uint64_t>(addr), len)) {
    throw std::runtime_error("MemoryDomain: local access out of bounds (lkey " + std::to_string(lkey) + ")");
  }
}

}  // namespace ib12x::ib
