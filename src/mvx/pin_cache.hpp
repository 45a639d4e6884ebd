// Pin-down cache for rendezvous user buffers (Liu et al.'s MPICH2-over-IB
// registration cache, the mechanism MVAPICH calls "dreg").
//
// Each entry pins one address interval in every local HCA domain.  Lookup
// runs in one of two modes:
//
//  * exact mode (legacy, `rndv_pipeline=off`): a hit requires the query base
//    to equal an entry base and the entry to be at least as long — the
//    semantics of the seed's `std::map<const void*, RegEntry>` cache,
//    reproduced so legacy figure outputs stay byte-identical;
//  * interval mode (pipelined rendezvous): a send from `base+offset` inside
//    any pinned interval is a hit, so chunked registrations and interior
//    pointers (e.g. alltoallv slices) reuse existing pins.
//
// Entries are reference-counted: an acquire pins the interval until the
// matching release, and LRU eviction against the `Config::reg_cache_capacity`
// byte budget only ever deregisters unpinned intervals (an interval evicted
// while pinned lingers as a zombie and is deregistered on its last release —
// real dreg's "delayed deregistration").
//
// An entry dies with the host allocation it covers.  The cache keys on raw
// host addresses, so an entry that outlived its buffer would let a later
// allocation at the same address hit, and whether it did would depend on
// where the heap put that allocation.  Real dreg avoids this by intercepting
// free(); here the global operator delete family (pin_cache.cpp) calls
// forget() on every live cache before the block returns to malloc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "ib/mem.hpp"
#include "mvx/telemetry.hpp"
#include "mvx/wire.hpp"
#include "sim/time.hpp"

namespace ib12x::ib {
class Hca;
}

namespace ib12x::mvx {

class PinCache {
 public:
  struct Options {
    bool interval = false;          ///< interval-covering lookup (else exact-base)
    std::int64_t capacity = 0;      ///< byte budget; 0 = unlimited (never evict)
    sim::Time hit_cpu = 0;
    sim::Time miss_cpu = 0;         ///< flat part of a registration
    sim::Time page_cpu = 0;         ///< per-4-KiB page pin cost on miss
  };

  /// One pinned interval, registered in every HCA domain of the node.
  struct Region {
    std::uint64_t base = 0;
    std::int64_t len = 0;
    ib::MemoryRegion mr[kMaxHcas];
    int pins = 0;
    bool zombie = false;  ///< evicted while pinned; deregister on last release
    std::list<std::uint64_t>::iterator lru;
  };

  PinCache(const std::vector<ib::Hca*>& hcas, const Options& opts, Counter& hits,
           Counter& misses, Counter& evictions);
  ~PinCache();

  PinCache(const PinCache&) = delete;
  PinCache& operator=(const PinCache&) = delete;

  /// Returns a pinned region covering [buf, buf+bytes), registering it on a
  /// miss; adds the hit/miss CPU cost to `*cpu_cost`.  Every acquire must be
  /// paired with a release once the hardware is done with the interval.
  Region* acquire(const void* buf, std::int64_t bytes, sim::Time* cpu_cost);
  void release(Region* r);

  /// Drops every entry whose base lies in the host block [base, base+len),
  /// which is being freed.  A pinned entry becomes a zombie, deregistered on
  /// its last release, the same way eviction treats it.
  void forget(const void* base, std::size_t len);

  /// Called by the operator delete replacements before `block` returns to
  /// malloc: every live cache forgets the entries inside it.  `len` 0 means
  /// the size is unknown (unsized delete) and is asked of the allocator.
  static void forget_everywhere(void* block, std::size_t len) noexcept;

  [[nodiscard]] std::int64_t resident_bytes() const { return resident_bytes_; }
  [[nodiscard]] std::size_t entries() const { return regions_.size(); }

 private:
  /// Cache hit for [base, base+bytes) under the configured lookup mode, or
  /// nullptr.  Detaches an exact-base entry that is too short (the legacy
  /// erase-and-re-register path) so at most one entry exists per base.
  Region* find(std::uint64_t base, std::int64_t bytes);
  /// Removes `r` from the cache; deregisters now if unpinned, else marks it
  /// a zombie for the last release to collect.
  void detach(Region* r);
  void deregister(Region* r);
  void evict_to_capacity();

  std::vector<ib::Hca*> hcas_;  ///< copied: the cache may outlive its channel
  Options opts_;

  // Regions live on the heap so the Region* handles acquire hands out stay
  // valid across detachment (a pinned entry replaced or evicted moves to
  // zombies_ without changing address).
  std::map<std::uint64_t, std::unique_ptr<Region>> regions_;  ///< by base address
  std::list<std::uint64_t> lru_;  ///< front = least recently used
  std::vector<std::unique_ptr<Region>> zombies_;
  std::int64_t resident_bytes_ = 0;

  Counter& hits_;
  Counter& misses_;
  Counter& evictions_;

  // Links in the list of live caches that forget_everywhere walks.
  PinCache* prev_live_ = nullptr;
  PinCache* next_live_ = nullptr;
};

}  // namespace ib12x::mvx
