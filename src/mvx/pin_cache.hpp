// Pin-down cache for rendezvous user buffers (Liu et al.'s MPICH2-over-IB
// registration cache, the mechanism MVAPICH calls "dreg").
//
// Each entry pins one address interval in every local HCA domain.  Lookup
// is by interval: a send from `base+offset` inside any pinned interval is a
// hit, so chunked registrations and interior pointers (e.g. alltoallv
// slices) reuse existing pins.
//
// Entries are reference-counted: an acquire pins the interval until the
// matching release.  The cache never evicts: an entry leaves it only when a
// longer registration from the same base replaces it or when its host block
// is freed.  An entry that leaves while pinned lingers as a zombie and is
// deregistered on its last release (real dreg's "delayed deregistration").
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
    bool zombie = false;  ///< left the cache while pinned; deregister on last release
  };

  PinCache(const std::vector<ib::Hca*>& hcas, const Options& opts, Counter& hits,
           Counter& misses);
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
  /// its last release.
  void forget(const void* base, std::size_t len);

  /// Called by the operator delete replacements before `block` returns to
  /// malloc: every live cache forgets the entries inside it.  `len` 0 means
  /// the size is unknown (unsized delete) and is asked of the allocator.
  /// Returns at once on a host worker thread (sim::on_host_worker()).
  static void forget_everywhere(void* block, std::size_t len) noexcept;

  [[nodiscard]] std::size_t entries() const { return regions_.size(); }

 private:
  /// One index entry: the region's base kept beside the pointer, so a
  /// lookup's binary search reads one contiguous array.
  struct Slot {
    std::uint64_t base;
    std::unique_ptr<Region> region;
  };
  using SlotIt = std::vector<Slot>::iterator;

  /// The first entry whose base is >= / > `base`.
  SlotIt lower_bound(std::uint64_t base);
  SlotIt upper_bound(std::uint64_t base);
  /// The entry covering [base, base+bytes), or nullptr.  Detaches an entry
  /// at the same base that is too short, so at most one entry exists per
  /// base.
  Region* find(std::uint64_t base, std::int64_t bytes);
  /// Takes the region of `slot` out of the cache (the caller erases the
  /// slot); deregisters now if unpinned, else keeps it as a zombie for the
  /// last release to collect.
  void detach(Slot& slot);
  void deregister(Region* r);

  std::vector<ib::Hca*> hcas_;  ///< copied: the cache may outlive its channel
  Options opts_;

  // Regions live on the heap so the Region* handles acquire hands out stay
  // valid across detachment (a pinned entry replaced or forgotten moves to
  // zombies_ without changing address) and across index inserts.
  std::vector<Slot> regions_;  ///< sorted by base address
  std::vector<std::unique_ptr<Region>> zombies_;

  Counter& hits_;
  Counter& misses_;

  // Links in the list of live caches that forget_everywhere walks.
  PinCache* prev_live_ = nullptr;
  PinCache* next_live_ = nullptr;
};

}  // namespace ib12x::mvx
