#include "mvx/pin_cache.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <new>
#include <stdexcept>
#include <utility>

#include "ib/hca.hpp"
#include "sim/host_pool.hpp"

namespace ib12x::mvx {

namespace {
constexpr std::int64_t kPageBytes = 4096;

// The live caches and the smallest length any of them ever registered: a
// freed block shorter than that cannot hold an entry.  Only the simulator's
// thread reads or writes them, so they are plain globals: a free on a host
// worker thread (sim/host_pool.hpp) returns before touching them.  That is
// sound under the job contract — a job frees only blocks it allocated
// itself, and such a block was never handed to an MPI call, so it cannot
// hold an entry.
PinCache* g_live = nullptr;
std::size_t g_min_len = SIZE_MAX;
// Set while a cache mutates itself or forgets a block: the frees this causes
// (map nodes, regions, MR table nodes) must not re-enter a cache mid-update.
bool g_busy = false;

struct BusyScope {
  bool was = g_busy;
  BusyScope() { g_busy = true; }
  ~BusyScope() { g_busy = was; }
};
}  // namespace

PinCache::PinCache(const std::vector<ib::Hca*>& hcas, const Options& opts, Counter& hits,
                   Counter& misses)
    : hcas_(hcas), opts_(opts), hits_(hits), misses_(misses) {
  next_live_ = g_live;
  if (g_live != nullptr) g_live->prev_live_ = this;
  g_live = this;
}

PinCache::~PinCache() {
  (prev_live_ != nullptr ? prev_live_->next_live_ : g_live) = next_live_;
  if (next_live_ != nullptr) next_live_->prev_live_ = prev_live_;
}

void PinCache::forget(const void* base, std::size_t len) {
  BusyScope busy;
  const auto lo = reinterpret_cast<std::uint64_t>(base);
  const SlotIt first = lower_bound(lo);
  SlotIt last = first;
  while (last != regions_.end() && last->base - lo < len) detach(*last++);
  regions_.erase(first, last);
}

void PinCache::forget_everywhere(void* block, std::size_t len) noexcept {
  if (sim::on_host_worker() || g_live == nullptr || g_busy || block == nullptr) return;
  if (len == 0) len = malloc_usable_size(block);
  if (len < g_min_len) return;
  for (PinCache* c = g_live; c != nullptr; c = c->next_live_) c->forget(block, len);
}

PinCache::SlotIt PinCache::lower_bound(std::uint64_t base) {
  return std::lower_bound(regions_.begin(), regions_.end(), base,
                          [](const Slot& s, std::uint64_t b) { return s.base < b; });
}

PinCache::SlotIt PinCache::upper_bound(std::uint64_t base) {
  return std::upper_bound(regions_.begin(), regions_.end(), base,
                          [](std::uint64_t b, const Slot& s) { return b < s.base; });
}

PinCache::Region* PinCache::find(std::uint64_t base, std::int64_t bytes) {
  // Greatest entry base <= query base; a hit must cover the whole interval.
  const SlotIt it = upper_bound(base);
  if (it == regions_.begin()) return nullptr;
  const SlotIt prev = std::prev(it);
  Region* r = prev->region.get();
  if (r->base + static_cast<std::uint64_t>(r->len) >= base + static_cast<std::uint64_t>(bytes)) {
    return r;
  }
  // An entry at the same base that is too short would shadow every future
  // lookup from this base: replace it rather than accumulate.
  if (r->base == base) {
    detach(*prev);
    regions_.erase(prev);
  }
  return nullptr;
}

PinCache::Region* PinCache::acquire(const void* buf, std::int64_t bytes, sim::Time* cpu_cost) {
  BusyScope busy;
  const std::uint64_t base = reinterpret_cast<std::uint64_t>(buf);
  if (Region* r = find(base, bytes)) {
    *cpu_cost += opts_.hit_cpu;
    hits_.inc();
    ++r->pins;
    return r;
  }

  const SlotIt at = lower_bound(base);
  if (at != regions_.end() && at->base == base) {
    throw std::logic_error("PinCache: duplicate base after failed lookup");
  }
  const SlotIt slot = regions_.emplace(at);
  slot->base = base;
  slot->region = std::make_unique<Region>();
  Region* r = slot->region.get();
  r->base = base;
  r->len = bytes;
  for (std::size_t h = 0; h < hcas_.size(); ++h) {
    r->mr[h] = hcas_[h]->mem().register_memory(buf, static_cast<std::size_t>(bytes));
  }
  const std::int64_t pages = (bytes + kPageBytes - 1) / kPageBytes;
  *cpu_cost += opts_.miss_cpu + opts_.page_cpu * pages;
  misses_.inc();
  g_min_len = std::min(g_min_len, static_cast<std::size_t>(bytes));
  r->pins = 1;
  return r;
}

void PinCache::release(Region* r) {
  BusyScope busy;
  if (r->pins <= 0) throw std::logic_error("PinCache: release without matching acquire");
  --r->pins;
  if (r->zombie && r->pins == 0) {
    deregister(r);
    auto it = std::find_if(zombies_.begin(), zombies_.end(),
                           [r](const std::unique_ptr<Region>& z) { return z.get() == r; });
    if (it == zombies_.end()) throw std::logic_error("PinCache: unknown zombie region");
    zombies_.erase(it);
  }
}

void PinCache::detach(Slot& slot) {
  Region* r = slot.region.get();
  if (r->pins == 0) {
    deregister(r);
    slot.region.reset();
    return;
  }
  // Still referenced by in-flight RDMA: keep the registration alive until
  // the last release (delayed deregistration).  Region* handles stay valid —
  // the region just moves from the index to the zombie list.
  r->zombie = true;
  zombies_.push_back(std::move(slot.region));
}

void PinCache::deregister(Region* r) {
  for (std::size_t h = 0; h < hcas_.size(); ++h) hcas_[h]->mem().deregister(r->mr[h]);
}

}  // namespace ib12x::mvx

// Replacements for the global operator new/delete family, so that a freed
// host block drops the registrations inside it (PinCache::forget_everywhere).
// They sit in this file because a static-archive member holding only these
// operators is never extracted by the linker.  Every form allocates with
// malloc and frees with free, so sanitizers see consistent pairs.

void* operator new(std::size_t n) {
  for (;;) {
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}

void operator delete(void* p) noexcept {
  ib12x::mvx::PinCache::forget_everywhere(p, 0);
  std::free(p);
}

void operator delete[](void* p) noexcept { ::operator delete(p); }

void operator delete(void* p, std::size_t n) noexcept {
  ib12x::mvx::PinCache::forget_everywhere(p, n);
  std::free(p);
}

void operator delete[](void* p, std::size_t n) noexcept { ::operator delete(p, n); }

void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }

void operator delete[](void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
