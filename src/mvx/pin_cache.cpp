#include "mvx/pin_cache.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "ib/hca.hpp"

namespace ib12x::mvx {

namespace {
constexpr std::int64_t kPageBytes = 4096;

// The live caches and the smallest length any of them ever registered: a
// freed block shorter than that cannot hold an entry.  The simulator runs on
// one OS thread, so these are plain globals.
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
                   Counter& misses, Counter& evictions)
    : hcas_(hcas), opts_(opts), hits_(hits), misses_(misses), evictions_(evictions) {
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
  for (auto it = regions_.lower_bound(lo); it != regions_.end() && it->first - lo < len;) {
    detach((it++)->second.get());
  }
}

void PinCache::forget_everywhere(void* block, std::size_t len) noexcept {
  if (g_live == nullptr || g_busy || block == nullptr) return;
  if (len == 0) len = malloc_usable_size(block);
  if (len < g_min_len) return;
  for (PinCache* c = g_live; c != nullptr; c = c->next_live_) c->forget(block, len);
}

PinCache::Region* PinCache::find(std::uint64_t base, std::int64_t bytes) {
  if (opts_.interval) {
    // Greatest entry base <= query base; a hit must cover the whole interval.
    auto it = regions_.upper_bound(base);
    if (it != regions_.begin()) {
      --it;
      Region* r = it->second.get();
      if (r->base + static_cast<std::uint64_t>(r->len) >=
          base + static_cast<std::uint64_t>(bytes)) {
        return r;
      }
      // An exact-base entry that is too short would shadow every future
      // lookup from this base: replace it rather than accumulate.
      if (r->base == base) detach(r);
    }
    return nullptr;
  }
  auto it = regions_.find(base);
  if (it == regions_.end()) return nullptr;
  if (it->second->len >= bytes) return it->second.get();
  // Legacy semantics: a cached entry that is too small is dropped and the
  // buffer (cheaply) re-registered at the larger size.
  detach(it->second.get());
  return nullptr;
}

PinCache::Region* PinCache::acquire(const void* buf, std::int64_t bytes, sim::Time* cpu_cost) {
  BusyScope busy;
  const std::uint64_t base = reinterpret_cast<std::uint64_t>(buf);
  if (Region* r = find(base, bytes)) {
    *cpu_cost += opts_.hit_cpu;
    hits_.inc();
    ++r->pins;
    lru_.splice(lru_.end(), lru_, r->lru);  // most recently used
    return r;
  }

  auto reg = std::make_unique<Region>();
  reg->base = base;
  reg->len = bytes;
  for (std::size_t h = 0; h < hcas_.size(); ++h) {
    reg->mr[h] = hcas_[h]->mem().register_memory(const_cast<void*>(buf),
                                                 static_cast<std::size_t>(bytes));
  }
  const std::int64_t pages = (bytes + kPageBytes - 1) / kPageBytes;
  *cpu_cost += opts_.miss_cpu + opts_.page_cpu * pages;
  misses_.inc();
  g_min_len = std::min(g_min_len, static_cast<std::size_t>(bytes));

  Region* r = reg.get();
  auto [it, inserted] = regions_.emplace(base, std::move(reg));
  if (!inserted) throw std::logic_error("PinCache: duplicate base after failed lookup");
  r->pins = 1;
  r->lru = lru_.insert(lru_.end(), base);
  resident_bytes_ += bytes;
  evict_to_capacity();
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

void PinCache::detach(Region* r) {
  lru_.erase(r->lru);
  resident_bytes_ -= r->len;
  auto it = regions_.find(r->base);
  if (r->pins == 0) {
    deregister(r);
    regions_.erase(it);
    return;
  }
  // Still referenced by in-flight RDMA: keep the registration alive until
  // the last release (delayed deregistration).  Region* handles stay valid —
  // the node just moves from the map to the zombie list.
  r->zombie = true;
  zombies_.push_back(std::move(it->second));
  regions_.erase(it);
}

void PinCache::deregister(Region* r) {
  for (std::size_t h = 0; h < hcas_.size(); ++h) hcas_[h]->mem().deregister(r->mr[h]);
}

void PinCache::evict_to_capacity() {
  if (opts_.capacity <= 0) return;
  auto it = lru_.begin();
  while (resident_bytes_ > opts_.capacity && it != lru_.end()) {
    Region* r = regions_.at(*it).get();
    if (r->pins > 0) {
      ++it;  // never evict an interval the hardware may still be writing from
      continue;
    }
    it = lru_.erase(it);
    resident_bytes_ -= r->len;
    deregister(r);
    regions_.erase(r->base);
    evictions_.inc();
  }
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
