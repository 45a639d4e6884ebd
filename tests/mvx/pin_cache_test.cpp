// Unit tests for the rendezvous pin-down cache: interval lookup,
// LRU eviction against the byte budget with real MR deregistration,
// pin-protected (zombie) entries, and entries dying with the host block they
// cover.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "mvx/pin_cache.hpp"
#include "sim/simulator.hpp"

namespace ib12x::mvx {
namespace {

struct CacheFixture {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  ib::Hca* hca = &fabric.add_hca(0);
  std::vector<ib::Hca*> hcas{hca};
  TelemetryRegistry tel;
  Counter& hits = tel.counter("hits");
  Counter& misses = tel.counter("misses");
  Counter& evictions = tel.counter("evictions");

  PinCache make(std::int64_t capacity = 0) {
    PinCache::Options o;
    o.capacity = capacity;
    return PinCache(hcas, o, hits, misses, evictions);
  }
};

TEST(PinCache, IntervalHitFromInteriorPointer) {
  CacheFixture fx;
  PinCache c = fx.make();
  std::vector<std::byte> buf(1 << 20);

  sim::Time cost = 0;
  auto* whole = c.acquire(buf.data(), 1 << 20, &cost);
  EXPECT_EQ(fx.misses.value(), 1u);

  // A send from an interior pointer of the pinned region must hit.
  auto* inner = c.acquire(buf.data() + 4096, 64 * 1024, &cost);
  EXPECT_EQ(inner, whole);
  EXPECT_EQ(fx.hits.value(), 1u);
  EXPECT_EQ(fx.hca->mem().region_count(), 1u);

  // Past the end of the pinned region: a genuine miss.
  c.acquire(buf.data() + (1 << 20) - 64, 128, &cost);
  EXPECT_EQ(fx.misses.value(), 2u);
}

TEST(PinCache, LruEvictionDeregistersUnpinned) {
  CacheFixture fx;
  PinCache c = fx.make(/*capacity=*/256 * 1024);
  std::vector<std::vector<std::byte>> bufs;
  for (int i = 0; i < 8; ++i) bufs.emplace_back(64 * 1024);

  sim::Time cost = 0;
  std::vector<PinCache::Region*> regions;
  for (auto& b : bufs) {
    regions.push_back(c.acquire(b.data(), 64 * 1024, &cost));
  }
  // Releasing as we go would let eviction keep up; release all now and top
  // up once more to trigger the LRU sweep.
  for (auto* r : regions) c.release(r);
  std::vector<std::byte> extra(64 * 1024);
  c.release(c.acquire(extra.data(), 64 * 1024, &cost));

  EXPECT_GT(fx.evictions.value(), 0u);
  EXPECT_LE(c.resident_bytes(), 256 * 1024);
  // Every evicted interval was really deregistered from the HCA domain.
  EXPECT_EQ(fx.hca->mem().region_count(), c.entries());
}

TEST(PinCache, PinnedRegionsSurviveEvictionUntilRelease) {
  CacheFixture fx;
  PinCache c = fx.make(/*capacity=*/64 * 1024);
  std::vector<std::byte> a(64 * 1024), b(64 * 1024);

  sim::Time cost = 0;
  auto* ra = c.acquire(a.data(), 64 * 1024, &cost);  // still pinned
  auto* rb = c.acquire(b.data(), 64 * 1024, &cost);  // over budget now
  // `a` is over-LRU but pinned: it must not be deregistered while the
  // hardware may still be using it.
  EXPECT_EQ(fx.hca->mem().region_count(), 2u);
  const ib::RKey rkey_a = ra->mr[0].rkey;
  EXPECT_NE(fx.hca->mem().translate_rkey(rkey_a, ra->base, 64 * 1024), nullptr);

  c.release(rb);
  c.release(ra);
  // Under-budget again only once the unpinned LRU sweep can actually run.
  std::vector<std::byte> d(64 * 1024);
  c.release(c.acquire(d.data(), 64 * 1024, &cost));
  EXPECT_GT(fx.evictions.value(), 0u);
}

TEST(PinCache, RegistrationCostsChargePagesOnMiss) {
  CacheFixture fx;
  PinCache::Options o;
  o.hit_cpu = 50;
  o.miss_cpu = 450;
  o.page_cpu = 100;
  PinCache c(fx.hcas, o, fx.hits, fx.misses, fx.evictions);

  std::vector<std::byte> buf(8192);
  sim::Time cost = 0;
  c.acquire(buf.data(), 8192, &cost);
  EXPECT_EQ(cost, 450 + 2 * 100);  // flat + 2 pages
  cost = 0;
  c.acquire(buf.data(), 4096, &cost);
  EXPECT_EQ(cost, 50);  // interval hit
}

TEST(PinCache, FreeingARegisteredBufferRemovesItsEntry) {
  CacheFixture fx;
  PinCache c = fx.make();
  auto buf = std::make_unique<std::byte[]>(64 * 1024);

  sim::Time cost = 0;
  c.release(c.acquire(buf.get(), 64 * 1024, &cost));
  { std::vector<std::byte> other(128 * 1024); }  // an unrelated block comes and goes
  EXPECT_EQ(c.entries(), 1u);

  buf.reset();
  EXPECT_EQ(c.entries(), 0u);
  EXPECT_EQ(c.resident_bytes(), 0);
  EXPECT_EQ(fx.hca->mem().region_count(), 0u);

  // A new buffer misses wherever the allocator puts it.
  auto again = std::make_unique<std::byte[]>(64 * 1024);
  c.release(c.acquire(again.get(), 64 * 1024, &cost));
  EXPECT_EQ(fx.hits.value(), 0u);
  EXPECT_EQ(fx.misses.value(), 2u);
  EXPECT_EQ(fx.evictions.value(), 0u);  // forgetting is not eviction
}

TEST(PinCache, FreeingTheEnclosingBlockDropsAnInteriorRegistration) {
  CacheFixture fx;
  PinCache c = fx.make();
  std::vector<std::byte> block(256 * 1024);

  sim::Time cost = 0;
  c.release(c.acquire(block.data() + 4096, 32 * 1024, &cost));
  EXPECT_EQ(c.entries(), 1u);

  std::vector<std::byte>().swap(block);  // frees the storage
  EXPECT_EQ(c.entries(), 0u);
  EXPECT_EQ(fx.hca->mem().region_count(), 0u);
}

TEST(PinCache, BlockFreedWhilePinnedIsDeregisteredOnLastRelease) {
  CacheFixture fx;
  PinCache c = fx.make();
  auto buf = std::make_unique<std::byte[]>(64 * 1024);

  sim::Time cost = 0;
  PinCache::Region* r = c.acquire(buf.get(), 64 * 1024, &cost);
  buf.reset();
  // Out of the cache at once, but the hardware may still be using it.
  EXPECT_EQ(c.entries(), 0u);
  EXPECT_EQ(fx.hca->mem().region_count(), 1u);
  EXPECT_NE(fx.hca->mem().translate_rkey(r->mr[0].rkey, r->base, 64 * 1024), nullptr);

  c.release(r);
  EXPECT_EQ(fx.hca->mem().region_count(), 0u);
}

}  // namespace
}  // namespace ib12x::mvx
