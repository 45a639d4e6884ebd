// Unit tests for the rendezvous pin-down cache: interval lookup, the
// replacement of a short entry at the same base, LRU eviction against the
// byte budget with real MR deregistration,
// pin-protected (zombie) entries, entries dying with the host block they
// cover, and host-job frees that leave the cache alone.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "mvx/block_pool.hpp"
#include "mvx/payload.hpp"
#include "mvx/pin_cache.hpp"
#include "sim/host_pool.hpp"
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

TEST(PinCache, EvictionFollowsLeastRecentUse) {
  CacheFixture fx;
  PinCache c = fx.make(/*capacity=*/3 * 64 * 1024);
  std::vector<std::vector<std::byte>> bufs;
  for (int i = 0; i < 4; ++i) bufs.emplace_back(64 * 1024);

  sim::Time cost = 0;
  for (int i = 0; i < 3; ++i) c.release(c.acquire(bufs[i].data(), 64 * 1024, &cost));
  // A hit refreshes buffer 0, so buffer 1 is now the least recently used.
  c.release(c.acquire(bufs[0].data(), 64 * 1024, &cost));
  c.release(c.acquire(bufs[3].data(), 64 * 1024, &cost));  // one over budget
  EXPECT_EQ(fx.evictions.value(), 1u);
  EXPECT_EQ(c.entries(), 3u);

  const std::uint64_t hits = fx.hits.value();
  c.release(c.acquire(bufs[0].data(), 64 * 1024, &cost));
  c.release(c.acquire(bufs[2].data(), 64 * 1024, &cost));
  EXPECT_EQ(fx.hits.value(), hits + 2);  // 0 and 2 stayed
  const std::uint64_t misses = fx.misses.value();
  c.release(c.acquire(bufs[1].data(), 64 * 1024, &cost));
  EXPECT_EQ(fx.misses.value(), misses + 1);  // 1 was the one evicted
}

TEST(PinCache, ShortEntryAtTheSameBaseIsReplaced) {
  CacheFixture fx;
  PinCache c = fx.make();
  std::vector<std::byte> buf(64 * 1024);

  sim::Time cost = 0;
  c.release(c.acquire(buf.data(), 4096, &cost));
  PinCache::Region* r = c.acquire(buf.data(), 64 * 1024, &cost);  // longer: a miss
  EXPECT_EQ(fx.misses.value(), 2u);
  EXPECT_EQ(r->len, 64 * 1024);
  // The short entry was deregistered, not kept beside the long one.
  EXPECT_EQ(c.entries(), 1u);
  EXPECT_EQ(fx.hca->mem().region_count(), 1u);
  c.release(r);
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

TEST(PinCache, RecycledPayloadBlockForgetsItsRegistration) {
  CacheFixture fx;
  PinCache c = fx.make();
  const BlockPool& pool = BlockPool::shared();
  const std::vector<std::byte> bytes(256 * 1024);

  // The first payload takes a BlockPool block; once consumed, the next one
  // reuses it (the free lists are LIFO).
  const std::byte* block = Payload::copy(bytes.data(), bytes.size()).data();
  Payload p = Payload::copy(bytes.data(), bytes.size());
  ASSERT_EQ(p.data(), block);

  sim::Time cost = 0;
  c.release(c.acquire(p.data() + 4096, 64 * 1024, &cost));
  EXPECT_EQ(c.entries(), 1u);

  const std::size_t free_before = pool.stats().free_bytes;
  p = Payload();  // consumed: the block goes back on the free list
  EXPECT_EQ(pool.stats().free_bytes, free_before + bytes.size());
  EXPECT_EQ(c.entries(), 0u);
  EXPECT_EQ(fx.hca->mem().region_count(), 0u);

  // The block's next payload is a different buffer: it misses.
  Payload q = Payload::copy(bytes.data(), bytes.size());
  ASSERT_EQ(q.data(), block);
  c.release(c.acquire(q.data() + 4096, 64 * 1024, &cost));
  EXPECT_EQ(fx.hits.value(), 0u);
  EXPECT_EQ(fx.misses.value(), 2u);
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

TEST(PinCache, JobFreesLeaveTheCacheUnchanged) {
  // A host job's frees return before the delete hook walks the caches; the
  // job contract makes that safe, since a block a job allocates and frees
  // was never registered.
  CacheFixture fx;
  PinCache c = fx.make();
  std::vector<std::byte> a(64 * 1024), b(256 * 1024);
  sim::Time cost = 0;
  c.release(c.acquire(a.data(), 64 * 1024, &cost));
  c.release(c.acquire(b.data() + 4096, 32 * 1024, &cost));
  const std::size_t entries = c.entries();
  const std::int64_t resident = c.resident_bytes();

  std::atomic<bool> started{false}, release{false};
  const bool workers = std::thread::hardware_concurrency() > 1;
  bool on_worker = false;
  auto grow = [&] {
    on_worker = sim::on_host_worker();
    started = true;
    while (workers && !release) std::this_thread::yield();
    std::vector<std::byte> v;
    for (std::size_t n = 1; n <= (1u << 20); n *= 2) v.resize(n);  // frees each smaller block
  };
  sim::HostJob job(grow);
  // Nothing joins yet, so with workers only one of them can start the job.
  while (!started) std::this_thread::yield();
  release = true;
  job.join();

  EXPECT_EQ(on_worker, workers);
  EXPECT_EQ(c.entries(), entries);
  EXPECT_EQ(c.resident_bytes(), resident);
  EXPECT_EQ(fx.hca->mem().region_count(), entries);
}

}  // namespace
}  // namespace ib12x::mvx
