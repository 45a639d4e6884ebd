// The process's BlockPool: LIFO reuse that outlives a World, the live
// high-water bound on what it keeps, registrations forgotten on release, the
// simulator-thread-only rule and AddressSanitizer poisoning of free blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "mvx/block_pool.hpp"
#include "mvx/mpi.hpp"
#include "mvx/pin_cache.hpp"
#include "sim/host_pool.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define IB12X_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IB12X_TEST_ASAN 1
#endif
#endif
#ifdef IB12X_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ib12x::mvx {
namespace {

constexpr std::size_t kKiB = 1024;

TEST(BlockPool, BlockIsReusedLifoAcrossWorlds) {
  // Two blocks of one class taken in one World and released a then b come
  // back b then a in the next World, without a new mapping.
  const Config cfg = Config::enhanced(4, Policy::EPC);
  std::byte* first = nullptr;
  std::byte* second = nullptr;
  {
    World w(ClusterSpec{1, 1}, cfg);
    w.run([&](Communicator&) {
      auto a = std::make_unique<PoolVector<std::byte>>(256 * kKiB);
      PoolVector<std::byte> b(256 * kKiB);
      std::fill(b.begin(), b.end(), std::byte{0xab});
      first = a->data();
      second = b.data();
      a.reset();
    });
  }
  const std::uint64_t mapped = BlockPool::shared().stats().mapped;
  {
    World w(ClusterSpec{1, 1}, cfg);
    w.run([&](Communicator&) {
      PoolVector<std::byte> x(256 * kKiB);
      PoolVector<std::byte> y(200 * kKiB);  // same 256 KiB class
      EXPECT_EQ(x.data(), second);
      EXPECT_EQ(y.data(), first);
      // Value-initialised like any vector, whatever the block held before.
      EXPECT_TRUE(std::all_of(x.begin(), x.end(), [](std::byte v) { return v == std::byte{0}; }));
    });
  }
  EXPECT_EQ(BlockPool::shared().stats().mapped, mapped);
}

TEST(BlockPool, LivePlusFreeNeverExceedsLiveHighWater) {
  BlockPool pool;
  sim::Rng rng(7);
  struct Held {
    std::byte* block;
    std::size_t bytes;
  };
  std::vector<Held> held;
  auto check = [&] {
    const BlockPool::Stats& s = pool.stats();
    ASSERT_LE(s.live_bytes + s.free_bytes, s.live_hwm);
  };
  for (int step = 0; step < 2000; ++step) {
    if (held.empty() || (held.size() < 24 && rng.next_below(2) == 0)) {
      // Six classes, 128 KiB to 4 MiB.
      const std::size_t cls = (128 * kKiB) << rng.next_below(6);
      const std::size_t bytes = std::max(BlockPool::kMinBytes, cls - rng.next_below(cls / 2));
      held.push_back({pool.acquire(bytes), bytes});
      held.back().block[0] = std::byte{1};  // the block is writable
    } else {
      const std::size_t i = rng.next_below(held.size());
      pool.release(held[i].block, held[i].bytes);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    }
    check();
  }
  for (const Held& h : held) pool.release(h.block, h.bytes);
  held.clear();
  EXPECT_EQ(pool.stats().live_bytes, 0u);
  EXPECT_GT(pool.stats().free_bytes, 0u);
  // A block of at least twice the mark raises the mark to its own size, so
  // before mapping it the pool unmaps every free block.
  const std::size_t big = 2 * pool.stats().live_hwm;
  std::byte* b = pool.acquire(big);
  EXPECT_EQ(pool.stats().free_bytes, 0u);
  EXPECT_EQ(pool.stats().live_hwm, pool.stats().live_bytes);
  pool.release(b, big);
}

TEST(BlockPool, BlockReleasedWhileRegisteredForgetsItsRegistration) {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  ib::Hca* hca = &fabric.add_hca(0);
  TelemetryRegistry tel;
  Counter& hits = tel.counter("hits");
  Counter& misses = tel.counter("misses");
  PinCache cache({hca}, PinCache::Options{}, hits, misses);

  auto v = std::make_unique<PoolVector<std::byte>>(512 * kKiB);
  const std::byte* block = v->data();
  sim::Time cost = 0;
  cache.release(cache.acquire(v->data() + 8 * kKiB, 64 * kKiB, &cost));
  PinCache::Region* pinned = cache.acquire(v->data() + 128 * kKiB, 64 * kKiB, &cost);
  EXPECT_EQ(cache.entries(), 2u);

  v.reset();  // back on the free list
  EXPECT_EQ(cache.entries(), 0u);
  // The pinned interval lives on until its last release, as for a heap block.
  EXPECT_EQ(hca->mem().region_count(), 1u);
  cache.release(pinned);
  EXPECT_EQ(hca->mem().region_count(), 0u);

  // The block's next owner is a different buffer: it misses.
  PoolVector<std::byte> w(512 * kKiB);
  ASSERT_EQ(w.data(), block);
  cache.release(cache.acquire(w.data() + 8 * kKiB, 64 * kKiB, &cost));
  EXPECT_EQ(hits.value(), 0u);
  EXPECT_EQ(misses.value(), 3u);
}

TEST(BlockPool, SmallAllocationsStayOnTheHeap) {
  const BlockPool::Stats before = BlockPool::shared().stats();
  PoolVector<std::byte> v(BlockPool::kMinBytes - 1);
  EXPECT_EQ(BlockPool::shared().stats().acquired, before.acquired);
  v.reserve(BlockPool::kMinBytes);
  EXPECT_EQ(BlockPool::shared().stats().acquired, before.acquired + 1);
}

TEST(BlockPool, HostWorkerMayNotTakeABlock) {
  if (std::thread::hardware_concurrency() < 2) GTEST_SKIP() << "the host pool has no workers";
  std::atomic<bool> started{false}, go{false};
  bool on_worker = false;
  auto take = [&] {
    on_worker = sim::on_host_worker();
    started = true;
    while (!go) std::this_thread::yield();
    PoolVector<std::byte> v(BlockPool::kMinBytes);
  };
  sim::HostJob job(take);
  // Nothing joins yet, so only a worker can start the job.
  while (!started) std::this_thread::yield();
  go = true;
  ASSERT_TRUE(on_worker);
  EXPECT_THROW(job.join(), std::logic_error);
}

TEST(BlockPool, FreeBlocksArePoisonedUnderAsan) {
#ifndef IB12X_TEST_ASAN
  GTEST_SKIP() << "built without AddressSanitizer";
#else
  BlockPool pool;
  std::byte* b = pool.acquire(200 * kKiB);
  EXPECT_FALSE(__asan_address_is_poisoned(b));
  EXPECT_FALSE(__asan_address_is_poisoned(b + 200 * kKiB - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(b + 200 * kKiB));  // past the request
  pool.release(b, 200 * kKiB);
  EXPECT_TRUE(__asan_address_is_poisoned(b));
  std::byte* again = pool.acquire(256 * kKiB);
  ASSERT_EQ(again, b);
  EXPECT_FALSE(__asan_address_is_poisoned(b + 256 * kKiB - 1));
  pool.release(again, 256 * kKiB);
#endif
}

}  // namespace
}  // namespace ib12x::mvx
