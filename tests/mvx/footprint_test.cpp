// Host-memory footprint of a wired job: the modelled eager pools keep their
// full size, but the host must back only what the model writes.  Each rank
// registers its eager bounce pool as one region per local HCA (not one per
// buffer), and neither the pools nor idle QP/peer queues are touched until
// a message lands in them.  Both pools hand out slots LIFO (an SRQ slot is
// bound when a message is delivered, not when its WQE is posted), so the
// host backs only the slots ever in flight at once.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "mvx/mpi.hpp"

// ASan's allocator (redzones, quarantine, shadow memory) inflates RSS, so
// under it only the region count is checked.
#if defined(__SANITIZE_ADDRESS__)
#define IB12X_HOST_RSS_MEANINGFUL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IB12X_HOST_RSS_MEANINGFUL 0
#endif
#endif
#ifndef IB12X_HOST_RSS_MEANINGFUL
#define IB12X_HOST_RSS_MEANINGFUL 1
#endif

namespace ib12x::mvx {
namespace {

/// Resident set size of this process in KiB, or -1 where /proc is absent.
long vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      long kib = -1;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 12, '\n');
  }
  return -1;
}

TEST(Footprint, FatTree64BacksOnlyTouchedEagerMemory) {
  constexpr int kNodes = 16;
  constexpr int kPerNode = 4;
  constexpr int kRanks = kNodes * kPerNode;
  Config cfg = Config::enhanced(4, Policy::EPC);
  cfg.topo.shape = ib::TopoShape::FatTree;
  cfg.topo.contention = true;
  const std::size_t eager = 1024;
  const std::size_t rndv = static_cast<std::size_t>(cfg.rndv_threshold);

  // Application buffers are allocated and touched before the baseline so the
  // RSS delta below is the simulator's own.  Every rank sends from the same
  // read-only block; each receives into its own.
  std::vector<std::byte> send(kRanks * rndv);
  for (std::size_t i = 0; i < send.size(); ++i) send[i] = static_cast<std::byte>(i * 7 + 3);
  std::vector<std::vector<std::byte>> recv(kRanks, std::vector<std::byte>(kRanks * rndv));

  const long rss_before = vm_rss_kib();
  World w(ClusterSpec{kNodes, kPerNode}, cfg);
  w.run([&](Communicator& c) {
    std::byte* rbuf = recv[static_cast<std::size_t>(c.rank())].data();
    for (const std::size_t per : {eager, rndv}) {
      c.alltoall(send.data(), rbuf, per, BYTE);
      for (int s = 0; s < kRanks; ++s) {
        const std::size_t mine = static_cast<std::size_t>(c.rank()) * per;
        ASSERT_EQ(rbuf[static_cast<std::size_t>(s) * per], send[mine]);
        ASSERT_EQ(rbuf[static_cast<std::size_t>(s) * per + per - 1], send[mine + per - 1]);
      }
    }
  });
  const long rss_after = vm_rss_kib();

  ASSERT_GT(w.telemetry().counter_value("rndv.rts_sent"), 0u);
  // Per HCA: one bounce-pool region and one SRQ arena per local rank, plus
  // whatever the pin-down cache still holds.  Every cache miss registers one
  // interval per local HCA (one here), so the live pins are at most the misses.
  std::uint64_t regions = 0;
  ASSERT_EQ(w.fabric().hca_count(), kNodes);
  for (int h = 0; h < kNodes; ++h) {
    const std::size_t n = w.fabric().hca(h).mem().region_count();
    EXPECT_GE(n, 2u * kPerNode) << "hca " << h;
    regions += n;
  }
  const std::uint64_t pinned = regions - 2u * kRanks;
  EXPECT_GT(pinned, 0u);
  EXPECT_LE(pinned, w.telemetry().counter_value("rndv.reg_cache_misses"));

  if (!IB12X_HOST_RSS_MEANINGFUL || rss_before < 0 || rss_after < 0) {
    GTEST_SKIP() << "host RSS not measurable here (no /proc or sanitizer allocator)";
  }
  const double mib_per_rank = static_cast<double>(rss_after - rss_before) / 1024.0 / kRanks;
  EXPECT_LT(mib_per_rank, 0.75) << "host RSS grew " << mib_per_rank << " MiB per rank";
  RecordProperty("rss_mib_per_rank", std::to_string(mib_per_rank));
}

}  // namespace
}  // namespace ib12x::mvx
