// Pipelined zero-copy rendezvous: correctness across sizes and policies,
// chunked-CTS accounting, the one-chunk default, pin-down cache reuse,
// doorbell batching of read pulls, and the
// stripe-planning fixes (weighted clamp, base-rail rotation).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "mvx/mpi.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

using testutil::payload;

Config pipelined(int qps, Policy p) {
  Config cfg = Config::enhanced(qps, p);
  cfg.rndv_pipeline_chunk = 64 * 1024;
  return cfg;
}

TEST(RndvPipeline, DeliversAcrossSizesAndPolicies) {
  for (Policy p : {Policy::EPC, Policy::EvenStriping, Policy::RoundRobin}) {
    Config cfg = pipelined(4, p);
    World w(ClusterSpec{2, 1}, cfg);
    w.run([&](Communicator& c) {
      // Chunk-aligned, sub-chunk, non-aligned tail, and multi-chunk sizes.
      for (std::size_t n : {16384ul, 65536ul, 100000ul, 1048576ul, 1048577ul}) {
        if (c.rank() == 0) {
          auto data = payload(n, 0);
          c.send(data.data(), n, BYTE, 1, 0);
        } else {
          std::vector<std::byte> got(n);
          c.recv(got.data(), n, BYTE, 0, 0);
          EXPECT_EQ(got, payload(n, 0)) << to_string(p) << " n=" << n;
        }
      }
    });
  }
}

TEST(RndvPipeline, NonblockingWindowDelivers) {
  Config cfg = pipelined(4, Policy::EPC);
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    constexpr std::size_t kBytes = 256 * 1024;
    constexpr int kWindow = 8;
    std::vector<std::vector<std::byte>> bufs;
    std::vector<Request> reqs;
    for (int i = 0; i < kWindow; ++i) {
      if (c.rank() == 0) {
        bufs.push_back(payload(kBytes, 0, i));
        reqs.push_back(c.isend(bufs.back().data(), kBytes, BYTE, 1, i));
      } else {
        bufs.emplace_back(kBytes);
        reqs.push_back(c.irecv(bufs.back().data(), kBytes, BYTE, 0, i));
      }
    }
    c.waitall(reqs);
    if (c.rank() == 1) {
      for (int i = 0; i < kWindow; ++i) {
        EXPECT_EQ(bufs[static_cast<std::size_t>(i)], payload(kBytes, 0, i)) << "msg " << i;
      }
    }
  });
}

TEST(RndvPipeline, StreamsOneCtsPerChunk) {
  Config cfg = pipelined(4, Policy::EPC);
  cfg.rndv_pipeline_chunk = 64 * 1024;
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    const std::size_t n = 1 << 20;  // 16 chunks of 64 KiB
    if (c.rank() == 0) {
      auto data = payload(n, 0);
      c.send(data.data(), n, BYTE, 1, 0);
    } else {
      std::vector<std::byte> got(n);
      c.recv(got.data(), n, BYTE, 0, 0);
    }
  });
  EXPECT_EQ(w.telemetry().counter_value("rndv.cts_chunks"), 16u);
  EXPECT_GE(w.telemetry().counter_value("rndv.pipeline_depth"), 1u);
  // Blocking EPC traffic stripes each chunk over several rails.
  EXPECT_GT(w.telemetry().counter_value("rndv.stripes_posted"), 16u);
}

TEST(RndvPipeline, PinCacheReusedAcrossMessagesAndInteriorSends) {
  Config cfg = pipelined(4, Policy::EPC);
  World w(ClusterSpec{2, 1}, cfg);
  const std::size_t n = 512 * 1024;
  w.run([&](Communicator& c) {
    std::vector<std::byte> buf(n);
    for (int iter = 0; iter < 3; ++iter) {
      if (c.rank() == 0) {
        // Second and third sends reuse the pinned chunks; the third sends
        // from an interior pointer, which the interval lookup must cover.
        const std::size_t off = iter == 2 ? 8192 : 0;
        c.send(buf.data() + off, n - off, BYTE, 1, iter);
      } else {
        std::vector<std::byte> got(n);
        c.recv(got.data(), n, BYTE, 0, iter);
      }
    }
  });
  EXPECT_GT(w.telemetry().counter_value("rndv.reg_cache_hits"), 0u);
  // Warm iterations must not add regions: counts stay at the cold set.
  const std::uint64_t misses = w.telemetry().counter_value("rndv.reg_cache_misses");
  // Cold run: sender 8 chunks + receiver 8 chunks per rank pair for iter 0;
  // iter 1 all hits; iter 2's receiver buffer is fresh each iteration (the
  // receive side allocates per iter), so allow those misses but no sender
  // ones beyond the first pass.
  EXPECT_LT(misses, 3u * 2u * 8u);
}

TEST(RndvPipeline, StripeBatchesPostDeferredAndRingPerInvolvedQp) {
  // ReadRts pulls: the receiver stripes the 1 MiB read over 4 rails as one
  // batch, built with post_send_deferred and published by one ring per
  // involved QP (one doorbell_cpu per batch on the CPU side).  The hardware
  // counter of the pulling HCA is visible through the fabric and never
  // exceeds the WQEs it published.
  Config cfg = Config::enhanced(4, Policy::EPC);
  cfg.rndv.protocol = Config::RndvConfig::Protocol::ReadRts;
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    const std::size_t n = 1 << 20;
    if (c.rank() == 0) {
      auto data = payload(n, 0);
      c.send(data.data(), n, BYTE, 1, 0);
    } else {
      std::vector<std::byte> got(n);
      c.recv(got.data(), n, BYTE, 0, 0);
      EXPECT_EQ(got, payload(n, 0));
    }
  });
  EXPECT_GE(w.telemetry().counter_value("rndv.read_stripes"), 4u);
  const ib::Hca& puller = w.fabric().hca(1);
  EXPECT_GT(puller.total_doorbells(), 0u);
  EXPECT_LE(puller.total_doorbells(), puller.total_wqes_serviced());
}

TEST(RndvPipeline, DefaultIsOneCtsPerMessage) {
  // rndv_pipeline_chunk = 0 makes every message one chunk: one CTS per
  // rendezvous, whatever its size, and never more than one chunk in flight.
  Config cfg = Config::enhanced(4, Policy::EPC);
  ASSERT_EQ(cfg.rndv_pipeline_chunk, 0);
  World w(ClusterSpec{2, 1}, cfg);
  const std::vector<std::size_t> sizes = {16384, 100000, 1 << 20, (1 << 20) + 1};
  w.run([&](Communicator& c) {
    for (std::size_t n : sizes) {
      if (c.rank() == 0) {
        auto data = payload(n, 0);
        c.send(data.data(), n, BYTE, 1, 0);
      } else {
        std::vector<std::byte> got(n);
        c.recv(got.data(), n, BYTE, 0, 0);
        EXPECT_EQ(got, payload(n, 0)) << "n=" << n;
      }
    }
  });
  EXPECT_EQ(w.telemetry().counter_value("rndv.rts_sent"), sizes.size());
  EXPECT_EQ(w.telemetry().counter_value("rndv.cts_chunks"), sizes.size());
  EXPECT_EQ(w.telemetry().counter_value("rndv.pipeline_depth"), 1u);
}

TEST(StripePlanning, BaseRailRotatesWhenFewerStripesThanRails) {
  // min_stripe forces n=2 stripes on 4 rails; without rotation every
  // message lands on rails {0,1} and rails {2,3} never see data.
  Config cfg = Config::enhanced(1, Policy::EvenStriping);
  cfg.hcas_per_node = 2;
  cfg.ports_per_hca = 2;
  cfg.min_stripe = 16 * 1024;  // 32 KiB message → 2 stripes < 4 rails
  World w(ClusterSpec{2, 1}, cfg);
  const std::size_t n = 32 * 1024;
  w.run([&](Communicator& c) {
    for (int iter = 0; iter < 4; ++iter) {
      if (c.rank() == 0) {
        auto data = payload(n, 0, iter);
        c.send(data.data(), n, BYTE, 1, iter);
      } else {
        std::vector<std::byte> got(n);
        c.recv(got.data(), n, BYTE, 0, iter);
        EXPECT_EQ(got, payload(n, 0, iter));
      }
    }
  });
  for (int h = 0; h < 2; ++h) {
    for (int p = 0; p < 2; ++p) {
      EXPECT_GE(w.fabric().hca(h).port(p).bytes_tx(), static_cast<std::uint64_t>(16 * 1024))
          << "rail h" << h << "p" << p << " never carried a stripe";
    }
  }
}

}  // namespace
}  // namespace ib12x::mvx
