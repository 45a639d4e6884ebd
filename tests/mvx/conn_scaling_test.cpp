// Connection-scaling refactor coverage: the lazy connection manager's state
// machine (queue/flush FIFO, simultaneous connect, rendezvous-first contact)
// and the SRQ-backed pooled eager path (low-watermark replenish, RNR-style
// pool-dry backpressure), plus the telemetry-asserted scaling properties —
// QPs and pinned eager bytes O(active peers), not O(ranks²) — and the
// rank-indexed peer slots of the connection manager and net channel, which
// must keep their ordering and error diagnostics.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mvx/conn_manager.hpp"
#include "mvx/endpoint.hpp"
#include "mvx/mpi.hpp"
#include "mvx/net_channel.hpp"
#include "mvx/wire.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

using testutil::payload;

/// Nearest-neighbour ring exchange: every rank sendrecvs one message with
/// each ring neighbour, so exactly `ranks` pairs (the ring edges) ever talk.
void ring_exchange(Communicator& c, std::size_t bytes) {
  const int right = (c.rank() + 1) % c.size();
  const int left = (c.rank() + c.size() - 1) % c.size();
  const std::vector<std::byte> out = payload(bytes, c.rank(), /*tag=*/7);
  std::vector<std::byte> in(bytes);
  c.sendrecv(out.data(), bytes, BYTE, right, 7, in.data(), bytes, BYTE, left, 7);
  ASSERT_EQ(in, payload(bytes, left, 7));
}

TEST(ConnScaling, LazyWiresOnlyActivePeers) {
  // 32 ranks, ring traffic: 32 pairs are active out of 32*31/2 = 496.  Lazy
  // wiring must create QPs for the active pairs only — 2 sides × rails per
  // pair — while connect_all() wires all 496 pairs' worth up front.
  const int kRanks = 32;
  const Config cfg = Config::original();
  World wl(ClusterSpec{kRanks, 1}, cfg);
  wl.run([](Communicator& c) { ring_exchange(c, 512); });
  const std::uint64_t lazy_qps = wl.telemetry().counter_value("conn.qps_created");
  const std::uint64_t lazy_est = wl.telemetry().counter_value("conn.established");
  EXPECT_EQ(lazy_qps, static_cast<std::uint64_t>(kRanks * 2 * cfg.rails()));
  EXPECT_EQ(lazy_est, static_cast<std::uint64_t>(kRanks * 2));  // 2 sides per ring edge
  EXPECT_GE(wl.telemetry().counter_value("conn.handshakes_inflight"), 1u);

  World ww(ClusterSpec{kRanks, 1}, cfg);
  ww.connect_all();
  const std::uint64_t wired_qps = ww.telemetry().counter_value("conn.qps_created");
  EXPECT_EQ(wired_qps,
            static_cast<std::uint64_t>(kRanks * (kRanks - 1) * cfg.rails()));  // all pairs
  EXPECT_EQ(ww.telemetry().counter_value("conn.established"),
            static_cast<std::uint64_t>(kRanks * (kRanks - 1)));  // both sides of every pair
  EXPECT_GT(wired_qps, lazy_qps * 10);  // O(ranks²) vs O(ranks)
  ww.connect_all();  // idempotent: every pair is already Ready
  EXPECT_EQ(ww.telemetry().counter_value("conn.qps_created"), wired_qps);
  ww.run([](Communicator& c) { ring_exchange(c, 512); });
  EXPECT_EQ(ww.telemetry().counter_value("conn.qps_created"), wired_qps);
  EXPECT_EQ(ww.telemetry().counter_value("conn.handshakes_inflight"), 0u);  // none started
}

TEST(ConnScaling, LinearFootprintAt256Ranks) {
  // The acceptance bar: a 256-rank lazy+SRQ world constructs and runs with
  // O(ranks) QPs and pinned eager bytes.  The pool is deliberately small so
  // the (host) test itself stays cheap; the scaling exponent is what counts.
  const int kRanks = 256;
  Config cfg = Config::original();
  cfg.rndv_threshold = 2048;
  cfg.srq_pool_slots = 32;
  cfg.send_bounce_bufs = 32;
  World w(ClusterSpec{kRanks, 1}, cfg);
  w.run([](Communicator& c) { ring_exchange(c, 256); });

  EXPECT_EQ(w.telemetry().counter_value("conn.qps_created"),
            static_cast<std::uint64_t>(kRanks * 2 * cfg.rails()));
  // One SRQ arena per rank (per HCA), regardless of peer count.
  const std::uint64_t slot_bytes =
      kHeaderBytes + static_cast<std::uint64_t>(cfg.rndv_threshold);
  const std::uint64_t pool = w.telemetry().counter_value("eager.pool_bytes");
  EXPECT_EQ(pool, static_cast<std::uint64_t>(kRanks) *
                      static_cast<std::uint64_t>(cfg.srq_pool_slots) * slot_bytes);
  // What all-pairs wiring with per-QP receive queues would pin for the same
  // job: eager_credits slots per rail per side of every pair.  Computed, not
  // run — constructing the O(ranks²) world is what lazy wiring avoids.
  const std::uint64_t legacy = static_cast<std::uint64_t>(kRanks) * (kRanks - 1) *
                               static_cast<std::uint64_t>(cfg.rails()) *
                               static_cast<std::uint64_t>(cfg.eager_credits) * slot_bytes;
  EXPECT_GT(legacy, pool * 10);
}

TEST(ConnScaling, SimultaneousConnectWiresPairOnce) {
  // Both ranks initiate in the same handshake window (sendrecv posts the
  // recv-side initiate and the send-side initiate on both ranks at t=0).
  // The pair must be wired exactly once: rails() QPs per side, one Ready
  // transition per side.
  Config cfg;
  World w = testutil::make_pair_world(cfg);
  w.run([](Communicator& c) {
    const int peer = 1 - c.rank();
    const std::vector<std::byte> out = payload(1024, c.rank(), 3);
    std::vector<std::byte> in(1024);
    c.sendrecv(out.data(), out.size(), BYTE, peer, 3, in.data(), in.size(), BYTE, peer, 3);
    ASSERT_EQ(in, payload(1024, peer, 3));
  });
  EXPECT_EQ(w.telemetry().counter_value("conn.qps_created"),
            static_cast<std::uint64_t>(2 * cfg.rails()));
  EXPECT_EQ(w.telemetry().counter_value("conn.established"), 2u);
}

TEST(ConnScaling, QueuedSendsFlushInFifoOrder) {
  // Sends posted before the handshake completes park in the per-peer queue
  // and must flush in posting order.  Same tag on every message: if the
  // flush reordered, sequence numbers (claimed at dispatch) would hand
  // message k's payload to receive j != k.
  const int kMsgs = 12;
  World w = testutil::make_pair_world();
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        bufs.push_back(payload(64 + static_cast<std::size_t>(i) * 32, 0, i));
        reqs.push_back(c.isend(bufs.back().data(), bufs.back().size(), BYTE, 1, 5));
      }
      c.waitall(reqs);
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::byte> in(64 + static_cast<std::size_t>(i) * 32);
        c.recv(in.data(), in.size(), BYTE, 0, 5);
        ASSERT_EQ(in, payload(in.size(), 0, i)) << "message " << i << " out of order";
      }
    }
  });
}

TEST(ConnScaling, RendezvousFirstContact) {
  // First-ever message to the peer is a rendezvous transfer, queued behind
  // the handshake and flushed through the non-blocking RTS path; an eager
  // message queued right behind it must still arrive after it (same tag).
  World w = testutil::make_pair_world();
  const std::size_t big = 64 * 1024;
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      const std::vector<std::byte> a = payload(big, 0, 1);
      const std::vector<std::byte> b = payload(512, 0, 2);
      Request ra = c.isend(a.data(), a.size(), BYTE, 1, 9);
      Request rb = c.isend(b.data(), b.size(), BYTE, 1, 9);
      std::vector<Request> rs{ra, rb};
      c.waitall(rs);
    } else {
      std::vector<std::byte> a(big), b(512);
      c.recv(a.data(), a.size(), BYTE, 0, 9);
      c.recv(b.data(), b.size(), BYTE, 0, 9);
      ASSERT_EQ(a, payload(big, 0, 1));
      ASSERT_EQ(b, payload(512, 0, 2));
    }
  });
  EXPECT_GE(w.telemetry().counter_value("rndv.rts_sent"), 1u);
}

TEST(ConnScaling, ShmPeersWiredWhileASendIsSuspended) {
  // One node of eight ranks.  Rank 0 streams shm sends to rank 1; each
  // suspends rank 0's fiber while its copy is charged.  Meanwhile ranks
  // 2..7 make first contact with rank 0 at staggered times, so their
  // handshakes complete, and add shm peers to rank 0's channel, while a
  // send holds its peer entry.  The entry must survive (the ASan build
  // checks the memory; every build checks the payloads).
  const int kPerNode = 8;
  const int kStream = 200;
  const std::size_t bytes = 8 * 1024;
  World w(ClusterSpec{1, kPerNode}, Config::original());
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < kStream; ++i) {
        const std::vector<std::byte> out = payload(bytes, 0, i);
        c.send(out.data(), out.size(), BYTE, 1, 4);
      }
      for (int src = 2; src < kPerNode; ++src) {
        std::vector<std::byte> in(64);
        c.recv(in.data(), in.size(), BYTE, src, 6);
        ASSERT_EQ(in, payload(64, src, 6));
      }
    } else if (c.rank() == 1) {
      for (int i = 0; i < kStream; ++i) {
        std::vector<std::byte> in(bytes);
        c.recv(in.data(), in.size(), BYTE, 0, 4);
        ASSERT_EQ(in, payload(bytes, 0, i)) << "message " << i;
      }
    } else {
      c.compute(sim::microseconds(15.0 * (c.rank() - 1)));
      const std::vector<std::byte> out = payload(64, c.rank(), 6);
      c.send(out.data(), out.size(), BYTE, 0, 6);
    }
  });
  EXPECT_EQ(w.telemetry().counter_value("conn.established"),
            static_cast<std::uint64_t>(2 * (kPerNode - 1)));
}

TEST(ConnScaling, SrqReplenishesOnLowWatermark) {
  // A burst deep enough to drain the pool below srq_limit must trigger the
  // asynchronous limit event and at least one batched repost.  The burst is
  // queued behind the handshake, and the pool's 8 slots leave too few
  // credits to flush it at once (net.credit_stalls): the rest is parked
  // until send CQEs free credits and flush it (on_eager_resources_freed).
  Config cfg;
  cfg.srq_pool_slots = 8;
  cfg.srq_limit = 4;
  World w = testutil::make_pair_world(cfg);
  const int kMsgs = 64;
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        bufs.push_back(payload(1024, 0, i));
        reqs.push_back(c.isend(bufs.back().data(), bufs.back().size(), BYTE, 1, i));
      }
      c.waitall(reqs);
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::byte> in(1024);
        c.recv(in.data(), in.size(), BYTE, 0, i);
        ASSERT_EQ(in, payload(1024, 0, i));
      }
    }
  });
  EXPECT_GE(w.telemetry().counter_value("srq.replenishes"), 1u);
  EXPECT_EQ(w.telemetry().counter_value("srq.pool_dry"), 0u)
      << "a single sender's derived credits must never overrun the pool";
  EXPECT_GE(w.telemetry().counter_value("net.credit_stalls"), 1u);
  EXPECT_EQ(w.endpoint(0).conn().queued_total(), 0u);
}

TEST(ConnScaling, ConcurrentSendersHitPoolDryBackpressure) {
  // Per-peer credits are derived from the shared pool, so ONE sender can
  // never overrun it — but five senders phase-locked on the same handshake
  // latency can land more simultaneous deliveries than the pool holds.  The
  // overrun must surface as RNR-style stalls (srq.pool_dry) that resolve as
  // slots repost, never as lost or corrupted messages.
  Config cfg;
  cfg.srq_pool_slots = 4;
  cfg.srq_limit = 0;  // immediate repost: isolate the stall path
  cfg.wqe_build_cpu = sim::nanoseconds(0);  // post_cpu() = 0
  cfg.doorbell_cpu = sim::nanoseconds(0);
  const int kMsgs = 24;
  World w(ClusterSpec{6, 1}, cfg);
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(5 * static_cast<std::size_t>(kMsgs));
      std::vector<Request> reqs;
      for (int src = 1; src <= 5; ++src) {
        for (int i = 0; i < kMsgs; ++i) {
          auto& buf = bufs[static_cast<std::size_t>((src - 1) * kMsgs + i)];
          buf.resize(64);
          reqs.push_back(c.irecv(buf.data(), buf.size(), BYTE, src, i));
        }
      }
      c.waitall(reqs);
      for (int src = 1; src <= 5; ++src) {
        for (int i = 0; i < kMsgs; ++i) {
          ASSERT_EQ(bufs[static_cast<std::size_t>((src - 1) * kMsgs + i)],
                    payload(64, src, i))
              << "from rank " << src << " msg " << i;
        }
      }
    } else {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        bufs.push_back(payload(64, c.rank(), i));
        reqs.push_back(c.isend(bufs.back().data(), bufs.back().size(), BYTE, 0, i));
      }
      c.waitall(reqs);
    }
  });
  EXPECT_GE(w.telemetry().counter_value("srq.pool_dry"), 1u);
}

// ---- dense per-rank slots keep their diagnostics -------------------------

TEST(ConnSlots, QueuedPeersAscendAfterOutOfOrderEnqueues) {
  World w(ClusterSpec{8, 1}, Config{});
  ConnManager& conn = w.endpoint(0).conn();
  for (int peer : {5, 2, 7, 2, 3}) {
    QueuedSend qs;
    qs.tag = peer;
    conn.enqueue(peer, std::move(qs));
  }
  EXPECT_EQ(conn.queued_peers(), (std::vector<int>{2, 3, 5, 7}));
  EXPECT_EQ(conn.queued_total(), 5u);
  EXPECT_EQ(conn.queued(2), 2u);
  EXPECT_EQ(conn.queued(6), 0u);
  EXPECT_EQ(conn.queued(100), 0u);
  EXPECT_EQ(conn.state(100), ConnManager::State::Unconnected);
  EXPECT_EQ(conn.front(7).tag, 7);
  conn.pop_front(7);
  conn.pop_front(2);
  EXPECT_EQ(conn.queued_peers(), (std::vector<int>{2, 3, 5}));
  EXPECT_EQ(conn.queued_total(), 3u);
}

TEST(ConnSlots, FrontAndPopFrontOnEmptyQueueThrow) {
  World w(ClusterSpec{4, 1}, Config{});
  ConnManager& conn = w.endpoint(0).conn();
  EXPECT_THROW((void)conn.front(1), std::logic_error);      // never touched
  EXPECT_THROW(conn.pop_front(100), std::logic_error);      // beyond every slot
  EXPECT_THROW(conn.pop_front(-1), std::logic_error);
  conn.enqueue(3, QueuedSend{});
  EXPECT_THROW((void)conn.front(2), std::logic_error);      // slot exists, queue empty
  conn.pop_front(3);
  EXPECT_THROW(conn.pop_front(3), std::logic_error);        // drained
  EXPECT_EQ(conn.queued_total(), 0u);
}

TEST(ConnSlots, NetChannelPeerDiagnosticsSurviveDenseSlots) {
  // A channel with no HCAs: opening a peer needs none, and the checks under
  // test never post.
  World w(ClusterSpec{4, 1}, Config{});
  NetChannel net(w.endpoint(0), {});
  const auto expect_no_connection = [&](int rank) {
    try {
      (void)net.nrails(rank);
      ADD_FAILURE() << "nrails(" << rank << ") did not throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("no connection to rank " + std::to_string(rank)),
                std::string::npos)
          << e.what();
    }
  };
  for (int rank : {-1, 1, 2, 3, 100}) {
    EXPECT_FALSE(net.accepts(rank)) << rank;
    expect_no_connection(rank);
  }
  net.open_to(2);
  EXPECT_TRUE(net.accepts(2));
  EXPECT_EQ(net.nrails(2), w.config().rails());
  for (int rank : {-1, 1, 3, 100}) {  // below, above and far past the opened slot
    EXPECT_FALSE(net.accepts(rank)) << rank;
    expect_no_connection(rank);
  }
}

}  // namespace
}  // namespace ib12x::mvx
