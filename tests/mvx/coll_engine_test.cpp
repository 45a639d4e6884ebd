// The collective schedule engine: non-blocking collectives, overlap with
// compute, overlapping collectives on several communicators, the multi-lane
// decomposition, the tag-ring wraparound fix, and waitany/waitsome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "mvx/coll/engine.hpp"
#include "mvx/coll/schedule.hpp"
#include "mvx/coll/tags.hpp"
#include "mvx/mpi.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

// ---------------------------------------------------------------- tag ring

TEST(TagRing, TagLayoutAndReserve) {
  coll::TagRing ring;
  coll::TagRing::Block b0 = ring.reserve();
  EXPECT_EQ(b0.slot, 0);
  EXPECT_EQ(b0.tag(0), coll::TagRing::kCollectiveBit);
  EXPECT_EQ(b0.tag(5), coll::TagRing::kCollectiveBit | 5);
  coll::TagRing::Block b1 = ring.reserve();
  EXPECT_EQ(b1.slot, 1);
  EXPECT_EQ(b1.tag(0), coll::TagRing::kCollectiveBit | (1 << coll::TagRing::kIndexBits));
  // Tags of different slots can never collide.
  EXPECT_NE(b0.tag(coll::TagRing::kTagsPerSlot - 1), b1.tag(0));
  EXPECT_THROW((void)b0.tag(coll::TagRing::kTagsPerSlot), std::exception);
  EXPECT_EQ(ring.active(), 2);
  ring.release(b0.slot);
  ring.release(b1.slot);
  EXPECT_EQ(ring.active(), 0);
}

TEST(TagRing, WrapBoundaryBusyAndRelease) {
  coll::TagRing ring;
  coll::TagRing::Block held = ring.reserve();  // slot 0, still in flight
  // 2^16 collectives later the sequence wraps back onto slot 0.
  ring.set_seq_for_test(coll::TagRing::kSlots);
  EXPECT_EQ(ring.next_slot(), held.slot);
  EXPECT_TRUE(ring.next_busy());
  ring.release(held.slot);
  EXPECT_FALSE(ring.next_busy());
  coll::TagRing::Block again = ring.reserve();
  EXPECT_EQ(again.slot, 0);
  // Same slot, same tag values: tags are a pure function of the sequence.
  EXPECT_EQ(again.tag(0), held.tag(0));
}

TEST(CollEngine, CollectivesAgreeAcrossTagWrap) {
  // Jump every rank's ring to just below the wrap boundary and run
  // collectives across it: tags keep matching because the slot is a pure
  // function of the shared per-comm sequence.
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  w.run([](Communicator& c) {
    c.debug_tag_ring().set_seq_for_test(coll::TagRing::kSlots - 3);
    const int p = c.size();
    for (int i = 0; i < 8; ++i) {
      std::int64_t mine = c.rank() + 1 + i;
      std::int64_t sum = 0;
      c.allreduce(&mine, &sum, 1, INT64, Op::Sum);
      ASSERT_EQ(sum, p * (p + 1) / 2 + p * i);
    }
    EXPECT_GE(c.debug_tag_ring().seq(), coll::TagRing::kSlots);
    EXPECT_EQ(c.debug_tag_ring().active(), 0);
  });
}

// ------------------------------------------------- non-blocking collectives

TEST(CollEngine, NonBlockingCollectivesProduceBlockingResults) {
  for (ClusterSpec spec : {ClusterSpec{2, 2}, ClusterSpec{2, 3}}) {  // pow2 and not
    World w(spec, Config::enhanced(4, Policy::EPC));
    w.run([](Communicator& c) {
      const int p = c.size();
      const std::size_t n = 257;  // odd, so lanes/blocks do not divide evenly

      // ibarrier
      Request b = c.ibarrier();
      c.wait(b);

      // ibcast
      std::vector<std::int32_t> bc(n);
      if (c.rank() == 1 % p) {
        for (std::size_t i = 0; i < n; ++i) bc[i] = static_cast<std::int32_t>(3 * i + 7);
      }
      Request rb = c.ibcast(bc.data(), n, INT32, 1 % p);
      c.wait(rb);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(bc[i], static_cast<std::int32_t>(3 * i + 7));

      // ireduce
      std::vector<std::int64_t> rin(n), rout(n, -1);
      for (std::size_t i = 0; i < n; ++i) rin[i] = c.rank() + static_cast<std::int64_t>(i);
      Request rr = c.ireduce(rin.data(), rout.data(), n, INT64, Op::Sum, 0);
      c.wait(rr);
      if (c.rank() == 0) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(rout[i], p * (p - 1) / 2 + p * static_cast<std::int64_t>(i));
        }
      }

      // iallreduce
      std::vector<double> ain(n), aout(n);
      for (std::size_t i = 0; i < n; ++i) ain[i] = c.rank() + 0.25 * static_cast<double>(i % 7);
      Request ra = c.iallreduce(ain.data(), aout.data(), n, DOUBLE, Op::Sum);
      c.wait(ra);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_DOUBLE_EQ(aout[i], p * (p - 1) / 2.0 + p * 0.25 * static_cast<double>(i % 7));
      }

      // iallgather
      std::vector<std::int32_t> gin(n), gout(n * static_cast<std::size_t>(p), -1);
      for (std::size_t i = 0; i < n; ++i) gin[i] = c.rank() * 1000 + static_cast<std::int32_t>(i);
      Request rg = c.iallgather(gin.data(), gout.data(), n, INT32);
      c.wait(rg);
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(gout[static_cast<std::size_t>(r) * n + i],
                    r * 1000 + static_cast<std::int32_t>(i));
        }
      }

      // ialltoall
      std::vector<std::int32_t> tin(n * static_cast<std::size_t>(p)),
          tout(n * static_cast<std::size_t>(p), -1);
      for (int d = 0; d < p; ++d) {
        for (std::size_t i = 0; i < n; ++i) {
          tin[static_cast<std::size_t>(d) * n + i] =
              c.rank() * 10000 + d * 100 + static_cast<std::int32_t>(i % 89);
        }
      }
      Request rt = c.ialltoall(tin.data(), tout.data(), n, INT32);
      c.wait(rt);
      for (int s = 0; s < p; ++s) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(tout[static_cast<std::size_t>(s) * n + i],
                    s * 10000 + c.rank() * 100 + static_cast<std::int32_t>(i % 89));
        }
      }
    });
  }
}

TEST(CollEngine, OverlappingCollectivesOnOneCommunicator) {
  // Two non-blocking collectives in flight on the same communicator draw
  // tags from distinct slots, so their transfers cannot cross-match.
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  w.run([](Communicator& c) {
    const int p = c.size();
    const std::size_t n = 2048;
    std::vector<double> ain(n, 1.0 + c.rank()), aout(n);
    std::vector<std::int32_t> bc(n);
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < n; ++i) bc[i] = static_cast<std::int32_t>(i ^ 0x55);
    }
    Request ra = c.iallreduce(ain.data(), aout.data(), n, DOUBLE, Op::Sum);
    Request rb = c.ibcast(bc.data(), n, INT32, 0);
    Request rbar = c.ibarrier();
    std::vector<Request> reqs{ra, rb, rbar};
    c.waitall(reqs);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(aout[i], p + p * (p - 1) / 2.0);
      ASSERT_EQ(bc[i], static_cast<std::int32_t>(i ^ 0x55));
    }
    EXPECT_EQ(c.debug_tag_ring().active(), 0);
  });
}

TEST(CollEngine, OverlappingCollectivesOnDupAndSplitComms) {
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  w.run([](Communicator& c) {
    const int p = c.size();
    Communicator d = c.dup();

    // One collective per communicator, all in flight at once.
    std::int64_t one = c.rank() + 1, sum_c = 0, sum_d = 0;
    Request ra = c.iallreduce(&one, &sum_c, 1, INT64, Op::Sum);
    Request rb = d.iallreduce(&one, &sum_d, 1, INT64, Op::Max);
    c.wait(ra);
    c.wait(rb);
    ASSERT_EQ(sum_c, p * (p + 1) / 2);
    ASSERT_EQ(sum_d, p);

    // Split into node halves; subcomm collective overlapped with a parent
    // barrier.
    Communicator s = c.split(c.rank() / 2, c.rank());
    ASSERT_EQ(s.size(), 2);
    std::int64_t sub_sum = 0;
    Request rs = s.iallreduce(&one, &sub_sum, 1, INT64, Op::Sum);
    Request rbar = c.ibarrier();
    c.wait(rs);
    c.wait(rbar);
    const std::int64_t lo = (c.rank() / 2) * 2;  // ranks lo, lo+1 share my color
    ASSERT_EQ(sub_sum, (lo + 1) + (lo + 2));
  });
}

TEST(CollEngine, IallreduceOverlapsWithComputeAtLeastHalf) {
  // Acceptance criterion: a non-blocking allreduce overlapped with compute()
  // must hide at least 50% of its standalone time.
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  constexpr std::size_t n = 32768;  // 256 KiB of doubles
  w.run([](Communicator& c) {
    std::vector<double> in(n, 1.0 + c.rank()), out(n);

    // Standalone collective time, agreed across ranks.
    c.barrier();
    const sim::Time t0 = c.now();
    c.allreduce(in.data(), out.data(), n, DOUBLE, Op::Sum);
    std::int64_t mine = static_cast<std::int64_t>(c.now() - t0);
    std::int64_t t_coll = 0;
    c.allreduce(&mine, &t_coll, 1, INT64, Op::Max);

    const sim::Time t_compute = static_cast<sim::Time>(2 * t_coll);
    c.barrier();
    const sim::Time t1 = c.now();
    Request r = c.iallreduce(in.data(), out.data(), n, DOUBLE, Op::Sum);
    c.compute(t_compute);
    c.wait(r);
    std::int64_t total_mine = static_cast<std::int64_t>(c.now() - t1);
    std::int64_t t_total = 0;
    c.allreduce(&total_mine, &t_total, 1, INT64, Op::Max);

    // hidden fraction = (t_coll + t_compute - t_total) / t_coll >= 0.5
    EXPECT_LE(static_cast<double>(t_total),
              static_cast<double>(t_compute) + 0.5 * static_cast<double>(t_coll))
        << "t_coll=" << t_coll << " t_total=" << t_total;
    const int p = c.size();
    for (std::size_t i = 0; i < n; i += 997) {
      ASSERT_DOUBLE_EQ(out[i], p + p * (p - 1) / 2.0);
    }
  });
}

TEST(CollEngine, IbcastOverlapsWithCompute) {
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  constexpr std::size_t kBytes = 1 << 18;
  w.run([](Communicator& c) {
    std::vector<std::byte> buf(kBytes);
    if (c.rank() == 0) buf = testutil::payload(kBytes, 0, 42);

    c.barrier();
    const sim::Time t0 = c.now();
    c.bcast(buf.data(), kBytes, BYTE, 0);
    std::int64_t mine = static_cast<std::int64_t>(c.now() - t0);
    std::int64_t t_coll = 0;
    c.allreduce(&mine, &t_coll, 1, INT64, Op::Max);

    c.barrier();
    const sim::Time t1 = c.now();
    Request r = c.ibcast(buf.data(), kBytes, BYTE, 0);
    c.compute(static_cast<sim::Time>(2 * t_coll));
    c.wait(r);
    std::int64_t total_mine = static_cast<std::int64_t>(c.now() - t1);
    std::int64_t t_total = 0;
    c.allreduce(&total_mine, &t_total, 1, INT64, Op::Max);

    // Some of the broadcast must hide behind the compute.
    EXPECT_LT(t_total, 2 * t_coll + t_coll);
    const std::vector<std::byte> want = testutil::payload(kBytes, 0, 42);
    ASSERT_EQ(buf, want);
  });
}

// ------------------------------------------------------------- multi-lane

sim::Time timed_bcast(int lanes, ClusterSpec spec, std::size_t bytes) {
  Config cfg = Config::enhanced(4, Policy::EPC);  // 4 rails per peer pair
  cfg.coll.lanes = lanes;
  World w(spec, cfg);
  sim::Time t = 0;
  w.run([&](Communicator& c) {
    std::vector<std::byte> buf(bytes);
    if (c.rank() == 0) buf = testutil::payload(bytes, 0, 9);
    c.barrier();
    const sim::Time t0 = c.now();
    c.bcast(buf.data(), bytes, BYTE, 0);
    c.barrier();
    if (c.rank() == 0) t = c.now() - t0;
    const std::vector<std::byte> want = testutil::payload(bytes, 0, 9);
    ASSERT_EQ(buf, want) << "lanes=" << lanes;
  });
  return t;
}

TEST(CollMultiLane, BcastCorrectAllWidths) {
  for (ClusterSpec spec : {ClusterSpec{2, 2}, ClusterSpec{2, 3}}) {
    for (int lanes : {0, 2, 3}) {
      timed_bcast(lanes, spec, (1 << 20) + 13);  // non-divisible payload
    }
  }
}

TEST(CollMultiLane, BcastBeatsSingleLaneAtOneMiB) {
  // Acceptance criterion: multi-lane bcast beats the single-lane binomial
  // for >= 1 MiB payloads on the 4-rail configuration.
  const sim::Time multi = timed_bcast(/*lanes=*/0, ClusterSpec{2, 2}, 1 << 20);
  const sim::Time single = timed_bcast(/*lanes=*/1, ClusterSpec{2, 2}, 1 << 20);
  EXPECT_LT(multi, single);
}

TEST(CollMultiLane, AllreduceCorrectIncludingNonPow2) {
  for (ClusterSpec spec : {ClusterSpec{2, 2}, ClusterSpec{2, 3}}) {
    Config cfg = Config::enhanced(4, Policy::EPC);
    cfg.coll.lanes = 0;  // one lane per rail
    World w(spec, cfg);
    w.run([](Communicator& c) {
      const int p = c.size();
      const std::size_t n = 50000;  // 400 KB >= lane_threshold, odd split
      std::vector<double> in(n), out(n);
      for (std::size_t i = 0; i < n; ++i) in[i] = c.rank() + 0.5 * static_cast<double>(i % 11);
      c.allreduce(in.data(), out.data(), n, DOUBLE, Op::Sum);
      for (std::size_t i = 0; i < n; i += 239) {
        ASSERT_DOUBLE_EQ(out[i], p * (p - 1) / 2.0 + p * 0.5 * static_cast<double>(i % 11));
      }
    });
  }
}

// -------------------------------------------------------- waitany/waitsome

TEST(WaitAnySome, WaitanyReturnsCompletedIndex) {
  World w = testutil::make_pair_world(Config::enhanced(4, Policy::EPC));
  w.run([](Communicator& c) {
    constexpr std::size_t kBytes = 4096;
    if (c.rank() == 0) {
      std::vector<std::byte> b1(kBytes), b2(kBytes), b3(kBytes);
      std::vector<Request> reqs{c.irecv(b1.data(), kBytes, BYTE, 1, 1),
                                c.irecv(b2.data(), kBytes, BYTE, 1, 2),
                                c.irecv(b3.data(), kBytes, BYTE, 1, 3)};
      // Only tag 2 is in flight: waitany must return its index.
      const int first = c.waitany(reqs);
      EXPECT_EQ(first, 1);
      EXPECT_TRUE(c.test(reqs[1]));
      std::byte go{1};
      c.send(&go, 1, BYTE, 1, 99);
      c.waitall(reqs);
      EXPECT_EQ(b2, testutil::payload(kBytes, 1, 2));
      EXPECT_EQ(b1, testutil::payload(kBytes, 1, 1));
      EXPECT_EQ(b3, testutil::payload(kBytes, 1, 3));
      // With everything complete, waitany returns the lowest done index.
      EXPECT_EQ(c.waitany(reqs), 0);
    } else {
      auto p2 = testutil::payload(kBytes, 1, 2);
      c.send(p2.data(), kBytes, BYTE, 0, 2);
      std::byte go{};
      c.recv(&go, 1, BYTE, 0, 99);
      auto p1 = testutil::payload(kBytes, 1, 1);
      auto p3 = testutil::payload(kBytes, 1, 3);
      c.send(p1.data(), kBytes, BYTE, 0, 1);
      c.send(p3.data(), kBytes, BYTE, 0, 3);
    }
    EXPECT_EQ(c.waitany({}), -1);
    EXPECT_TRUE(c.waitsome({}).empty());
  });
}

TEST(WaitAnySome, WaitsomeReturnsNonEmptyCompletedSubset) {
  World w = testutil::make_pair_world(Config::enhanced(4, Policy::EPC));
  w.run([](Communicator& c) {
    constexpr std::size_t kBytes = 512;
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(kBytes));
      std::vector<Request> reqs;
      for (int t = 0; t < 4; ++t) reqs.push_back(c.irecv(bufs[t].data(), kBytes, BYTE, 1, t));
      std::vector<int> done = c.waitsome(reqs);
      ASSERT_FALSE(done.empty());
      for (int i : done) EXPECT_TRUE(c.test(reqs[static_cast<std::size_t>(i)]));
      c.waitall(reqs);
      for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(bufs[static_cast<std::size_t>(t)], testutil::payload(kBytes, 1, t));
      }
      // All done: waitsome returns every index.
      EXPECT_EQ(c.waitsome(reqs), (std::vector<int>{0, 1, 2, 3}));
    } else {
      for (int t = 0; t < 4; ++t) {
        auto p = testutil::payload(kBytes, 1, t);
        c.send(p.data(), kBytes, BYTE, 0, t);
      }
    }
  });
}

TEST(WaitAnySome, WaitanyOnCollectiveRequests) {
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  w.run([](Communicator& c) {
    const int p = c.size();
    std::int64_t one = 1, sum = 0;
    std::vector<Request> reqs{c.iallreduce(&one, &sum, 1, INT64, Op::Sum), c.ibarrier()};
    const int first = c.waitany(reqs);
    ASSERT_TRUE(first == 0 || first == 1);
    c.waitall(reqs);
    EXPECT_EQ(sum, p);
  });
}

// ------------------------------------------------------------- issue order

/// Runs a hand-built schedule on both ranks of a 2x1 world and returns, per
/// rank, the round indices in the order the engine issued them.  Five
/// chains of different speeds share the DAG: A (64 KiB rendezvous 0 -> 1),
/// B (256 B eager 1 -> 0) and C (local only) are joined by barrier round X;
/// after it D (256 B eager 0 -> 1) and E (64 KiB rendezvous 1 -> 0) run side
/// by side until a last barrier Z.  Each round first appends its index to a byte log (three
/// Copy ops shift it by one), then posts its transfer.
std::vector<std::vector<int>> multi_chain_issue_order() {
  enum : int { A0, B0, C0, A1, B1, C1, A2, B2, X, D0, E0, D1, E1, D2, Z, kRounds };
  struct Xfer {
    int from;  ///< sending rank; -1 for a local-only round
    std::int64_t bytes;
  };
  const std::vector<Xfer> xfer = {
      {0, 65536}, {1, 256}, {-1, 0}, {0, 65536}, {1, 256},   {-1, 0}, {0, 65536}, {1, 256},
      {0, 256},   {0, 256}, {1, 65536}, {0, 256}, {1, 65536}, {0, 256}, {1, 256}};
  std::vector<std::vector<int>> order(2);
  World w(ClusterSpec{2, 1}, Config::enhanced(4, Policy::EPC));
  w.run([&](Communicator& c) {
    const int me = c.rank();
    const int peer = 1 - me;
    std::vector<std::uint8_t> log(kRounds, 0), tmp(kRounds, 0), ids(kRounds);
    std::vector<std::vector<std::byte>> bufs;
    coll::CollSchedule s;
    s.ctx = 77;  // a context no communicator of this world uses
    bufs.reserve(kRounds);
    // `idx` is the index the schedule gave the round just added.
    auto fill = [&](int r, int idx) {
      ASSERT_EQ(idx, r);
      ids[static_cast<std::size_t>(r)] = static_cast<std::uint8_t>(r + 1);
      s.copy(r, tmp.data(), log.data(), kRounds - 1);
      s.copy(r, log.data() + 1, tmp.data(), kRounds - 1);
      s.copy(r, log.data(), &ids[static_cast<std::size_t>(r)], 1);
      const Xfer& x = xfer[static_cast<std::size_t>(r)];
      if (x.from < 0) return;
      bufs.emplace_back(static_cast<std::size_t>(x.bytes), std::byte{0});
      if (x.from == me) {
        s.isend(r, peer, 100 + r, bufs.back().data(), x.bytes);
      } else {
        s.irecv(r, peer, 100 + r, bufs.back().data(), x.bytes);
      }
    };
    fill(A0, s.add_round());
    fill(B0, s.add_round());
    fill(C0, s.add_round());
    fill(A1, s.add_round({A0}));
    fill(B1, s.add_round({B0}));
    fill(C1, s.add_round({C0}));
    fill(A2, s.add_round({A1}));
    fill(B2, s.add_round({B1}));
    fill(X, s.add_barrier_round());
    fill(D0, s.add_round({X}));
    fill(E0, s.add_round({X}));
    fill(D1, s.add_round({D0}));
    fill(E1, s.add_round({E0}));
    fill(D2, s.add_round({D1}));
    fill(Z, s.add_barrier_round());
    c.endpoint().wait(c.endpoint().coll_engine().launch(std::move(s)));
    for (int i = kRounds - 1; i >= 0; --i) {
      order[static_cast<std::size_t>(me)].push_back(log[static_cast<std::size_t>(i)] - 1);
    }
  });
  return order;
}

TEST(CollEngine, MultiChainIssueOrderIsFixed) {
  // Recorded from the engine that rescanned every round and every request
  // on each pass; skipping finished rounds and requests must not move it.
  // C1 goes before B1 (C is local, so C1 unblocks within the first pass),
  // B2 before A1 (B is eager, A rendezvous), and D2 before E1 after the
  // barrier.
  const std::vector<int> want = {0, 1, 2, 5, 4, 7, 3, 6, 8, 9, 10, 11, 13, 12, 14};
  const std::vector<std::vector<int>> order = multi_chain_issue_order();
  EXPECT_EQ(order[0], want);
  EXPECT_EQ(order[1], want);
}

TEST(CollEngine, RecycledScheduleIssuesInTheSameOrder) {
  // A finished schedule's storage (op, dep and round arrays, the exec's
  // per-round state) serves the next one.  Three chains of different speeds
  // (A rendezvous 0 -> 1, B eager 1 -> 0, C local) joined by a barrier round
  // run three times through take_schedule() on the same buffers.  The first
  // run registers the buffers; the next two run on recycled storage.  Their
  // orders were recorded from the engine that allocated every schedule and
  // exec afresh (its first run differs on rank 1, which issues C1 before B1
  // there).
  const std::vector<int> want[2] = {{0, 1, 2, 5, 4, 3, 6}, {0, 1, 2, 4, 5, 3, 6}};
  enum : int { A0, B0, C0, A1, B1, C1, X, kRounds };
  const std::int64_t bytes[kRounds] = {65536, 256, 0, 65536, 256, 0, 256};
  const int from[kRounds] = {0, 1, -1, 0, 1, -1, 0};
  std::vector<int> order[3][2];  // [run][rank]
  World w(ClusterSpec{2, 1}, Config::enhanced(4, Policy::EPC));
  w.run([&](Communicator& c) {
    const int me = c.rank();
    coll::CollEngine& engine = c.endpoint().coll_engine();
    std::vector<std::uint8_t> log(kRounds), tmp(kRounds), ids(kRounds);
    std::vector<std::vector<std::byte>> bufs(kRounds);
    for (int r = 0; r < kRounds; ++r) {
      ids[static_cast<std::size_t>(r)] = static_cast<std::uint8_t>(r + 1);
      bufs[static_cast<std::size_t>(r)].resize(static_cast<std::size_t>(bytes[r]));
    }
    for (auto& run : order) {
      std::fill(log.begin(), log.end(), std::uint8_t{0});
      coll::CollSchedule s = engine.take_schedule(77);
      for (int r = 0; r < kRounds; ++r) {
        const int idx = r == X ? s.add_barrier_round()
                        : r >= A1 ? s.add_round({r - 3})
                                  : s.add_round();
        ASSERT_EQ(idx, r);
        s.copy(r, tmp.data(), log.data(), kRounds - 1);
        s.copy(r, log.data() + 1, tmp.data(), kRounds - 1);
        s.copy(r, log.data(), &ids[static_cast<std::size_t>(r)], 1);
        if (from[r] < 0) continue;
        std::byte* buf = bufs[static_cast<std::size_t>(r)].data();
        if (from[r] == me) {
          s.isend(r, 1 - me, 200 + r, buf, bytes[r]);
        } else {
          s.irecv(r, 1 - me, 200 + r, buf, bytes[r]);
        }
      }
      c.endpoint().wait(engine.launch(std::move(s)));
      c.barrier();
      for (int i = kRounds - 1; i >= 0; --i) {
        run[me].push_back(log[static_cast<std::size_t>(i)] - 1);
      }
    }
  });
  for (int me = 0; me < 2; ++me) {
    EXPECT_EQ(order[1][me], want[me]) << "rank " << me;
    EXPECT_EQ(order[2][me], want[me]) << "rank " << me;
  }
}

TEST(CollEngine, RepeatedAlltoallAndAllreduceAgree) {
  // The same ialltoall and iallreduce, both in flight at once, three times on
  // one communicator and the same buffers.  The first pass wires and
  // registers; the next two run on recycled schedules, execs and requests.
  // They must give identical buffers, and take the virtual times recorded
  // from the engine that allocated all of these afresh (the two passes
  // differ from each other: model state carries over from pass to pass).
  const sim::Time want[3][4] = {{},
                                {123510128, 124311785, 123510128, 124311785},
                                {126349987, 126499987, 126349987, 126499987}};
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  constexpr std::size_t kBlock = 24 * 1024;  // rendezvous between nodes
  constexpr std::size_t kCount = 3001;       // odd: uneven Rabenseifner blocks
  std::vector<std::byte> a2a_out[3][4];
  std::vector<std::int64_t> sum_out[3][4];
  sim::Time took[3][4] = {};
  w.run([&](Communicator& c) {
    const auto me = static_cast<std::size_t>(c.rank());
    const auto p = static_cast<std::size_t>(c.size());
    std::vector<std::byte> send(kBlock * p), recv(kBlock * p);
    for (std::size_t d = 0; d < p; ++d) {
      const auto blk = testutil::payload(kBlock, c.rank(), static_cast<int>(d));
      std::memcpy(send.data() + d * kBlock, blk.data(), kBlock);
    }
    std::vector<std::int64_t> in(kCount), out(kCount);
    for (std::size_t i = 0; i < kCount; ++i) in[i] = static_cast<std::int64_t>(me * 1000 + i);
    for (int pass = 0; pass < 3; ++pass) {
      std::fill(recv.begin(), recv.end(), std::byte{0});
      std::fill(out.begin(), out.end(), -1);
      c.barrier();
      const sim::Time t0 = c.now();
      Request ra = c.ialltoall(send.data(), recv.data(), kBlock, BYTE);
      Request rs = c.iallreduce(in.data(), out.data(), kCount, INT64, Op::Sum);
      c.wait(ra);
      c.wait(rs);
      took[pass][me] = c.now() - t0;
      a2a_out[pass][me] = recv;
      sum_out[pass][me] = out;
      for (std::size_t s = 0; s < p; ++s) {
        const auto blk = testutil::payload(kBlock, static_cast<int>(s), c.rank());
        ASSERT_EQ(std::memcmp(recv.data() + s * kBlock, blk.data(), kBlock), 0);
      }
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(out[i], static_cast<std::int64_t>(1000 * p * (p - 1) / 2 + p * i));
      }
    }
  });
  for (std::size_t me = 0; me < 4; ++me) {
    EXPECT_EQ(a2a_out[2][me], a2a_out[1][me]) << "rank " << me;
    EXPECT_EQ(sum_out[2][me], sum_out[1][me]) << "rank " << me;
    EXPECT_EQ(took[1][me], want[1][me]) << "rank " << me;
    EXPECT_EQ(took[2][me], want[2][me]) << "rank " << me;
  }
}

}  // namespace
}  // namespace ib12x::mvx
