// End-to-end Send/Recv transfers through the full HCA + fabric pipeline:
// data integrity, completion semantics, ordering, latency/bandwidth sanity.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "ib/verbs.hpp"
#include "ib_test_util.hpp"
#include "sim/time.hpp"

namespace ib12x::ib {
namespace {

using testutil::TwoNodeFabric;
using testutil::pattern_buffer;

TEST(Transfer, SendDeliversDataIntact) {
  TwoNodeFabric f;
  auto src = pattern_buffer(4096);
  std::vector<std::byte> dst(4096);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());

  f.b.qps[0]->post_recv({.wr_id = 10, .dst = dst.data(), .length = 4096, .lkey = dst_mr.lkey});
  f.a.qps[0]->post_send({.wr_id = 20, .opcode = Opcode::Send, .src = src.data(),
                         .length = 4096, .lkey = src_mr.lkey});

  auto send_wcs = f.drain(f.a.scq);
  ASSERT_EQ(send_wcs.size(), 1u);
  EXPECT_EQ(send_wcs[0].wr_id, 20u);
  EXPECT_EQ(send_wcs[0].opcode, WcOpcode::SendComplete);
  EXPECT_EQ(send_wcs[0].byte_len, 4096u);

  Wc rwc;
  ASSERT_TRUE(f.b.rcq.poll(rwc));
  EXPECT_EQ(rwc.wr_id, 10u);
  EXPECT_EQ(rwc.opcode, WcOpcode::RecvComplete);
  EXPECT_EQ(rwc.src_qp, f.a.qps[0]->num());
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 4096), 0);
}

TEST(Transfer, RecvCompletesBeforeSendCqe) {
  // The responder sees the data before the requester sees the ACK-driven CQE.
  TwoNodeFabric f;
  auto src = pattern_buffer(1024);
  std::vector<std::byte> dst(1024);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  f.b.qps[0]->post_recv({.wr_id = 1, .dst = dst.data(), .length = 1024, .lkey = dst_mr.lkey});
  f.a.qps[0]->post_send({.wr_id = 2, .opcode = Opcode::Send, .src = src.data(),
                         .length = 1024, .lkey = src_mr.lkey});
  f.sim.run();
  Wc swc, rwc;
  ASSERT_TRUE(f.a.scq.poll(swc));
  ASSERT_TRUE(f.b.rcq.poll(rwc));
  EXPECT_LT(rwc.timestamp, swc.timestamp);
}

TEST(Transfer, ZeroLengthSendWorks) {
  TwoNodeFabric f;
  f.b.qps[0]->post_recv({.wr_id = 5, .dst = nullptr, .length = 0, .lkey = 0});
  f.a.qps[0]->post_send({.wr_id = 6, .opcode = Opcode::Send, .src = nullptr, .length = 0, .lkey = 0});
  auto wcs = f.drain(f.a.scq);
  ASSERT_EQ(wcs.size(), 1u);
  Wc rwc;
  ASSERT_TRUE(f.b.rcq.poll(rwc));
  EXPECT_EQ(rwc.byte_len, 0u);
}

TEST(Transfer, MessagesOnOneQpArriveInOrder) {
  TwoNodeFabric f;
  const int n = 16;
  std::vector<std::vector<std::byte>> srcs, dsts;
  for (int i = 0; i < n; ++i) {
    srcs.push_back(pattern_buffer(2048, static_cast<unsigned>(i)));
    dsts.emplace_back(2048);
  }
  for (int i = 0; i < n; ++i) {
    auto mr = f.b.hca->mem().register_memory(dsts[static_cast<std::size_t>(i)].data(), 2048);
    f.b.qps[0]->post_recv({.wr_id = static_cast<std::uint64_t>(i),
                           .dst = dsts[static_cast<std::size_t>(i)].data(),
                           .length = 2048, .lkey = mr.lkey});
  }
  for (int i = 0; i < n; ++i) {
    auto mr = f.a.hca->mem().register_memory(srcs[static_cast<std::size_t>(i)].data(), 2048);
    f.a.qps[0]->post_send({.wr_id = static_cast<std::uint64_t>(100 + i), .opcode = Opcode::Send,
                           .src = srcs[static_cast<std::size_t>(i)].data(), .length = 2048,
                           .lkey = mr.lkey});
  }
  f.sim.run();
  // RC guarantees in-order delivery per QP: recv i gets payload i.
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(std::memcmp(srcs[static_cast<std::size_t>(i)].data(),
                          dsts[static_cast<std::size_t>(i)].data(), 2048), 0)
        << "message " << i;
  }
  std::size_t count = 0;
  Wc wc;
  sim::Time prev = -1;
  while (f.b.rcq.poll(wc)) {
    EXPECT_EQ(wc.wr_id, count);
    EXPECT_GE(wc.timestamp, prev);
    prev = wc.timestamp;
    ++count;
  }
  EXPECT_EQ(count, static_cast<std::size_t>(n));
}

TEST(Transfer, UnsignaledSendProducesNoSendCqe) {
  TwoNodeFabric f;
  auto src = pattern_buffer(128);
  std::vector<std::byte> dst(128);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  f.b.qps[0]->post_recv({.wr_id = 1, .dst = dst.data(), .length = 128, .lkey = dst_mr.lkey});
  f.a.qps[0]->post_send({.wr_id = 2, .opcode = Opcode::Send, .src = src.data(), .length = 128,
                         .lkey = src_mr.lkey, .signaled = false});
  f.sim.run();
  Wc wc;
  EXPECT_FALSE(f.a.scq.poll(wc));
  EXPECT_TRUE(f.b.rcq.poll(wc));
}

TEST(Transfer, RnrWithoutRecvWqeThrows) {
  TwoNodeFabric f;
  auto src = pattern_buffer(64);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  f.a.qps[0]->post_send({.wr_id = 1, .opcode = Opcode::Send, .src = src.data(), .length = 64,
                         .lkey = src_mr.lkey});
  EXPECT_THROW(f.sim.run(), std::runtime_error);
}

TEST(Transfer, RecvBufferTooSmallThrows) {
  TwoNodeFabric f;
  auto src = pattern_buffer(256);
  std::vector<std::byte> dst(64);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  f.b.qps[0]->post_recv({.wr_id = 1, .dst = dst.data(), .length = 64, .lkey = dst_mr.lkey});
  f.a.qps[0]->post_send({.wr_id = 2, .opcode = Opcode::Send, .src = src.data(), .length = 256,
                         .lkey = src_mr.lkey});
  EXPECT_THROW(f.sim.run(), std::runtime_error);
}

TEST(Transfer, UnregisteredSourceThrows) {
  TwoNodeFabric f;
  auto src = pattern_buffer(64);
  std::vector<std::byte> dst(64);
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  f.b.qps[0]->post_recv({.wr_id = 1, .dst = dst.data(), .length = 64, .lkey = dst_mr.lkey});
  // The lkey check runs when the scheduler picks the WQE up, which with free
  // engines is synchronous with the post.
  EXPECT_THROW(f.a.qps[0]->post_send({.wr_id = 2, .opcode = Opcode::Send, .src = src.data(),
                                      .length = 64, .lkey = 12345}),
               std::runtime_error);
}

TEST(Transfer, PostToUnconnectedQpThrows) {
  sim::Simulator s;
  Fabric fabric(s);
  Hca& hca = fabric.add_hca(0);
  CompletionQueue scq, rcq;
  QueuePair& qp = hca.create_qp(0, scq, rcq);
  auto buf = pattern_buffer(16);
  auto mr = hca.mem().register_memory(buf.data(), buf.size());
  EXPECT_THROW(qp.post_send({.wr_id = 1, .opcode = Opcode::Send, .src = buf.data(), .length = 16,
                             .lkey = mr.lkey}),
               std::logic_error);
}

TEST(Transfer, SmallMessageLatencyInHardwareBudget) {
  // One 8-byte send, default parameters: the pure-hardware one-way latency
  // (no MPI software on top) should land roughly in the 1.3–2.5 us window a
  // 2007-era RC verbs ping leg takes.
  TwoNodeFabric f;
  auto src = pattern_buffer(8);
  std::vector<std::byte> dst(8);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  f.b.qps[0]->post_recv({.wr_id = 1, .dst = dst.data(), .length = 8, .lkey = dst_mr.lkey});
  f.a.qps[0]->post_send({.wr_id = 2, .opcode = Opcode::Send, .src = src.data(), .length = 8,
                         .lkey = src_mr.lkey});
  f.sim.run();
  Wc rwc;
  ASSERT_TRUE(f.b.rcq.poll(rwc));
  EXPECT_GT(sim::to_us(rwc.timestamp), 0.8);
  EXPECT_LT(sim::to_us(rwc.timestamp), 2.5);
}

/// Events the simulator runs for one isolated WQE of `op` and `len` bytes on
/// a 2-node crossbar, from post to the last completion.
std::uint64_t events_for_one_wqe(Opcode op, std::uint32_t len, bool signaled) {
  TwoNodeFabric f;
  auto local = pattern_buffer(len);
  std::vector<std::byte> remote(len);
  auto local_mr = f.a.hca->mem().register_memory(local.data(), local.size());
  auto remote_mr = f.b.hca->mem().register_memory(remote.data(), remote.size());
  if (op == Opcode::Send) {
    f.b.qps[0]->post_recv({.wr_id = 1, .dst = remote.data(), .length = len,
                           .lkey = remote_mr.lkey});
  } else if (op == Opcode::RdmaWriteWithImm) {
    f.b.qps[0]->post_recv({.wr_id = 1, .dst = nullptr, .length = 0, .lkey = 0});
  }
  const std::uint64_t before = f.sim.events_processed();
  f.a.qps[0]->post_send({.wr_id = 2, .opcode = op, .src = local.data(), .length = len,
                         .lkey = local_mr.lkey, .remote_addr = remote_mr.addr,
                         .rkey = remote_mr.rkey, .signaled = signaled});
  f.sim.run();
  // Every kind moved its data, whichever event placed it.
  EXPECT_EQ(std::memcmp(local.data(), remote.data(), len), 0);
  return f.sim.events_processed() - before;
}

TEST(Transfer, EventsPerWqe) {
  // The event count of each WQE kind is part of the simulator's cost, not of
  // the model: a change here moves no virtual time.  A bulk WQE runs one
  // event per pipeline stage (engine, uplink, downlink, recv engine,
  // destination bus), one to free its send engine, then its delivery and
  // CQE events.  A signaled plain RDMA write and a signaled read response
  // place their data inside the requester-CQE event, one event fewer than a
  // separate delivery.
  constexpr std::uint32_t kSmall = 256;
  constexpr std::uint32_t kBulk = 64 * 1024;
  EXPECT_EQ(events_for_one_wqe(Opcode::Send, kSmall, true), 4u);
  EXPECT_EQ(events_for_one_wqe(Opcode::Send, kBulk, true), 9u);
  EXPECT_EQ(events_for_one_wqe(Opcode::RdmaWrite, kBulk, true), 7u);
  EXPECT_EQ(events_for_one_wqe(Opcode::RdmaWrite, kBulk, false), 7u);
  EXPECT_EQ(events_for_one_wqe(Opcode::RdmaWriteWithImm, kBulk, true), 9u);
  EXPECT_EQ(events_for_one_wqe(Opcode::RdmaRead, kBulk, true), 8u);
}

TEST(Transfer, TeardownMidPipelineFreesEveryTransfer) {
  // Stop the clock while bulk transfers of every kind are still in the
  // pipeline, then destroy the fabric with their stage events queued.  The
  // pool owns the in-flight state, so nothing leaks and no queued event
  // touches freed memory (run under ASan).
  auto f = std::make_unique<TwoNodeFabric>(HcaParams{}, FabricParams{}, 4);
  constexpr std::uint32_t kLen = 256 * 1024;
  auto local = pattern_buffer(kLen);
  std::vector<std::byte> remote(kLen);
  auto local_mr = f->a.hca->mem().register_memory(local.data(), local.size());
  auto remote_mr = f->b.hca->mem().register_memory(remote.data(), remote.size());
  const Opcode ops[] = {Opcode::Send, Opcode::RdmaWrite, Opcode::RdmaWriteWithImm,
                        Opcode::RdmaRead};
  for (std::size_t q = 0; q < 4; ++q) {
    if (ops[q] == Opcode::Send || ops[q] == Opcode::RdmaWriteWithImm) {
      f->b.qps[q]->post_recv({.wr_id = q, .dst = remote.data(), .length = kLen,
                              .lkey = remote_mr.lkey});
    }
    for (int i = 0; i < 2; ++i) {
      f->a.qps[q]->post_send({.wr_id = q, .opcode = ops[q], .src = local.data(),
                              .length = kLen, .lkey = local_mr.lkey,
                              .remote_addr = remote_mr.addr, .rkey = remote_mr.rkey,
                              .signaled = i == 0});
    }
  }
  f->sim.run_until(sim::microseconds(60));
  EXPECT_GT(f->sim.events_pending(), 0u);
  EXPECT_GT(f->fabric.transfers().in_use(), 0u);
  Wc wc;
  EXPECT_FALSE(f->a.scq.poll(wc));  // nothing has completed yet
  f.reset();
}

TEST(Transfer, LargeMessageSingleQpBandwidthIsEngineLimited) {
  // Stream 32 MB through one QP: the single send engine (1.72 GB/s) must be
  // the bottleneck, not the 3 GB/s link.
  TwoNodeFabric f;
  const std::int64_t msg = 1 << 20;
  const int count = 32;
  auto src = pattern_buffer(static_cast<std::size_t>(msg));
  std::vector<std::byte> dst(static_cast<std::size_t>(msg));
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  for (int i = 0; i < count; ++i) {
    f.b.qps[0]->post_recv({.wr_id = static_cast<std::uint64_t>(i), .dst = dst.data(),
                           .length = static_cast<std::uint32_t>(msg), .lkey = dst_mr.lkey});
  }
  for (int i = 0; i < count; ++i) {
    f.a.qps[0]->post_send({.wr_id = static_cast<std::uint64_t>(i), .opcode = Opcode::Send,
                           .src = src.data(), .length = static_cast<std::uint32_t>(msg),
                           .lkey = src_mr.lkey});
  }
  f.sim.run();
  Wc wc;
  sim::Time last = 0;
  int n = 0;
  while (f.b.rcq.poll(wc)) {
    last = std::max(last, wc.timestamp);
    ++n;
  }
  ASSERT_EQ(n, count);
  const double gbps = static_cast<double>(msg) * count / static_cast<double>(last) * 1000.0;
  EXPECT_GT(gbps, 1.45);
  EXPECT_LT(gbps, 1.75);  // must not exceed one engine's rate
}

}  // namespace
}  // namespace ib12x::ib
