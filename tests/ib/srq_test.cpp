// Late-bound SRQ receive buffers: a posted SRQ WQE is a credit, and an
// inbound Send binds the most recently released buffer of the SRQ's pool
// when it is delivered.  The receive completion names that buffer and the
// consumer releases it once read, so sequential traffic cycles one buffer
// and the host backs only the buffers in flight at once.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <vector>

#include "ib/verbs.hpp"
#include "ib_test_util.hpp"

namespace ib12x::ib {
namespace {

using testutil::TwoNodeFabric;
using testutil::pattern_buffer;

constexpr std::uint32_t kStride = 256;
constexpr std::uint32_t kCount = 8;

/// Two QP pairs on one fabric whose responder QPs share one SRQ with a
/// kCount × kStride buffer pool and no WQE posted yet.
struct SrqFixture {
  SrqFixture() : f({}, {}, 0), srq(f.b.hca->create_srq()), arena(kCount * kStride) {
    for (int i = 0; i < 2; ++i) {
      QueuePair& qa = f.a.hca->create_qp(0, f.a.scq, f.a.rcq);
      QueuePair& qb = f.b.hca->create_qp(0, f.b.scq, f.b.rcq, &srq);
      Fabric::connect(qa, qb);
      senders.push_back(&qa);
    }
    const auto mr = f.b.hca->mem().register_memory(arena.data(), arena.size());
    srq.attach_buffers(
        {.base = arena.data(), .stride = kStride, .count = kCount, .lkey = mr.lkey, .wr_id = 42});
  }

  /// Posts a Send of `src` on sender `qp`; `src` must stay registered.
  void send(int qp, std::vector<std::byte>& src) {
    const auto mr = f.a.hca->mem().register_memory(src.data(), src.size());
    senders[static_cast<std::size_t>(qp)]->post_send(
        {.wr_id = 1, .opcode = Opcode::Send, .src = src.data(),
         .length = static_cast<std::uint32_t>(src.size()), .lkey = mr.lkey});
  }

  TwoNodeFabric f;
  SharedReceiveQueue& srq;
  std::vector<std::byte> arena;
  std::vector<QueuePair*> senders;
};

TEST(SrqBinding, SequentialSendsReuseOneBuffer) {
  SrqFixture s;
  for (std::uint32_t i = 0; i < kCount; ++i) s.srq.post();
  std::set<std::uint32_t> used;
  for (unsigned round = 0; round < 5; ++round) {
    auto src = pattern_buffer(kStride, round + 1);
    s.send(static_cast<int>(round % 2), src);
    const auto wcs = s.f.drain(s.f.b.rcq);
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].wr_id, 42u);
    EXPECT_EQ(wcs[0].byte_len, kStride);
    ASSERT_NE(wcs[0].buf, kNoBuf);
    EXPECT_EQ(std::memcmp(s.srq.buffer(wcs[0].buf), src.data(), kStride), 0);
    EXPECT_EQ(s.srq.buffers_held(), 1u);
    used.insert(wcs[0].buf);
    s.srq.release(wcs[0].buf);
    s.srq.post();
  }
  EXPECT_EQ(used, std::set<std::uint32_t>{0});
  EXPECT_EQ(s.srq.pending(), kCount);
  // A buffer that is not held cannot go back twice.
  EXPECT_THROW(s.srq.release(0), std::logic_error);
}

TEST(SrqBinding, OutstandingSendsLandInDistinctBuffers) {
  SrqFixture s;
  for (std::uint32_t i = 0; i < kCount; ++i) s.srq.post();
  auto first = pattern_buffer(kStride, 3);
  auto second = pattern_buffer(kStride / 2, 9);
  s.send(0, first);
  s.send(0, second);
  const auto wcs = s.f.drain(s.f.b.rcq);
  ASSERT_EQ(wcs.size(), 2u);
  EXPECT_NE(wcs[0].buf, wcs[1].buf);
  EXPECT_EQ(s.srq.buffers_held(), 2u);
  EXPECT_EQ(s.srq.pending(), kCount - 2);
  // One QP delivers in order: the first completion is the first Send.
  EXPECT_EQ(wcs[0].byte_len, kStride);
  EXPECT_EQ(wcs[1].byte_len, kStride / 2);
  EXPECT_EQ(std::memcmp(s.srq.buffer(wcs[0].buf), first.data(), first.size()), 0);
  EXPECT_EQ(std::memcmp(s.srq.buffer(wcs[1].buf), second.data(), second.size()), 0);
}

TEST(SrqBinding, DoubleReleaseWhileAnotherBufferIsHeldThrows) {
  // With buffer 1 still held, a second release of buffer 0 must not push it
  // onto the free list again: two later Sends would bind the same buffer.
  SrqFixture s;
  for (std::uint32_t i = 0; i < kCount; ++i) s.srq.post();
  auto first = pattern_buffer(kStride, 3);
  auto second = pattern_buffer(kStride, 9);
  s.send(0, first);
  s.send(0, second);
  const auto wcs = s.f.drain(s.f.b.rcq);
  ASSERT_EQ(wcs.size(), 2u);
  ASSERT_EQ(wcs[0].buf, 0u);
  ASSERT_EQ(wcs[1].buf, 1u);
  s.srq.release(0);
  EXPECT_THROW(s.srq.release(0), std::logic_error);
  EXPECT_EQ(s.srq.buffers_held(), 1u);
  // The pool is intact: two more Sends bind two distinct buffers.
  s.srq.post();
  s.send(0, first);
  s.send(1, second);
  const auto again = s.f.drain(s.f.b.rcq);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_NE(again[0].buf, again[1].buf);
  EXPECT_NE(again[0].buf, 1u);
  EXPECT_NE(again[1].buf, 1u);
  EXPECT_EQ(s.srq.buffers_held(), 3u);
}

TEST(SrqBinding, WriteWithImmBindsNoBuffer) {
  SrqFixture s;
  s.srq.post();
  auto src = pattern_buffer(4096);
  std::vector<std::byte> dst(4096);
  const auto src_mr = s.f.a.hca->mem().register_memory(src.data(), src.size());
  const auto dst_mr = s.f.b.hca->mem().register_memory(dst.data(), dst.size());
  s.senders[0]->post_send({.wr_id = 1, .opcode = Opcode::RdmaWriteWithImm, .src = src.data(),
                           .length = 4096, .lkey = src_mr.lkey, .remote_addr = dst_mr.addr,
                           .rkey = dst_mr.rkey, .imm_data = 0x5a5a});
  const auto wcs = s.f.drain(s.f.b.rcq);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_TRUE(wcs[0].has_imm);
  EXPECT_EQ(wcs[0].imm_data, 0x5a5au);
  EXPECT_EQ(wcs[0].wr_id, 42u);
  EXPECT_EQ(wcs[0].buf, kNoBuf);
  EXPECT_EQ(s.srq.buffers_held(), 0u);
  EXPECT_EQ(s.srq.pending(), 0u);  // the immediate consumed the WQE
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), dst.size()), 0);
}

TEST(SrqBinding, SendOnEmptySrqParksAndBindsOnRedelivery) {
  SrqFixture s;
  auto src = pattern_buffer(kStride, 5);
  const auto expect = src;
  s.send(1, src);
  EXPECT_TRUE(s.f.drain(s.f.b.rcq).empty());
  EXPECT_EQ(s.srq.stalled(), 1u);
  EXPECT_EQ(s.srq.total_stalls(), 1u);
  EXPECT_EQ(s.srq.buffers_held(), 0u);
  // RNR backpressure is not an error: the requester completed successfully
  // and may reuse its buffer while the message waits.
  const auto swcs = s.f.drain(s.f.a.scq);
  ASSERT_EQ(swcs.size(), 1u);
  EXPECT_EQ(swcs[0].status, WcStatus::Success);
  std::memset(src.data(), 0, src.size());

  s.srq.post();
  EXPECT_EQ(s.srq.stalled(), 0u);
  EXPECT_EQ(s.srq.buffers_held(), 1u);
  const auto wcs = s.f.drain(s.f.b.rcq);
  ASSERT_EQ(wcs.size(), 1u);
  ASSERT_NE(wcs[0].buf, kNoBuf);
  EXPECT_EQ(std::memcmp(s.srq.buffer(wcs[0].buf), expect.data(), expect.size()), 0);
}

TEST(SrqBinding, QuiescenceReturnsEveryBuffer) {
  // A consumer that releases and reposts from its CQE callback, as the MPI
  // layer does: many messages cycle through few buffers.
  SrqFixture s;
  for (std::uint32_t i = 0; i < kCount; ++i) s.srq.post();
  std::set<std::uint32_t> used;
  std::size_t most_held = 0;
  int received = 0;
  s.f.b.rcq.set_callback([&](const Wc& wc) {
    ASSERT_EQ(wc.status, WcStatus::Success);
    most_held = std::max(most_held, s.srq.buffers_held());
    used.insert(wc.buf);
    const std::byte first = *s.srq.buffer(wc.buf);
    EXPECT_EQ(first, pattern_buffer(1, static_cast<unsigned>(wc.byte_len))[0]);
    s.srq.release(wc.buf);
    s.srq.post();
    ++received;
  });
  std::vector<std::vector<std::byte>> srcs;
  srcs.reserve(32);
  for (int i = 0; i < 32; ++i) {
    const auto len = static_cast<std::uint32_t>(64 + i);
    srcs.push_back(pattern_buffer(len, len));
    s.send(i % 2, srcs.back());
  }
  s.f.sim.run();
  EXPECT_EQ(received, 32);
  EXPECT_EQ(s.srq.buffers_held(), 0u);
  EXPECT_EQ(s.srq.pending(), kCount);
  EXPECT_EQ(used.size(), most_held);
  EXPECT_LT(used.size(), kCount);
}

TEST(SrqBinding, PostsBeyondThePoolAreRejected) {
  SrqFixture s;
  for (std::uint32_t i = 0; i < kCount; ++i) s.srq.post();
  EXPECT_THROW(s.srq.post(), std::runtime_error);
  auto bare = &s.f.b.hca->create_srq();
  EXPECT_THROW(bare->post(), std::runtime_error);  // no buffer pool attached
}

}  // namespace
}  // namespace ib12x::ib
