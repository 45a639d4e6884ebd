// Unit tests for the Matcher in isolation: MPI wildcard matching, the
// per-(peer, ctx) reordering that restores ordering across rails, and
// probe semantics over the unexpected queue.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mvx/matcher.hpp"
#include "mvx/telemetry.hpp"

namespace ib12x::mvx {
namespace {

MsgHeader eager(int src, int tag, int ctx, std::uint32_t seq, std::uint64_t size = 0) {
  MsgHeader h;
  h.type = MsgType::Eager;
  h.src_rank = src;
  h.tag = tag;
  h.ctx = ctx;
  h.seq = seq;
  h.size = size;
  return h;
}

TEST(Matcher, WildcardSourceAndTag) {
  TelemetryRegistry tel;
  Matcher m(tel);

  Request any_src = make_request();
  Request any_tag = make_request();
  Request exact = make_request();
  m.post(exact, /*src=*/3, /*tag=*/7, /*ctx=*/0);
  m.post(any_src, /*src=*/-1, /*tag=*/9, /*ctx=*/0);
  m.post(any_tag, /*src=*/5, /*tag=*/-1, /*ctx=*/0);

  EXPECT_EQ(m.match_posted(eager(3, 7, 0, 0)), exact);
  EXPECT_EQ(m.match_posted(eager(8, 9, 0, 0)), any_src);   // ANY_SOURCE
  EXPECT_EQ(m.match_posted(eager(5, 123, 0, 0)), any_tag); // ANY_TAG
  EXPECT_EQ(m.match_posted(eager(3, 7, 0, 1)), nullptr);   // queue drained
  EXPECT_EQ(m.posted_count(), 0u);
}

TEST(Matcher, PostedQueueScansInPostOrder) {
  TelemetryRegistry tel;
  Matcher m(tel);

  Request first = make_request();
  Request second = make_request();
  m.post(first, -1, -1, 0);
  m.post(second, 2, 4, 0);

  // Both match; MPI requires the earliest-posted receive to win.
  EXPECT_EQ(m.match_posted(eager(2, 4, 0, 0)), first);
  EXPECT_EQ(m.match_posted(eager(2, 4, 0, 1)), second);
}

TEST(Matcher, ContextsNeverCrossMatch) {
  TelemetryRegistry tel;
  Matcher m(tel);

  Request r = make_request();
  m.post(r, -1, -1, /*ctx=*/1);
  EXPECT_EQ(m.match_posted(eager(0, 0, /*ctx=*/0, 0)), nullptr);
  EXPECT_EQ(m.match_posted(eager(0, 0, /*ctx=*/1, 0)), r);
}

TEST(Matcher, OutOfOrderArrivalsDeliverInSequence) {
  TelemetryRegistry tel;
  Matcher m(tel);

  // Arrivals racing across rails land as 2, 0, 1.
  EXPECT_TRUE(m.sequence(/*peer=*/4, eager(4, 0, 0, /*seq=*/2), {}).empty());
  EXPECT_EQ(m.reorder_count(), 1u);

  auto head = m.sequence(4, eager(4, 0, 0, /*seq=*/0), {});
  ASSERT_EQ(head.size(), 1u);
  EXPECT_EQ(head[0].hdr.seq, 0u);

  // seq 1 closes the gap: it and the parked seq 2 drain together, in order.
  auto rest = m.sequence(4, eager(4, 0, 0, /*seq=*/1), {});
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].hdr.seq, 1u);
  EXPECT_EQ(rest[1].hdr.seq, 2u);
  EXPECT_EQ(m.reorder_count(), 0u);
  EXPECT_EQ(tel.counter_value("matcher.reorder_parked"), 1u);
}

TEST(Matcher, SequencingIsPerPeerAndContext) {
  TelemetryRegistry tel;
  Matcher m(tel);

  // Peer 1's seq 0 is deliverable regardless of peer 2's parked message.
  EXPECT_TRUE(m.sequence(2, eager(2, 0, 0, 1), {}).empty());
  EXPECT_EQ(m.sequence(1, eager(1, 0, 0, 0), {}).size(), 1u);
  // Same peer, different ctx: independent sequence spaces.
  EXPECT_EQ(m.sequence(2, eager(2, 0, /*ctx=*/3, 0), {}).size(), 1u);
  EXPECT_EQ(m.reorder_count(), 1u);
}

TEST(Matcher, SendSeqCountsPerPeerCtx) {
  TelemetryRegistry tel;
  Matcher m(tel);
  EXPECT_EQ(m.next_send_seq(1, 0, 0), 0u);
  EXPECT_EQ(m.next_send_seq(1, 0, 0), 1u);
  EXPECT_EQ(m.next_send_seq(1, 5, 0), 0u);  // fresh ctx
  EXPECT_EQ(m.next_send_seq(2, 0, 0), 0u);  // fresh peer
  EXPECT_EQ(m.next_send_seq(1, 0, 1), 0u);  // fresh vci
  // The counters hash one packed (peer, ctx, vci) key: extreme values of
  // one field must not spill into a neighbouring field.
  EXPECT_EQ(m.next_send_seq(0, -1, 0), 0u);  // ctx all ones
  EXPECT_EQ(m.next_send_seq(1, -1, 255), 0u);
  EXPECT_EQ(m.next_send_seq(0, 0, 255), 0u);
  EXPECT_EQ(m.next_send_seq(0, 1, 0), 0u);
  EXPECT_EQ(m.next_send_seq((1 << 24) - 1, 0, 0), 0u);
  EXPECT_EQ(m.next_send_seq(0, -1, 0), 1u);
  EXPECT_THROW(m.next_send_seq(1 << 24, 0, 0), std::out_of_range);
  EXPECT_THROW(m.next_send_seq(0, 0, 256), std::out_of_range);
}

TEST(Matcher, ProbeSeesUnexpectedWithoutConsuming) {
  TelemetryRegistry tel;
  Matcher m(tel);

  Status st;
  EXPECT_FALSE(m.iprobe(-1, -1, 0, &st));

  const std::vector<std::byte> bytes(256);
  m.store_unexpected({eager(3, 9, 0, 0, /*size=*/256), Payload::copy(bytes.data(), bytes.size())});
  EXPECT_FALSE(m.iprobe(3, 8, 0, &st));  // tag mismatch
  EXPECT_FALSE(m.iprobe(3, 9, 1, &st));  // ctx mismatch

  ASSERT_TRUE(m.iprobe(-1, 9, 0, &st));  // wildcard source
  EXPECT_EQ(st.source, 3);
  EXPECT_EQ(st.tag, 9);
  EXPECT_EQ(st.bytes, 256);
  EXPECT_EQ(m.unexpected_count(), 1u);  // probe does not consume

  auto claimed = m.claim_unexpected(3, -1, 0);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->payload.size(), 256u);
  EXPECT_EQ(m.unexpected_count(), 0u);
  EXPECT_FALSE(m.iprobe(-1, -1, 0, &st));
}

TEST(Matcher, ClaimUnexpectedHonoursArrivalOrder) {
  TelemetryRegistry tel;
  Matcher m(tel);

  m.store_unexpected({eager(1, 5, 0, 0, 10), {}});
  m.store_unexpected({eager(2, 5, 0, 0, 20), {}});

  auto got = m.claim_unexpected(-1, 5, 0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->hdr.src_rank, 1);  // earliest arrival wins under wildcards
  EXPECT_EQ(m.claim_unexpected(-1, 5, 0)->hdr.src_rank, 2);
  EXPECT_FALSE(m.claim_unexpected(-1, 5, 0).has_value());
}

}  // namespace
}  // namespace ib12x::mvx
