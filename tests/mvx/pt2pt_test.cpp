// Point-to-point semantics over the full stack: data integrity for eager and
// rendezvous paths, tag/source matching, MPI ordering across multiple rails,
// non-blocking windows, and error cases.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mvx/mpi.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

using testutil::payload;

TEST(Pt2Pt, EagerRoundTrip) {
  World w(ClusterSpec{2, 1}, Config{});
  w.run([](Communicator& c) {
    auto data = payload(1024, c.rank());
    if (c.rank() == 0) {
      c.send(data.data(), data.size(), BYTE, 1, 7);
    } else {
      std::vector<std::byte> got(1024);
      Status st;
      c.recv(got.data(), got.size(), BYTE, 0, 7, &st);
      EXPECT_EQ(got, payload(1024, 0));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 1024);
    }
  });
}

TEST(Pt2Pt, RendezvousRoundTrip) {
  World w(ClusterSpec{2, 1}, Config{});
  w.run([](Communicator& c) {
    const std::size_t n = 256 * 1024;
    if (c.rank() == 0) {
      auto data = payload(n, 0);
      c.send(data.data(), n, BYTE, 1, 1);
    } else {
      std::vector<std::byte> got(n);
      c.recv(got.data(), n, BYTE, 0, 1);
      EXPECT_EQ(got, payload(n, 0));
    }
  });
}

TEST(Pt2Pt, ZeroByteMessage) {
  World w(ClusterSpec{2, 1}, Config{});
  w.run([](Communicator& c) {
    if (c.rank() == 0) {
      c.send(nullptr, 0, BYTE, 1, 3);
    } else {
      Status st;
      c.recv(nullptr, 0, BYTE, 0, 3, &st);
      EXPECT_EQ(st.bytes, 0);
    }
  });
}

TEST(Pt2Pt, ThresholdBoundarySizes) {
  // 16 KiB is the eager/rendezvous switch: check both sides and the edge.
  World w(ClusterSpec{2, 1}, Config{});
  w.run([](Communicator& c) {
    for (std::size_t n : {16384ul - 1, 16384ul, 16384ul + 1}) {
      if (c.rank() == 0) {
        auto data = payload(n, 0, static_cast<int>(n));
        c.send(data.data(), n, BYTE, 1, static_cast<int>(n));
      } else {
        std::vector<std::byte> got(n);
        c.recv(got.data(), n, BYTE, 0, static_cast<int>(n));
        EXPECT_EQ(got, payload(n, 0, static_cast<int>(n)));
      }
    }
  });
}

TEST(Pt2Pt, TagSelectivity) {
  World w(ClusterSpec{2, 1}, Config{});
  w.run([](Communicator& c) {
    if (c.rank() == 0) {
      auto a = payload(64, 0, 10), b = payload(64, 0, 20);
      c.send(a.data(), 64, BYTE, 1, 10);
      c.send(b.data(), 64, BYTE, 1, 20);
    } else {
      std::vector<std::byte> first(64), second(64);
      // Receive in reverse tag order: matching must be by tag, not arrival.
      c.recv(first.data(), 64, BYTE, 0, 20);
      c.recv(second.data(), 64, BYTE, 0, 10);
      EXPECT_EQ(first, payload(64, 0, 20));
      EXPECT_EQ(second, payload(64, 0, 10));
    }
  });
}

TEST(Pt2Pt, AnySourceAnyTag) {
  World w(ClusterSpec{2, 2}, Config{});
  w.run([](Communicator& c) {
    if (c.rank() != 0) {
      auto data = payload(128, c.rank());
      c.send(data.data(), 128, BYTE, 0, c.rank());
    } else {
      int seen = 0;
      for (int i = 1; i < c.size(); ++i) {
        std::vector<std::byte> got(128);
        Status st;
        c.recv(got.data(), 128, BYTE, ANY_SOURCE, ANY_TAG, &st);
        EXPECT_EQ(got, payload(128, st.source));
        EXPECT_EQ(st.tag, st.source);
        ++seen;
      }
      EXPECT_EQ(seen, 3);
    }
  });
}

TEST(Pt2Pt, OrderingPreservedOverMultiRailRR) {
  // Round robin sprays consecutive messages over different QPs; the seq
  // layer must still deliver them in MPI order.
  Config cfg = Config::enhanced(4, Policy::RoundRobin);
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    const int n = 64;
    if (c.rank() == 0) {
      for (int i = 0; i < n; ++i) {
        auto data = payload(512, 0, i);
        c.send(data.data(), 512, BYTE, 1, /*tag=*/5);
      }
    } else {
      for (int i = 0; i < n; ++i) {
        std::vector<std::byte> got(512);
        c.recv(got.data(), 512, BYTE, 0, 5);
        EXPECT_EQ(got, payload(512, 0, i)) << "message " << i << " out of order";
      }
    }
  });
}

TEST(Pt2Pt, MixedSizesInterleavedKeepOrder) {
  // Eager and rendezvous messages to the same destination must not overtake
  // each other (rendezvous RTS carries the seq).
  Config cfg = Config::enhanced(4, Policy::EPC);
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    const std::vector<std::size_t> sizes{100, 64 * 1024, 200, 32 * 1024, 1 << 20, 8};
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        auto data = payload(sizes[i], 0, static_cast<int>(i));
        c.send(data.data(), sizes[i], BYTE, 1, 9);
      }
    } else {
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::vector<std::byte> got(sizes[i]);
        Status st;
        c.recv(got.data(), sizes[i], BYTE, 0, 9, &st);
        EXPECT_EQ(st.bytes, static_cast<std::int64_t>(sizes[i])) << "message " << i;
        EXPECT_EQ(got, payload(sizes[i], 0, static_cast<int>(i))) << "message " << i;
      }
    }
  });
}

TEST(Pt2Pt, NonblockingWindowWaitall) {
  World w(ClusterSpec{2, 1}, Config::enhanced(4, Policy::EPC));
  w.run([](Communicator& c) {
    const int window = 32;
    const std::size_t n = 4096;
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int i = 0; i < window; ++i) {
        bufs.push_back(payload(n, 0, i));
        reqs.push_back(c.isend(bufs.back().data(), n, BYTE, 1, i));
      }
      c.waitall(reqs);
      std::byte ack;
      c.recv(&ack, 1, BYTE, 1, 999);
    } else {
      std::vector<std::vector<std::byte>> bufs(window, std::vector<std::byte>(n));
      std::vector<Request> reqs;
      for (int i = 0; i < window; ++i) {
        reqs.push_back(c.irecv(bufs[static_cast<std::size_t>(i)].data(), n, BYTE, 0, i));
      }
      c.waitall(reqs);
      for (int i = 0; i < window; ++i) {
        EXPECT_EQ(bufs[static_cast<std::size_t>(i)], payload(n, 0, i));
      }
      std::byte ack{1};
      c.send(&ack, 1, BYTE, 0, 999);
    }
  });
}

TEST(Pt2Pt, SendrecvExchange) {
  World w(ClusterSpec{2, 1}, Config{});
  w.run([](Communicator& c) {
    const int peer = 1 - c.rank();
    auto mine = payload(2048, c.rank());
    std::vector<std::byte> theirs(2048);
    c.sendrecv(mine.data(), 2048, BYTE, peer, 4, theirs.data(), 2048, BYTE, peer, 4);
    EXPECT_EQ(theirs, payload(2048, peer));
  });
}

TEST(Pt2Pt, SelfSendRecv) {
  World w(ClusterSpec{2, 1}, Config{});
  w.run([](Communicator& c) {
    auto data = payload(777, c.rank());
    c.isend(data.data(), 777, BYTE, c.rank(), 1);
    std::vector<std::byte> got(777);
    c.recv(got.data(), 777, BYTE, c.rank(), 1);
    EXPECT_EQ(got, data);
  });
}

TEST(Pt2Pt, UnexpectedEagerThenMatch) {
  // Send arrives before recv is posted: unexpected-queue path.
  World w(ClusterSpec{2, 1}, Config{});
  w.run([](Communicator& c) {
    if (c.rank() == 0) {
      auto data = payload(4096, 0);
      c.send(data.data(), 4096, BYTE, 1, 11);
    } else {
      c.compute(sim::microseconds(200));  // guarantee the message is waiting
      std::vector<std::byte> got(4096);
      c.recv(got.data(), 4096, BYTE, 0, 11);
      EXPECT_EQ(got, payload(4096, 0));
    }
  });
}

TEST(Pt2Pt, UnexpectedRendezvousThenMatch) {
  World w(ClusterSpec{2, 1}, Config{});
  w.run([](Communicator& c) {
    const std::size_t n = 128 * 1024;
    if (c.rank() == 0) {
      auto data = payload(n, 0);
      c.send(data.data(), n, BYTE, 1, 12);
    } else {
      c.compute(sim::microseconds(300));
      std::vector<std::byte> got(n);
      c.recv(got.data(), n, BYTE, 0, 12);
      EXPECT_EQ(got, payload(n, 0));
    }
  });
}

TEST(Pt2Pt, TruncationThrows) {
  World w(ClusterSpec{2, 1}, Config{});
  EXPECT_THROW(w.run([](Communicator& c) {
    if (c.rank() == 0) {
      auto data = payload(2048, 0);
      c.send(data.data(), 2048, BYTE, 1, 1);
    } else {
      std::vector<std::byte> got(64);
      c.recv(got.data(), 64, BYTE, 0, 1);
    }
  }),
               std::runtime_error);
}

TEST(Pt2Pt, ManyEagerSendsRespectCreditBackpressure) {
  Config cfg;
  cfg.eager_credits = 4;       // tiny credit window
  cfg.send_bounce_bufs = 4;
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    const int n = 200;
    if (c.rank() == 0) {
      auto data = payload(1024, 0);
      for (int i = 0; i < n; ++i) c.send(data.data(), 1024, BYTE, 1, 0);
    } else {
      std::vector<std::byte> got(1024);
      for (int i = 0; i < n; ++i) c.recv(got.data(), 1024, BYTE, 0, 0);
      EXPECT_EQ(got, payload(1024, 0));
    }
  });
  EXPECT_GT(w.telemetry().counter_value("net.credit_stalls"), 0u);
}

class PolicyIntegrity : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicyIntegrity, LargeTransfersIntactUnderEveryPolicy) {
  Config cfg = Config::enhanced(4, GetParam());
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    for (std::size_t n : {16384ul, 65536ul, 1048576ul, 100000ul}) {  // incl. non-divisible
      if (c.rank() == 0) {
        auto data = payload(n, 0, static_cast<int>(n % 97));
        c.send(data.data(), n, BYTE, 1, 2);
        std::vector<std::byte> back(n);
        c.recv(back.data(), n, BYTE, 1, 2);
        EXPECT_EQ(back, payload(n, 1, static_cast<int>(n % 97)));
      } else {
        std::vector<std::byte> got(n);
        c.recv(got.data(), n, BYTE, 0, 2);
        EXPECT_EQ(got, payload(n, 0, static_cast<int>(n % 97)));
        auto data = payload(n, 1, static_cast<int>(n % 97));
        c.send(data.data(), n, BYTE, 0, 2);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyIntegrity,
                         ::testing::Values(Policy::Binding, Policy::RoundRobin,
                                           Policy::EvenStriping, Policy::EPC));

class RailCountIntegrity : public ::testing::TestWithParam<int> {};

TEST_P(RailCountIntegrity, EpcIntactForQpCounts) {
  Config cfg = Config::enhanced(GetParam(), Policy::EPC);
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    const std::size_t n = 512 * 1024;
    if (c.rank() == 0) {
      auto data = payload(n, 0);
      c.send(data.data(), n, BYTE, 1, 0);
    } else {
      std::vector<std::byte> got(n);
      c.recv(got.data(), n, BYTE, 0, 0);
      EXPECT_EQ(got, payload(n, 0));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(QpCounts, RailCountIntegrity, ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace ib12x::mvx
