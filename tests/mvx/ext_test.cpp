// Extension features beyond the paper's core: probe, reduce_scatter, scan,
// allgatherv/gatherv, one SRQ shared by many peers.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mvx/mpi.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

using testutil::payload;

TEST(Probe, IprobeSeesUnexpected) {
  World w(ClusterSpec{2, 1}, Config{});
  w.run([](Communicator& c) {
    if (c.rank() == 0) {
      auto data = payload(512, 0);
      c.send(data.data(), 512, BYTE, 1, 42);
    } else {
      EXPECT_FALSE(c.iprobe(0, 99));
      Status st;
      c.probe(0, 42, &st);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 42);
      EXPECT_EQ(st.bytes, 512);
      // Probe must not consume: the receive still matches.
      EXPECT_TRUE(c.iprobe(0, 42));
      std::vector<std::byte> got(static_cast<std::size_t>(st.bytes));
      c.recv(got.data(), got.size(), BYTE, 0, 42);
      EXPECT_EQ(got, payload(512, 0));
      EXPECT_FALSE(c.iprobe(0, 42));
    }
  });
}

TEST(Probe, AnySourceProbe) {
  World w(ClusterSpec{2, 2}, Config{});
  w.run([](Communicator& c) {
    if (c.rank() == 3) {
      std::byte b{7};
      c.send(&b, 1, BYTE, 0, 5);
    } else if (c.rank() == 0) {
      Status st;
      c.probe(ANY_SOURCE, ANY_TAG, &st);
      EXPECT_EQ(st.source, 3);
      std::byte b{};
      c.recv(&b, 1, BYTE, st.source, st.tag);
      EXPECT_EQ(b, std::byte{7});
    }
  });
}

TEST(CollExt, ReduceScatterBlock) {
  World w(ClusterSpec{2, 2}, Config::enhanced(2, Policy::EPC));
  w.run([](Communicator& c) {
    const int p = c.size();
    const std::size_t per = 16;
    std::vector<std::int64_t> send(per * static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      for (std::size_t i = 0; i < per; ++i) {
        send[static_cast<std::size_t>(d) * per + i] =
            c.rank() * 100 + d * 10 + static_cast<std::int64_t>(i);
      }
    }
    std::vector<std::int64_t> out(per, -1);
    c.reduce_scatter_block(send.data(), out.data(), per, INT64, Op::Sum);
    for (std::size_t i = 0; i < per; ++i) {
      std::int64_t want = 0;
      for (int r = 0; r < p; ++r) want += r * 100 + c.rank() * 10 + static_cast<std::int64_t>(i);
      EXPECT_EQ(out[i], want);
    }
  });
}

TEST(CollExt, InclusiveScan) {
  for (ClusterSpec spec : {ClusterSpec{2, 1}, ClusterSpec{2, 2}, ClusterSpec{2, 3}}) {
    World w(spec, Config::enhanced(2, Policy::EPC));
    w.run([](Communicator& c) {
      std::int64_t mine = c.rank() + 1, out = 0;
      c.scan(&mine, &out, 1, INT64, Op::Sum);
      // Inclusive prefix sum of 1..rank+1.
      const std::int64_t r = c.rank() + 1;
      EXPECT_EQ(out, r * (r + 1) / 2);
    });
  }
}

TEST(CollExt, ScanLargeVectorRendezvousPath) {
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  w.run([](Communicator& c) {
    const std::size_t n = 8192;  // 64 KB of int64 → rendezvous
    std::vector<std::int64_t> mine(n, c.rank() + 1), out(n);
    c.scan(mine.data(), out.data(), n, INT64, Op::Sum);
    const std::int64_t r = c.rank() + 1;
    for (std::size_t i = 0; i < n; i += 1000) EXPECT_EQ(out[i], r * (r + 1) / 2);
  });
}

TEST(CollExt, AllgathervRagged) {
  World w(ClusterSpec{2, 2}, Config::enhanced(2, Policy::EPC));
  w.run([](Communicator& c) {
    const int p = c.size();
    std::vector<std::int64_t> counts, displs;
    std::int64_t off = 0;
    for (int r = 0; r < p; ++r) {
      counts.push_back((r + 1) * 8);
      displs.push_back(off);
      off += counts.back();
    }
    std::vector<std::int32_t> mine(static_cast<std::size_t>(counts[static_cast<std::size_t>(c.rank())]),
                                   c.rank());
    std::vector<std::int32_t> all(static_cast<std::size_t>(off), -1);
    c.allgatherv(mine.data(), mine.size(), all.data(), counts, displs, INT32);
    for (int r = 0; r < p; ++r) {
      for (std::int64_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(displs[static_cast<std::size_t>(r)] + i)], r);
      }
    }
  });
}

TEST(CollExt, GathervToEachRoot) {
  World w(ClusterSpec{2, 2}, Config{});
  w.run([](Communicator& c) {
    const int p = c.size();
    for (int root = 0; root < p; ++root) {
      std::vector<std::int64_t> counts, displs;
      std::int64_t off = 0;
      for (int r = 0; r < p; ++r) {
        counts.push_back(4 + r);
        displs.push_back(off);
        off += counts.back();
      }
      std::vector<std::int32_t> mine(static_cast<std::size_t>(counts[static_cast<std::size_t>(c.rank())]),
                                     c.rank() * 7);
      std::vector<std::int32_t> all(static_cast<std::size_t>(off), -1);
      c.gatherv(mine.data(), mine.size(), all.data(), counts, displs, INT32, root);
      if (c.rank() == root) {
        for (int r = 0; r < p; ++r) {
          for (std::int64_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
            EXPECT_EQ(all[static_cast<std::size_t>(displs[static_cast<std::size_t>(r)] + i)], r * 7);
          }
        }
      }
    }
  });
}

TEST(Srq, ManyPeersShareBuffers) {
  Config cfg;
  cfg.eager_credits = 8;
  World w(ClusterSpec{4, 1}, cfg);
  w.run([](Communicator& c) {
    // All-pairs handshake through the shared queue.
    for (int off = 1; off < c.size(); ++off) {
      const int to = (c.rank() + off) % c.size();
      const int from = (c.rank() - off + c.size()) % c.size();
      auto mine = payload(1024, c.rank(), to);
      std::vector<std::byte> got(1024);
      c.sendrecv(mine.data(), 1024, BYTE, to, 0, got.data(), 1024, BYTE, from, 0);
      EXPECT_EQ(got, payload(1024, from, c.rank()));
    }
  });
}

}  // namespace
}  // namespace ib12x::mvx
