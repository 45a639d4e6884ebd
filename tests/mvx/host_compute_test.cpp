// Communicator::compute(t, work): the charge is exactly compute(t)'s, the
// job's writes are visible on return, and its exception reaches the rank
// after the charge without disturbing the World's teardown.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mvx/mpi.hpp"

namespace ib12x::mvx {
namespace {

TEST(HostCompute, ChargesExactlyLikeCompute) {
  World w(ClusterSpec{2, 1}, Config{});
  std::vector<sim::Time> plain(2), with_job(2);
  std::vector<int> ran(2, 0);
  w.run([&](Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    const sim::Time t = sim::microseconds(3 + 4 * c.rank());
    sim::Time t0 = c.now();
    c.compute(t);
    plain[r] = c.now() - t0;
    t0 = c.now();
    c.compute(t, [&] { ran[r] = 1; });
    with_job[r] = c.now() - t0;
  });
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(plain[r], sim::microseconds(3 + 4 * static_cast<int>(r)));
    EXPECT_EQ(with_job[r], plain[r]);
    EXPECT_EQ(ran[r], 1);
  }
}

TEST(HostCompute, JobExceptionIsRethrownAfterTheCharge) {
  World w(ClusterSpec{2, 1}, Config{});
  sim::Time elapsed = -1;
  std::string what;
  w.run([&](Communicator& c) {
    if (c.rank() != 0) return;
    const sim::Time t0 = c.now();
    try {
      c.compute(sim::microseconds(5), [] { throw std::runtime_error("job failed"); });
    } catch (const std::runtime_error& e) {
      elapsed = c.now() - t0;
      what = e.what();
    }
  });
  EXPECT_EQ(elapsed, sim::microseconds(5));
  EXPECT_EQ(what, "job failed");
}

TEST(HostCompute, UncaughtJobExceptionFailsTheRunAndTheWorldTearsDown) {
  // Rank 1 is left blocked in a receive that never matches; the World's
  // destructor must unwind it after the run reports rank 0's failure.
  auto run = [] {
    World w(ClusterSpec{2, 1}, Config{});
    w.run([](Communicator& c) {
      if (c.rank() == 0) {
        c.compute(sim::microseconds(1), [] { throw std::runtime_error("job failed"); });
      } else {
        int x = 0;
        c.recv(&x, 1, INT32, 0, 7);
      }
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
}

TEST(HostCompute, FailedChargeStillJoinsTheJob) {
  // compute(t) rejects a negative charge after the job was handed out; the
  // job still finishes before the exception leaves compute(t, work).
  World w(ClusterSpec{2, 1}, Config{});
  std::vector<int> out(2, 0);
  w.run([&](Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    EXPECT_THROW(c.compute(-1, [&] { out[r] = 7; }), std::logic_error);
    EXPECT_EQ(out[r], 7);
  });
}

TEST(HostCompute, EveryRanksJobOutputIsVisibleAfterItsJoin) {
  // Eight ranks hand out jobs whose virtual intervals overlap; each checks
  // its own job's output right after the join, then all compare a digest.
  constexpr std::size_t kWords = 1 << 16;
  World w(ClusterSpec{2, 4}, Config::enhanced(4, Policy::EPC));
  std::vector<std::vector<std::uint64_t>> out(8, std::vector<std::uint64_t>(kWords));
  std::vector<int> ok(8, 0);
  std::int64_t sum = 0;
  w.run([&](Communicator& c) {
    const int r = c.rank();
    auto& mine = out[static_cast<std::size_t>(r)];
    for (int round = 0; round < 3; ++round) {
      c.compute(sim::microseconds(10 + r), [&] {
        for (std::size_t i = 0; i < kWords; ++i) {
          mine[i] = i * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(r * 8 + round);
        }
      });
      bool good = true;
      for (std::size_t i = 0; i < kWords; ++i) {
        good = good && mine[i] == i * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(r * 8 + round);
      }
      ok[static_cast<std::size_t>(r)] += good ? 1 : 0;
    }
    std::int64_t last = static_cast<std::int64_t>(mine[kWords - 1] & 0xffff), total = 0;
    c.allreduce(&last, &total, 1, INT64, Op::Sum);
    if (r == 0) sum = total;
  });
  std::int64_t want = 0;
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(ok[static_cast<std::size_t>(r)], 3) << "rank " << r;
    want += static_cast<std::int64_t>(((kWords - 1) * 0x9e3779b97f4a7c15ull +
                                       static_cast<std::uint64_t>(r * 8 + 2)) &
                                      0xffff);
  }
  EXPECT_EQ(sum, want);
}

}  // namespace
}  // namespace ib12x::mvx
