// Randomized traffic property test: every rank issues a deterministic
// pseudo-random schedule of sends and receives (mixed sizes straddling the
// eager/rendezvous threshold, mixed blocking/non-blocking, shuffled posting
// order) and all payloads are verified byte-for-byte.  One failure class
// this catches that directed tests may not: cross-rail reordering windows,
// credit exhaustion under bursts, unexpected-queue interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "mvx/mpi.hpp"
#include "mvx_test_util.hpp"
#include "sim/rng.hpp"

namespace ib12x::mvx {
namespace {

using testutil::payload;

struct Plan {
  int src, dst, tag;
  std::size_t bytes;
  bool nonblocking;
};

/// Builds the identical global traffic plan on every rank from the seed.
std::vector<Plan> make_plan(std::uint64_t seed, int ranks, int messages) {
  sim::Rng rng(seed);
  std::vector<Plan> plan;
  for (int i = 0; i < messages; ++i) {
    Plan p;
    p.src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
    p.dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks - 1)));
    if (p.dst >= p.src) ++p.dst;  // no self traffic
    p.tag = i;                    // unique tags keep verification exact
    // Sizes cluster around the 16 KiB threshold plus some large outliers.
    const std::uint64_t cls = rng.next_below(5);
    switch (cls) {
      case 0: p.bytes = rng.next_below(64); break;
      case 1: p.bytes = 1024 + rng.next_below(8 * 1024); break;
      case 2: p.bytes = 16 * 1024 - 32 + rng.next_below(64); break;  // straddle
      case 3: p.bytes = 32 * 1024 + rng.next_below(64 * 1024); break;
      default: p.bytes = 256 * 1024 + rng.next_below(256 * 1024); break;
    }
    p.nonblocking = rng.next_below(2) == 0;
    plan.push_back(p);
  }
  return plan;
}

void run_random_traffic(Config cfg, ClusterSpec spec, std::uint64_t seed, int messages) {
  World w(spec, cfg);
  w.run([&](Communicator& c) {
    const auto plan = make_plan(seed, c.size(), messages);
    // Receivers post irecvs in a seed-shuffled order (different from send
    // order), so some messages arrive unexpected and some wait.
    std::vector<std::size_t> my_recvs, my_sends;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].dst == c.rank()) my_recvs.push_back(i);
      if (plan[i].src == c.rank()) my_sends.push_back(i);
    }
    sim::Rng shuffle_rng(seed ^ (0xabcdu + static_cast<std::uint64_t>(c.rank())));
    for (std::size_t i = my_recvs.size(); i > 1; --i) {
      std::swap(my_recvs[i - 1], my_recvs[shuffle_rng.next_below(i)]);
    }

    std::vector<std::vector<std::byte>> rbufs(my_recvs.size());
    std::vector<Request> rreqs;
    for (std::size_t k = 0; k < my_recvs.size(); ++k) {
      const Plan& p = plan[my_recvs[k]];
      rbufs[k].resize(std::max<std::size_t>(p.bytes, 1));
      rreqs.push_back(c.irecv(rbufs[k].data(), p.bytes, BYTE, p.src, p.tag));
    }

    std::vector<std::vector<std::byte>> sbufs;
    std::vector<Request> sreqs;
    for (std::size_t idx : my_sends) {
      const Plan& p = plan[idx];
      sbufs.push_back(payload(std::max<std::size_t>(p.bytes, 1), p.src, p.tag));
      if (p.nonblocking) {
        sreqs.push_back(c.isend(sbufs.back().data(), p.bytes, BYTE, p.dst, p.tag));
      } else {
        c.send(sbufs.back().data(), p.bytes, BYTE, p.dst, p.tag);
      }
    }
    c.waitall(sreqs);
    c.waitall(rreqs);

    for (std::size_t k = 0; k < my_recvs.size(); ++k) {
      const Plan& p = plan[my_recvs[k]];
      if (p.bytes == 0) continue;
      EXPECT_EQ(rbufs[k], payload(p.bytes, p.src, p.tag))
          << "seed " << seed << " msg " << my_recvs[k] << " (" << p.src << "->" << p.dst
          << ", " << p.bytes << " B)";
    }
    c.barrier();
  });
}

class RandomTraffic : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomTraffic, AllPayloadsIntact) {
  const auto [seed, policy_idx] = GetParam();
  const Policy policies[] = {Policy::Binding, Policy::RoundRobin, Policy::EvenStriping,
                             Policy::EPC};
  Config cfg = Config::enhanced(4, policies[static_cast<std::size_t>(policy_idx)]);
  run_random_traffic(cfg, ClusterSpec{2, 2}, static_cast<std::uint64_t>(seed) * 7919 + 3,
                     /*messages=*/60);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndPolicies, RandomTraffic,
                         ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 4)));

TEST(RandomTraffic, SrqModeSurvivesBursts) {
  Config cfg = Config::enhanced(4, Policy::EPC);
  cfg.eager_credits = 6;  // tight buffers force credit waits
  run_random_traffic(cfg, ClusterSpec{2, 2}, 0x5eed, 80);
}

TEST(RandomTraffic, TinyCreditsNeverDeadlock) {
  Config cfg = Config::enhanced(2, Policy::RoundRobin);
  cfg.eager_credits = 2;
  cfg.send_bounce_bufs = 3;
  run_random_traffic(cfg, ClusterSpec{2, 1}, 0xfeed, 50);
}

TEST(RandomTraffic, DeterministicAcrossRuns) {
  auto once = [] {
    World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
    sim::Time end = 0;
    w.run([&](Communicator& c) {
      const auto plan = make_plan(99, c.size(), 40);
      std::vector<std::vector<std::byte>> rbufs, sbufs;
      std::vector<Request> reqs;
      for (std::size_t i = 0; i < plan.size(); ++i) {
        const Plan& p = plan[i];
        if (p.dst == c.rank()) {
          rbufs.emplace_back(std::max<std::size_t>(p.bytes, 1));
          reqs.push_back(c.irecv(rbufs.back().data(), p.bytes, BYTE, p.src, p.tag));
        }
        if (p.src == c.rank()) {
          sbufs.push_back(payload(std::max<std::size_t>(p.bytes, 1), p.src, p.tag));
          reqs.push_back(c.isend(sbufs.back().data(), p.bytes, BYTE, p.dst, p.tag));
        }
      }
      c.waitall(reqs);
      c.barrier();
      end = c.now();
    });
    return w.end_time();
  };
  EXPECT_EQ(once(), once());
}

}  // namespace
}  // namespace ib12x::mvx
