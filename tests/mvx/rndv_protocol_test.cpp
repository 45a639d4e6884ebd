// Rendezvous protocol diversity: the equivalence oracle and the adaptive
// scheduler's property tests.
//
// The oracle (RndvProtocol suite) runs the same seeded mixed-size traffic
// under each wire protocol — WriteRtsCts, ReadRts, WriteImm, each with and
// without the pipelined pacing variant — and asserts what must NOT vary with
// the protocol choice:
//   1. every payload is byte-exact;
//   2. matcher-visible ordering: wildcard receives observe each sender's
//      messages in posting order, and all protocols deliver the identical
//      message set;
//   3. protocol-specific telemetry appears exactly on the protocols that own
//      it (read stripes only under ReadRts, immediates only under WriteImm,
//      neither in the default snapshot).
//
// The Adaptive suite drives RndvPolicy directly with synthetic rewards:
// epsilon-greedy exploration stays within statistical bounds, the dead-rail
// mask is never violated, and the arm stream is bit-reproducible per seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "harness/runner.hpp"
#include "mvx/mpi.hpp"
#include "mvx/rndv_policy.hpp"
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

/// Identical global pt2pt plan on every rank, derived from the seed.  Sizes
/// are weighted toward the rendezvous regime so every protocol actually runs.
std::vector<Plan> make_plan(std::uint64_t seed, int ranks, int messages) {
  sim::Rng rng(seed);
  std::vector<Plan> plan;
  for (int i = 0; i < messages; ++i) {
    Plan p;
    p.src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
    p.dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks - 1)));
    if (p.dst >= p.src) ++p.dst;
    p.tag = i;
    switch (rng.next_below(4)) {
      case 0: p.bytes = 1 + rng.next_below(512); break;                   // eager
      case 1: p.bytes = 16 * 1024 + rng.next_below(8 * 1024); break;      // 1-stripe rndv
      case 2: p.bytes = 32 * 1024 + rng.next_below(96 * 1024); break;     // striped rndv
      default: p.bytes = 256 * 1024 + rng.next_below(256 * 1024); break;  // big striped
    }
    p.nonblocking = rng.next_below(2) == 0;
    plan.push_back(p);
  }
  return plan;
}

/// Multi-rail base configuration: 2 HCAs × 1 port × 2 QPs = 4 rails/peer.
Config make_rails_config() {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.hcas_per_node = 2;
  return cfg;
}

struct TrafficResult {
  sim::Time end_time = 0;
  /// (src, tag, bytes) per rank in wildcard completion order — the
  /// matcher-visible arrival sequence at each receiver.
  std::vector<std::vector<std::tuple<int, int, std::int64_t>>> order;
  /// The full delivered message set, sorted (protocol-independent).
  std::vector<std::tuple<int, int, int, std::int64_t>> delivered;  ///< (dst, src, tag, bytes)
};

/// Runs the seeded plan on a 2×2 world with wildcard receives and verifies
/// every payload in place; returns the observable ordering facts.  `inspect`
/// (optional) sees the finished world before it is torn down.
TrafficResult run_traffic(std::uint64_t seed, int messages,
                          const std::function<void(Config&)>& tweak,
                          const std::function<void(World&)>& inspect = {}) {
  Config cfg = make_rails_config();
  if (tweak) tweak(cfg);
  World w(ClusterSpec{2, 2}, cfg);
  TrafficResult res;
  res.order.resize(static_cast<std::size_t>(4));
  w.run([&](Communicator& c) {
    const auto plan = make_plan(seed, c.size(), messages);
    std::size_t nrecv = 0, maxb = 0;
    for (const Plan& p : plan) {
      if (p.dst == c.rank()) {
        ++nrecv;
        maxb = std::max(maxb, p.bytes);
      }
    }
    std::vector<std::vector<std::byte>> rbufs(nrecv);
    std::vector<Request> rreqs;
    for (std::size_t k = 0; k < nrecv; ++k) {
      rbufs[k].assign(maxb, std::byte{0});
      rreqs.push_back(c.irecv(rbufs[k].data(), maxb, BYTE, ANY_SOURCE, ANY_TAG));
    }
    std::vector<std::vector<std::byte>> sbufs;
    std::vector<Request> sreqs;
    for (const Plan& p : plan) {
      if (p.src != c.rank()) continue;
      sbufs.push_back(payload(p.bytes, p.src, p.tag));
      if (p.nonblocking) {
        sreqs.push_back(c.isend(sbufs.back().data(), p.bytes, BYTE, p.dst, p.tag));
      } else {
        c.send(sbufs.back().data(), p.bytes, BYTE, p.dst, p.tag);
      }
    }
    c.waitall(sreqs);
    for (std::size_t k = 0; k < nrecv; ++k) {
      Status st;
      c.wait(rreqs[k], &st);
      res.order[static_cast<std::size_t>(c.rank())].emplace_back(st.source, st.tag, st.bytes);
      rbufs[k].resize(static_cast<std::size_t>(st.bytes));
      ASSERT_EQ(rbufs[k], payload(static_cast<std::size_t>(st.bytes), st.source, st.tag))
          << "seed " << seed << " recv " << k << " at rank " << c.rank() << " ("
          << st.source << " tag " << st.tag << ", " << st.bytes << " B)";
    }
    c.barrier();
  });
  for (int r = 0; r < 4; ++r) {
    for (const auto& [src, tag, bytes] : res.order[static_cast<std::size_t>(r)]) {
      res.delivered.emplace_back(r, src, tag, bytes);
    }
  }
  std::sort(res.delivered.begin(), res.delivered.end());
  res.end_time = w.end_time();
  if (inspect) inspect(w);
  return res;
}

/// Row lookup in a telemetry table; -1 when the metric is absent.
double table_value(const harness::Table& t, const std::string& name) {
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    if (t.row_label(r) == name) return t.value(r, 0);
  }
  return -1.0;
}

void set_protocol(Config& cfg, Config::RndvConfig::Protocol p, bool pipelined) {
  cfg.rndv.protocol = p;
  cfg.rndv_pipeline = pipelined;
}

TEST(RndvProtocol, EquivalenceOracleAcrossProtocols) {
  using P = Config::RndvConfig::Protocol;
  const std::uint64_t seed = 0x0eac1e5eed;
  const int messages = 36;
  std::vector<TrafficResult> runs;
  for (bool pipelined : {false, true}) {
    for (P p : {P::WriteRtsCts, P::ReadRts, P::WriteImm}) {
      runs.push_back(run_traffic(seed, messages,
                                 [&](Config& cfg) { set_protocol(cfg, p, pipelined); }));
    }
  }
  const auto plan = make_plan(seed, 4, messages);
  for (std::size_t v = 0; v < runs.size(); ++v) {
    // Every protocol delivers the identical message set (payloads were
    // checked byte-exact in place)...
    EXPECT_EQ(runs[v].delivered, runs[0].delivered) << "variant " << v;
    // ...and each sender's messages reach every receiver's matcher in
    // posting order (per-pair sequencing is protocol-independent).
    for (int rank = 0; rank < 4; ++rank) {
      std::map<int, std::vector<int>> tags_by_src;
      for (const auto& [src, tag, bytes] : runs[v].order[static_cast<std::size_t>(rank)]) {
        tags_by_src[src].push_back(tag);
      }
      std::map<int, std::vector<int>> want;
      for (const Plan& p : plan) {
        if (p.dst == rank) want[p.src].push_back(p.tag);
      }
      EXPECT_EQ(tags_by_src, want) << "variant " << v << " rank " << rank;
    }
  }
}

TEST(RndvProtocol, TelemetryShapesPerProtocol) {
  using P = Config::RndvConfig::Protocol;
  const std::uint64_t seed = 0x7e1e7ab1e;
  auto snapshot = [&](P p) {
    harness::Table t("empty", "metric");
    run_traffic(seed, 24, [&](Config& cfg) { set_protocol(cfg, p, false); },
                [&](World& w) { t = harness::telemetry_table(w); });
    return t;
  };

  const harness::Table def = snapshot(P::WriteRtsCts);
  // The default configuration's snapshot carries none of the new machinery.
  EXPECT_EQ(table_value(def, "rndv.read_stripes"), -1.0);
  EXPECT_EQ(table_value(def, "rndv.imm_sent"), -1.0);
  EXPECT_EQ(table_value(def, "rndv.done_sent"), -1.0);
  EXPECT_GT(table_value(def, "rndv.rts_sent"), 0.0);

  const harness::Table rd = snapshot(P::ReadRts);
  EXPECT_GT(table_value(rd, "rndv.read_stripes"), 0.0);
  EXPECT_GT(table_value(rd, "rndv.done_sent"), 0.0);
  EXPECT_EQ(table_value(rd, "rndv.imm_sent"), 0.0);
  EXPECT_EQ(table_value(rd, "rndv.imm_folded"), 0.0);

  const harness::Table wi = snapshot(P::WriteImm);
  EXPECT_GT(table_value(wi, "rndv.imm_sent") + table_value(wi, "rndv.imm_folded"), 0.0);
  EXPECT_EQ(table_value(wi, "rndv.read_stripes"), 0.0);
  EXPECT_EQ(table_value(wi, "rndv.done_sent"), 0.0);
}

TEST(RndvProtocol, WriteImmElidesFinAcrossVcis) {
  // Regression: FIN handling used to assume the CTS-echoed vci/chunk fields
  // were present when a transfer finished.  With WriteImm the FIN is elided,
  // so completion must run entirely off the immediate word — including on a
  // non-zero VCI — and the PinCache references must still come back (the
  // eviction counter can only move when released pins reach zero).
  for (bool pipelined : {false, true}) {
    Config cfg = make_rails_config();
    set_protocol(cfg, Config::RndvConfig::Protocol::WriteImm, pipelined);
    cfg.vci.count = 2;
    cfg.vci.mapping = Config::VciConfig::Mapping::PerComm;
    cfg.stripe_threshold = 64 * 1024;     // keep a one-stripe (folded-imm) regime open
    cfg.reg_cache_capacity = 256 * 1024;  // force eviction pressure
    World w(ClusterSpec{2, 1}, cfg);
    w.run([&](Communicator& c) {
      Communicator d = c.dup();  // PerComm: the dup'd communicator rides VCI 1
      const std::size_t folded = 32 * 1024;   // one stripe: imm rides the data write
      const std::size_t striped = 192 * 1024; // many stripes: trailing imm
      // All buffers live until the end: every round registers fresh address
      // intervals, so the 256 KiB budget can only hold if earlier pins come
      // back after their (FIN-less) completions.
      std::vector<std::vector<std::byte>> keep;
      for (int round = 0; round < 4; ++round) {
        for (Communicator* comm : {&c, &d}) {
          for (std::size_t n : {folded, striped}) {
            const int tag = round * 10 + (comm == &d ? 1 : 0) + (n == striped ? 4 : 0);
            if (comm->rank() == 0) {
              keep.push_back(payload(n, 0, tag));
              comm->send(keep.back().data(), n, BYTE, 1, tag);
            } else {
              keep.emplace_back(n);
              comm->recv(keep.back().data(), n, BYTE, 0, tag);
              ASSERT_EQ(keep.back(), payload(n, 0, tag))
                  << "pipelined=" << pipelined << " tag " << tag;
            }
          }
        }
      }
      c.barrier();
    });
    auto& tel = w.telemetry();
    // One-shot mode folds the imm into a single-stripe data write; pipelined
    // mode always appends the zero-byte trailing imm, even for one chunk.
    if (pipelined) {
      EXPECT_EQ(tel.counter_value("rndv.imm_folded"), 0u);
    } else {
      EXPECT_GT(tel.counter_value("rndv.imm_folded"), 0u);
    }
    EXPECT_GT(tel.counter_value("rndv.imm_sent"), 0u) << "pipelined=" << pipelined;
    // Distinct payload buffers every round under a small budget: evictions
    // prove the elided-FIN path released its receiver- and sender-side pins.
    EXPECT_GT(tel.counter_value("rndv.reg_cache_evictions"), 0u) << "pipelined=" << pipelined;
  }
}

TEST(RndvProtocol, ConfigValidationRejectsBadKnobs) {
  const ClusterSpec pair{2, 1};
  {
    Config cfg;
    cfg.rndv.epsilon = 1.5;
    EXPECT_THROW(World(pair, cfg), std::invalid_argument);
  }
  {
    Config cfg;  // rails() == 1
    cfg.rndv.max_width = 2;
    EXPECT_THROW(World(pair, cfg), std::invalid_argument);
  }
}

// ---------------------------------------------------------------- Adaptive

Config adaptive_cfg(double epsilon, std::uint64_t seed, int max_width = 0) {
  Config cfg;
  cfg.rndv.adaptive = true;
  cfg.rndv.epsilon = epsilon;
  cfg.rndv.seed = seed;
  cfg.rndv.max_width = max_width;
  return cfg;
}

TEST(Adaptive, ArmSpaceIsProtocolTimesWidth) {
  RndvPolicy p(adaptive_cfg(0.1, 7), /*rank=*/0, /*nrails=*/4);
  EXPECT_EQ(p.arms(), 9);  // 3 protocols × widths {1, 2, 4}
  RndvPolicy capped(adaptive_cfg(0.1, 7, /*max_width=*/2), 0, 4);
  EXPECT_EQ(capped.arms(), 6);  // widths {1, 2}
  EXPECT_THROW(RndvPolicy(adaptive_cfg(-0.5, 7), 0, 4), std::invalid_argument);
}

TEST(Adaptive, EpsilonGreedyStaysWithinBounds) {
  const double eps = 0.2;
  RndvPolicy p(adaptive_cfg(eps, 0xadaf7), 0, 4);
  sim::Rng rewards(0x5eed);
  int explored_after_warmup = 0, draws_after_warmup = 0;
  std::uint64_t seen = 0;
  for (int i = 0; i < 2000; ++i) {
    bool explored = false;
    const int a = p.choose(/*peer=*/1, /*bytes=*/64 * 1024, /*live=*/4, &explored);
    ASSERT_GE(a, 0);
    ASSERT_LT(a, p.arms());
    seen |= std::uint64_t{1} << a;
    if (i >= p.arms()) {  // warm-up = one deterministic play of every arm
      ++draws_after_warmup;
      if (explored) ++explored_after_warmup;
    }
    p.record(1, 64 * 1024, a, static_cast<sim::Time>(1000 + rewards.next_below(1000)));
  }
  // Every arm measured at least once (the warm-up guarantee).
  EXPECT_EQ(seen, (std::uint64_t{1} << p.arms()) - 1);
  // Exploration rate ~ Binomial(1991, 0.2): mean 398, sd ~18.  ±5 sd bounds.
  EXPECT_GT(explored_after_warmup, draws_after_warmup / 5 - 90);
  EXPECT_LT(explored_after_warmup, draws_after_warmup / 5 + 90);
}

TEST(Adaptive, NeverPicksDeadRailArm) {
  RndvPolicy p(adaptive_cfg(0.3, 0xdead), 2, 4);
  sim::Rng rng(0xf1a5);
  for (int i = 0; i < 2000; ++i) {
    const int live = 1 << rng.next_below(3);  // 1, 2 or 4 rails up
    const std::int64_t bytes = std::int64_t{1} << (10 + rng.next_below(10));
    const int a = p.choose(0, bytes, live, nullptr);
    EXPECT_LE(p.arm(a).width, std::max(1, live))
        << "draw " << i << " picked width " << p.arm(a).width << " with " << live << " rails up";
    p.record(0, bytes, a, static_cast<sim::Time>(500 + rng.next_below(2000)));
  }
}

TEST(Adaptive, BitReproduciblePerSeed) {
  auto draw = [](std::uint64_t seed) {
    RndvPolicy p(adaptive_cfg(0.25, seed), 3, 4);
    sim::Rng rng(seed ^ 0xfeed);  // same synthetic reward stream per seed
    std::vector<int> picks;
    for (int i = 0; i < 2000; ++i) {
      const int live = 1 << rng.next_below(3);
      const int a = p.choose(i % 3, 32 * 1024, live, nullptr);
      picks.push_back(a);
      p.record(i % 3, 32 * 1024, a, static_cast<sim::Time>(100 + rng.next_below(5000)));
    }
    return picks;
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));  // canary: the seed actually feeds the stream
}

TEST(Adaptive, GreedyConvergesToTheBestArm) {
  // With epsilon = 0 the policy is pure greedy after warm-up; make one arm
  // strictly dominant and it must be chosen for every post-warm-up draw.
  RndvPolicy p(adaptive_cfg(0.0, 1), 0, 2);
  const int favoured = 3;
  for (int i = 0; i < 200; ++i) {
    const int a = p.choose(0, 8192, 2, nullptr);
    if (i >= p.arms()) {
      EXPECT_EQ(a, favoured) << "draw " << i;
    }
    p.record(0, 8192, a, a == favoured ? 10 : 1000);
  }
}

TEST(Adaptive, EndToEndAdaptiveRunStaysCorrect) {
  std::uint64_t explore = 0, exploit = 0;
  run_traffic(0xada97e, 32,
              [](Config& cfg) {
                cfg.rndv.adaptive = true;
                cfg.rndv.epsilon = 0.2;
                cfg.rndv.seed = 0x90110;
              },
              [&](World& w) {
                explore = w.telemetry().counter_value("rndv.policy_explore");
                exploit = w.telemetry().counter_value("rndv.policy_exploit");
              });
  // The run stayed payload-exact (checked inside run_traffic) and the policy
  // made the decisions.  With 9 arms per (peer, size-class) cell most draws
  // here are still warm-up, so exploit picks need only exist in aggregate.
  EXPECT_GT(explore, 0u);
  EXPECT_GT(explore + exploit, 8u);
}

TEST(Adaptive, SameSeedSameWorldIsBitReproducible) {
  auto run = [](std::uint64_t seed) {
    return run_traffic(0xada9b17, 24, [&](Config& cfg) {
      cfg.rndv.adaptive = true;
      cfg.rndv.epsilon = 0.15;
      cfg.rndv.seed = seed;
    });
  };
  const TrafficResult a = run(0x1234);
  const TrafficResult b = run(0x1234);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.order, b.order);
}

}  // namespace
}  // namespace ib12x::mvx
