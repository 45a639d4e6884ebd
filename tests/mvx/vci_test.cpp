// Virtual communication interfaces: config validation, the per-(peer, ctx,
// vci) matcher keys, multi-threaded ranks on dedicated vs. shared VCIs, VCI
// symmetry, the vci.* telemetry, and fault soak with several VCIs live.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "ib/fabric.hpp"
#include "mvx/matcher.hpp"
#include "mvx/mpi.hpp"
#include "mvx/net_channel.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

using testutil::payload;

// ------------------------------------------------------------- validation

void expect_ctor_names(Config cfg, const std::vector<std::string>& needles) {
  try {
    World w(ClusterSpec{2, 1}, cfg);
    FAIL() << "World ctor accepted an invalid vci config";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& n : needles) {
      EXPECT_NE(what.find(n), std::string::npos)
          << "error message misses '" << n << "': " << what;
    }
  }
}

TEST(VciConfig, CountOutOfRangeIsRejected) {
  Config lo;
  lo.vci.count = 0;
  expect_ctor_names(lo, {"vci.count", "Supported"});
  Config hi;
  hi.vci.count = kMaxVcis + 1;
  expect_ctor_names(hi, {"vci.count", "Supported"});
}

TEST(VciConfig, ThreadsBelowOneIsRejected) {
  Config cfg;
  cfg.vci.threads = 0;
  expect_ctor_names(cfg, {"vci.threads", "Supported"});
}

TEST(VciConfig, SrqSplitRoundingToZeroNamesBothFields) {
  Config cfg;  // default rails() == 1
  cfg.vci.count = 8;
  cfg.srq_pool_slots = 4;  // 4 / (1 rail * 8 vcis) rounds to zero
  expect_ctor_names(cfg, {"vci.count", "srq_pool_slots", "Supported"});
}

TEST(VciConfig, DefaultsAndGatedShapesConstruct) {
  World def(ClusterSpec{2, 1}, Config{});
  Config on;
  on.vci.count = 4;
  on.vci.threads = 4;
  World multi(ClusterSpec{2, 1}, on);
}

// ---------------------------------------------------------------- matcher

MsgHeader vci_eager(int src, int ctx, int vci, std::uint32_t seq, int tag = 0) {
  MsgHeader h;
  h.type = MsgType::Eager;
  h.vci = static_cast<std::uint8_t>(vci);
  h.src_rank = src;
  h.tag = tag;
  h.ctx = ctx;
  h.seq = seq;
  return h;
}

TEST(VciMatcher, DedupKeyIncludesVci) {
  // Regression for the per-(peer, seq) dedup key: two VCIs both legitimately
  // use seq 0 for the same (peer, ctx).  Under the old key the second
  // arrival looked like a fault-replay duplicate and was dropped.
  TelemetryRegistry tel;
  Matcher m(tel);
  EXPECT_EQ(m.sequence(1, vci_eager(1, 0, /*vci=*/0, /*seq=*/0), {}).size(), 1u);
  EXPECT_EQ(m.sequence(1, vci_eager(1, 0, /*vci=*/1, /*seq=*/0), {}).size(), 1u);
  EXPECT_EQ(tel.counter_value("fault.dup_dropped"), 0u);
  // A genuine duplicate within one VCI is still dropped.
  EXPECT_TRUE(m.sequence(1, vci_eager(1, 0, /*vci=*/1, /*seq=*/0), {}).empty());
  EXPECT_EQ(tel.counter_value("fault.dup_dropped"), 1u);
}

TEST(VciMatcher, SendSeqSpacesAreSlicedPerVci) {
  TelemetryRegistry tel;
  Matcher m(tel);
  EXPECT_EQ(m.next_send_seq(1, 0, 0), 0u);
  EXPECT_EQ(m.next_send_seq(1, 0, 2), 0u);  // each VCI owns its own counter
  EXPECT_EQ(m.next_send_seq(1, 0, 0), 1u);
  EXPECT_EQ(m.next_send_seq(1, 0, 2), 1u);
}

TEST(VciMatcher, SeededInterleavedArrivalsKeepPerVciOrder) {
  // Property: any interleaving of out-of-order arrivals across 4 VCIs must
  // deliver every VCI's stream in strict seq order with byte-exact payloads
  // and no duplicate drops.  Arrival schedules are fully seeded.
  constexpr int kVcis = 4;
  constexpr std::uint32_t kMsgs = 24;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TelemetryRegistry tel;
    Matcher m(tel);
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::vector<std::pair<int, std::uint32_t>> arrivals;  // (vci, seq)
    for (int v = 0; v < kVcis; ++v) {
      for (std::uint32_t s = 0; s < kMsgs; ++s) arrivals.emplace_back(v, s);
    }
    std::shuffle(arrivals.begin(), arrivals.end(), rng);

    std::vector<std::uint32_t> delivered(kVcis, 0);
    for (const auto& [v, s] : arrivals) {
      auto bytes = payload(64, /*rank=*/1, /*tag=*/v * 1000 + static_cast<int>(s));
      for (const Matcher::Inbound& msg :
           m.sequence(1, vci_eager(1, 0, v, s, v * 1000 + static_cast<int>(s)),
                      Payload::copy(bytes.data(), bytes.size()))) {
        const int mv = msg.hdr.vci;
        ASSERT_EQ(msg.hdr.seq, delivered[static_cast<std::size_t>(mv)])
            << "seed " << seed << " vci " << mv << " delivered out of order";
        const std::vector<std::byte> got(msg.payload.data(),
                                         msg.payload.data() + msg.payload.size());
        ASSERT_EQ(got, payload(64, 1, msg.hdr.tag)) << "seed " << seed;
        ++delivered[static_cast<std::size_t>(mv)];
      }
    }
    for (int v = 0; v < kVcis; ++v) {
      EXPECT_EQ(delivered[static_cast<std::size_t>(v)], kMsgs) << "seed " << seed;
    }
    EXPECT_EQ(tel.counter_value("fault.dup_dropped"), 0u) << "seed " << seed;
    EXPECT_EQ(m.reorder_count(), 0u) << "seed " << seed;
  }
}

// ----------------------------------------------------- end-to-end threads

/// Every thread of rank 0 streams `msgs` messages (its own tag range) to the
/// matching thread of rank 1 through a 32-deep non-blocking window; rank 1
/// verifies every byte.  Returns the virtual end time.
sim::Time run_thread_streams(int threads, int vcis, int msgs, std::size_t bytes,
                             const std::function<void(Config&)>& tweak = {}) {
  Config cfg;
  cfg.vci.threads = threads;
  cfg.vci.count = vcis;
  if (tweak) tweak(cfg);
  World w(ClusterSpec{2, 1}, cfg);
  w.run([&](Communicator& c) {
    const int t = c.thread_id();
    constexpr int kWindow = 32;
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int i = 0; i < msgs; ++i) {
        const int tag = t * 10000 + i;
        bufs.push_back(payload(bytes, 0, tag));
        reqs.push_back(c.isend(bufs.back().data(), bytes, BYTE, 1, tag));
        if (static_cast<int>(reqs.size()) == kWindow) {
          c.waitall(reqs);
          reqs.clear();
          bufs.clear();
        }
      }
      c.waitall(reqs);
    } else {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      std::vector<int> tags;
      auto drain = [&] {
        c.waitall(reqs);
        for (std::size_t k = 0; k < reqs.size(); ++k) {
          ASSERT_EQ(bufs[k], payload(bytes, 0, tags[k])) << "thread " << t << " tag " << tags[k];
        }
        reqs.clear();
        bufs.clear();
        tags.clear();
      };
      for (int i = 0; i < msgs; ++i) {
        const int tag = t * 10000 + i;
        bufs.emplace_back(bytes);
        reqs.push_back(c.irecv(bufs.back().data(), bytes, BYTE, 0, tag));
        tags.push_back(tag);
        if (static_cast<int>(reqs.size()) == kWindow) drain();
      }
      drain();
    }
  });
  return w.end_time();
}

TEST(VciEndToEnd, DedicatedVcisBeatOneSharedVci) {
  // The Zambre-style headline at test scale: 4 threads on 4 dedicated VCIs
  // move the same traffic materially faster than 4 threads serializing on
  // one VCI (bench/ablation_vci sweeps the full grid and asserts >= 2x).
  const sim::Time shared = run_thread_streams(/*threads=*/4, /*vcis=*/1, /*msgs=*/96, 512);
  const sim::Time dedicated = run_thread_streams(/*threads=*/4, /*vcis=*/4, /*msgs=*/96, 512);
  EXPECT_GT(shared, dedicated + dedicated / 2)
      << "4 threads on 1 VCI should be >= 1.5x slower than on 4 VCIs (shared " << shared
      << " ns, dedicated " << dedicated << " ns)";
}

TEST(VciEndToEnd, SingleThreadDefaultIsUnperturbed) {
  // vci.count = 1, vci.threads = 1 must reproduce today's timing exactly:
  // the VCI machinery may not add a nanosecond to the default path.
  Config cfg;
  World base(ClusterSpec{2, 1}, cfg);
  base.run([](Communicator& c) {
    auto data = payload(2048, 0, 5);
    if (c.rank() == 0) {
      c.send(data.data(), data.size(), BYTE, 1, 5);
    } else {
      std::vector<std::byte> got(2048);
      c.recv(got.data(), got.size(), BYTE, 0, 5);
      EXPECT_EQ(got, payload(2048, 0, 5));
    }
  });
  const sim::Time t1 = run_thread_streams(1, 1, 32, 512);
  const sim::Time t2 = run_thread_streams(1, 1, 32, 512);
  EXPECT_EQ(t1, t2) << "single-threaded runs must stay bit-reproducible";
}

TEST(VciEndToEnd, PerCommMappingRoutesByCommunicator) {
  // PerComm maps a communicator's two contexts to one VCI; dup() moves to
  // the next ctx pair and therefore the next VCI.  Traffic on both must
  // deliver intact (each stream rides its own sequence-space slice).
  Config cfg;
  cfg.vci.count = 2;
  cfg.vci.mapping = Config::VciConfig::Mapping::PerComm;
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    Communicator dup = c.dup();
    const std::size_t n = 1024;
    if (c.rank() == 0) {
      auto a = payload(n, 0, 1);
      auto b = payload(n, 0, 2);
      Request ra = c.isend(a.data(), n, BYTE, 1, 1);
      Request rb = dup.isend(b.data(), n, BYTE, 1, 2);
      c.wait(ra);
      dup.wait(rb);
    } else {
      std::vector<std::byte> a(n), b(n);
      Request ra = c.irecv(a.data(), n, BYTE, 0, 1);
      Request rb = dup.irecv(b.data(), n, BYTE, 0, 2);
      c.wait(ra);
      dup.wait(rb);
      EXPECT_EQ(a, payload(n, 0, 1));
      EXPECT_EQ(b, payload(n, 0, 2));
    }
  });
}

TEST(VciSymmetry, EveryVciHasTheSamePingPongLatency) {
  // Every VCI is alike: with 4 VCIs x 4 threads, a ping-pong driven by thread
  // k alone (so on VCI k alone) takes the same virtual time for every k.
  for (const std::size_t bytes : {std::size_t{1024}, std::size_t{64 * 1024}}) {
    std::vector<sim::Time> elapsed;
    for (int k = 0; k < 4; ++k) {
      Config cfg = Config::enhanced(2, Policy::EPC);
      cfg.vci.count = 4;
      cfg.vci.threads = 4;
      World w(ClusterSpec{2, 1}, cfg);
      sim::Time t = 0;
      w.run([&](Communicator& c) {
        if (c.thread_id() != k) return;
        std::vector<std::byte> buf = payload(bytes, 0, k);
        auto round_trip = [&] {
          if (c.rank() == 0) {
            c.send(buf.data(), bytes, BYTE, 1, k);
            c.recv(buf.data(), bytes, BYTE, 1, k);
          } else {
            c.recv(buf.data(), bytes, BYTE, 0, k);
            c.send(buf.data(), bytes, BYTE, 0, k);
          }
        };
        round_trip();  // warm-up: wires VCI k's QP group
        const sim::Time t0 = c.now();
        for (int i = 0; i < 10; ++i) round_trip();
        if (c.rank() == 0) t = c.now() - t0;
        EXPECT_EQ(buf, payload(bytes, 0, k));
      });
      elapsed.push_back(t);
    }
    for (int k = 1; k < 4; ++k) {
      EXPECT_EQ(elapsed[static_cast<std::size_t>(k)], elapsed[0])
          << bytes << " B ping-pong on VCI " << k << " vs VCI 0";
    }
  }
}

// -------------------------------------------------------------- telemetry

class VciTelemetry : public ::testing::TestWithParam<int> {};

TEST_P(VciTelemetry, CountersCoverEveryVci) {
  // One thread per VCI, RoundRobin: thread t drives VCI t alone, so every
  // VCI's send counter holds exactly that thread's sends and no lock is ever
  // contended.  The counters exist at every vci.count, 1 included.
  const int vcis = GetParam();
  Config cfg;
  cfg.vci.threads = vcis;
  cfg.vci.count = vcis;
  World w(ClusterSpec{2, 1}, cfg);
  constexpr int kMsgs = 16;
  w.run([&](Communicator& c) {
    const int t = c.thread_id();
    for (int i = 0; i < kMsgs; ++i) {
      std::vector<std::byte> buf(256);
      if (c.rank() == 0) {
        c.send(buf.data(), buf.size(), BYTE, 1, t * 100 + i);
      } else {
        c.recv(buf.data(), buf.size(), BYTE, 0, t * 100 + i);
      }
    }
  });
  const auto& tel = w.telemetry();
  for (int v = 0; v < vcis; ++v) {
    EXPECT_EQ(tel.counter_value("vci.sends.v" + std::to_string(v)),
              static_cast<std::uint64_t>(kMsgs))
        << "vci " << v;
  }
  EXPECT_EQ(tel.counter_value("vci.lock_contentions"), 0u);
  EXPECT_GT(tel.counter_value("vci.progress_wakeups"), 0u);
  EXPECT_GT(tel.counter_value("vci.credit_split"), 0u);
}

INSTANTIATE_TEST_SUITE_P(VciCount, VciTelemetry, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param);
                         });

TEST(VciTelemetry, SharedVciCountsLockContention) {
  Config cfg;
  cfg.vci.threads = 4;
  cfg.vci.count = 1;  // everyone serializes on VCI 0's lock
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    const int t = c.thread_id();
    for (int i = 0; i < 24; ++i) {
      std::vector<std::byte> buf(256);
      if (c.rank() == 0) {
        c.send(buf.data(), buf.size(), BYTE, 1, t * 100 + i);
      } else {
        c.recv(buf.data(), buf.size(), BYTE, 0, t * 100 + i);
      }
    }
  });
  EXPECT_GT(w.telemetry().counter_value("vci.lock_contentions"), 0u);
}

// ------------------------------------------------------------- fault soak

TEST(VciFaultSoak, MultiThreadMultiVciLedgerBalancesAndReproduces) {
  // 4 threads x 4 VCIs under link flaps and a per-message error rate: every
  // payload byte-exact, every send-side error handled by exactly one replay
  // mechanism, and the whole run bit-reproducible.
  auto soak = [](sim::Time* end_time) {
    Config cfg = Config::enhanced(2, Policy::EPC);
    cfg.hcas_per_node = 2;
    cfg.fault.enabled = true;
    cfg.fault.seed = 0x7c1fa17;
    cfg.fault.msg_error_rate = 0.03;
    for (int i = 0; i < 2; ++i) {
      Config::FaultConfig::LinkFlap f;
      f.node = i;
      f.hca = i;
      f.port = 0;
      f.down_at = sim::microseconds(40.0 + 120.0 * i);
      f.up_at = f.down_at + sim::microseconds(60.0);
      cfg.fault.link_flaps.push_back(f);
    }
    cfg.vci.count = 4;
    cfg.vci.threads = 4;
    World w(ClusterSpec{2, 1}, cfg);
    w.run([](Communicator& c) {
      const int t = c.thread_id();
      const int peer = 1 - c.rank();
      constexpr int kMsgs = 10;
      std::vector<std::vector<std::byte>> rbufs, sbufs;
      std::vector<Request> reqs;
      std::vector<std::tuple<std::size_t, int, std::size_t>> checks;  // (buf, tag, bytes)
      auto size_of = [](int i) -> std::size_t {
        switch (i % 3) {
          case 0: return 256;         // eager
          case 1: return 8 * 1024;    // straddles the bounce pool
          default: return 64 * 1024;  // rendezvous
        }
      };
      for (int i = 0; i < kMsgs; ++i) {
        const int tag = t * 1000 + i;
        rbufs.emplace_back(size_of(i));
        checks.emplace_back(rbufs.size() - 1, tag, size_of(i));
        reqs.push_back(c.irecv(rbufs.back().data(), size_of(i), BYTE, peer, tag));
      }
      for (int i = 0; i < kMsgs; ++i) {
        const int tag = t * 1000 + i;
        sbufs.push_back(payload(size_of(i), c.rank(), tag));
        reqs.push_back(c.isend(sbufs.back().data(), size_of(i), BYTE, peer, tag));
      }
      c.waitall(reqs);
      for (const auto& [k, tag, bytes] : checks) {
        ASSERT_EQ(rbufs[k], payload(bytes, peer, tag)) << "thread " << t << " tag " << tag;
      }
    });
    const auto& tel = w.telemetry();
    EXPECT_GT(tel.counter_value("fault.send_errors"), 0u) << "soak injected no faults";
    EXPECT_EQ(tel.counter_value("fault.send_errors"),
              tel.counter_value("fault.eager_retries") +
                  tel.counter_value("fault.rndv_restriped"));
    *end_time = w.end_time();
  };
  sim::Time a = 0;
  sim::Time b = 0;
  soak(&a);
  soak(&b);
  EXPECT_EQ(a, b) << "multi-VCI fault soak diverged between identical runs";
}

TEST(VciFaultSoak, EagerReplayStaysInItsVciSlice) {
  // Only thread 1 sends, so only VCI 1 carries traffic.  A failed eager
  // message is replayed within its own VCI's rail slice: VCI 0's QP never
  // sends a byte.
  Config cfg;
  cfg.vci.count = 2;
  cfg.vci.threads = 2;
  cfg.fault.enabled = true;
  cfg.fault.msg_error_rate = 0.1;
  World w(ClusterSpec{2, 1}, cfg);
  constexpr int kMsgs = 200;
  w.run([](Communicator& c) {
    if (c.thread_id() != 1) return;
    for (int i = 0; i < kMsgs; ++i) {
      if (c.rank() == 0) {
        auto buf = payload(256, 0, i);
        c.send(buf.data(), buf.size(), BYTE, 1, i);
      } else {
        std::vector<std::byte> buf(256);
        c.recv(buf.data(), buf.size(), BYTE, 0, i);
        ASSERT_EQ(buf, payload(256, 0, i)) << "msg " << i;
      }
    }
  });
  EXPECT_GT(w.telemetry().counter_value("fault.eager_retries"), 0u) << "no replay exercised";
  EXPECT_EQ(w.fabric().hca(0).port_qps(0)[0]->bytes_sent(), 0u)
      << "an eager replay left VCI 1's slice for VCI 0's QP";
}

TEST(VciFaultSoak, QueuedRtsProbeJudgesLivenessWithinItsVciSlice) {
  // probe_ctl_rail is the check a queued RTS makes before it is posted from
  // event context.  It must find a fully down VCI slice dead even while
  // another VCI's rail still reads up.  Here VCI 0's rail is wired before
  // rank 0's port dies: its QP errors, but no send has failed on it, so it
  // still reads up.  VCI 1's rail is wired behind the dead port and starts
  // down.  Two standalone channels over the World's HCAs stand in for
  // ranks 0 and 1, so the wiring order can be set by hand.
  Config cfg;
  cfg.vci.count = 2;
  cfg.fault.enabled = true;
  cfg.fault.link_flaps.push_back(
      {.node = 0, .hca = 0, .port = 0, .down_at = sim::microseconds(1.0)});  // never up again
  World w(ClusterSpec{2, 1}, cfg);
  ASSERT_EQ(w.config().rails(), 1);
  NetChannel a(w.endpoint(0), {&w.fabric().hca(0)});
  NetChannel b(w.endpoint(1), {&w.fabric().hca(1)});
  NetChannel::establish(a, b);  // VCI 0, port still up
  w.simulator().run();          // the port goes down
  a.ensure_vci(1, 1);           // VCI 1, behind the dead port
  ASSERT_EQ(a.live_rails(1, 0), std::vector<int>{0});
  ASSERT_TRUE(a.live_rails(1, 1).empty());
  EXPECT_EQ(a.probe_ctl_rail(1, 1), -1) << "an RTS on VCI 1 was handed a down rail";
  EXPECT_EQ(a.probe_ctl_rail(1, 0), 0);
}

TEST(VciFaultSoak, PairWiredBehindADeadPortIsDownAtBothEnds) {
  // A link that dies after wiring errors both QPs of the pair
  // (FaultPlan::apply); a pair wired while one end's port is already down
  // must start out the same way, or the end whose port is up keeps a live
  // rail into a dead link and learns of it only from its first failed send.
  // Node 1's port is down from 1 us to 100 us; two standalone channels over
  // the World's HCAs stand in for ranks 0 and 1 and are wired at 10 us.
  Config cfg;
  cfg.fault.enabled = true;
  cfg.fault.link_flaps.push_back({.node = 1,
                                  .hca = 0,
                                  .port = 0,
                                  .down_at = sim::microseconds(1.0),
                                  .up_at = sim::microseconds(100.0)});
  World w(ClusterSpec{2, 1}, cfg);
  ASSERT_EQ(w.config().rails(), 1);
  NetChannel a(w.endpoint(0), {&w.fabric().hca(0)});
  NetChannel b(w.endpoint(1), {&w.fabric().hca(1)});
  w.simulator().run_until(sim::microseconds(10.0));  // node 1's port goes down
  NetChannel::establish(a, b);
  EXPECT_TRUE(a.live_rails(1, 0).empty()) << "rank 0's rail into the dead link reads up";
  EXPECT_TRUE(b.live_rails(0, 0).empty());
  for (int h : {0, 1}) {
    ASSERT_EQ(w.fabric().hca(h).port_qps(0).size(), 1u);
    EXPECT_EQ(w.fabric().hca(h).port_qps(0)[0]->state(), ib::QpState::Error) << "hca " << h;
  }
  // The port comes back: the FaultPlan resets the pair and both rails recover.
  w.simulator().run();
  EXPECT_EQ(a.live_rails(1, 0), std::vector<int>{0});
  EXPECT_EQ(b.live_rails(0, 0), std::vector<int>{0});
}

}  // namespace
}  // namespace ib12x::mvx
