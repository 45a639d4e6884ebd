// Bit-reproducibility of the simulation: two identical runs in the same
// process must agree on every observable — event count, final virtual time,
// and the full telemetry snapshot (excluding the "sim.wall." gauges, which
// measure host speed, not the model).  This is the regression net under the
// event kernel: any nondeterminism in queue ordering, fiber scheduling, or
// channel state would show up here as a diff.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mvx/block_pool.hpp"
#include "mvx/mpi.hpp"
#include "sim/rng.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

using testutil::payload;

struct RunDigest {
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  sim::Time end_time = 0;
  std::uint64_t pool_blocks = 0;  ///< BlockPool blocks the World took
  std::size_t pool_held = 0;      ///< BlockPool bytes the World still holds
  std::map<std::string, double> telemetry;
};

/// Declared before a World: records the process BlockPool's counts, and
/// checks when it dies, after the World, that the World gave back every
/// block it took.
struct PoolMark {
  const BlockPool::Stats before = BlockPool::shared().stats();
  PoolMark() = default;
  PoolMark(const PoolMark&) = delete;
  PoolMark& operator=(const PoolMark&) = delete;
  ~PoolMark() { EXPECT_EQ(BlockPool::shared().stats().live_bytes, before.live_bytes); }
};

RunDigest digest_of(World& w, const PoolMark& mark) {
  RunDigest d;
  d.events = w.simulator().events_processed();
  d.scheduled = w.simulator().events_scheduled();
  d.end_time = w.end_time();
  const BlockPool::Stats& now = BlockPool::shared().stats();
  d.pool_blocks = now.acquired - mark.before.acquired;
  d.pool_held = now.live_bytes - mark.before.live_bytes;
  for (const auto& s : w.telemetry().snapshot()) {
    if (s.name.rfind("sim.wall.", 0) == 0) continue;  // host-speed gauges
    d.telemetry[s.name] = s.value;
  }
  return d;
}

void expect_bit_identical(const RunDigest& a, const RunDigest& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.pool_blocks, b.pool_blocks);
  EXPECT_EQ(a.pool_held, b.pool_held);

  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (const auto& [name, value] : a.telemetry) {
    auto it = b.telemetry.find(name);
    ASSERT_NE(it, b.telemetry.end()) << "metric missing in second run: " << name;
    EXPECT_EQ(value, it->second) << "metric diverged: " << name;
  }
}

/// A fig06_bw_uni_large-sized workload on `nodes` nodes of two ranks each:
/// windowed unidirectional bandwidth with large (rendezvous-path) messages
/// plus a small-message ack, run over both the network and shared-memory
/// channels.
RunDigest run_workload(int nodes, const Config& cfg) {
  const PoolMark mark;
  World w(ClusterSpec{nodes, /*procs_per_node=*/2}, cfg);
  constexpr std::size_t kBytes = 1 << 20;
  constexpr int kWindow = 4;
  constexpr int kIters = 3;
  w.run([](Communicator& c) {
    std::vector<std::byte> buf(kBytes, std::byte{0x5a});
    const int peer = c.rank() ^ 2;  // cross-node pairs: (0,2) (1,3) (4,6) ...
    const int neighbor = c.rank() ^ 1;  // same-node pairs: (0,1) (2,3) ...
    for (int it = 0; it < kIters; ++it) {
      if ((c.rank() & 2) == 0) {
        std::vector<Request> reqs;
        for (int i = 0; i < kWindow; ++i) {
          reqs.push_back(c.isend(buf.data(), buf.size(), BYTE, peer, it));
        }
        c.waitall(reqs);
        std::byte ack{};
        c.recv(&ack, 1, BYTE, peer, 100 + it);
      } else {
        std::vector<Request> reqs;
        for (int i = 0; i < kWindow; ++i) {
          reqs.push_back(c.irecv(buf.data(), buf.size(), BYTE, peer, it));
        }
        c.waitall(reqs);
        std::byte ack{};
        c.send(&ack, 1, BYTE, peer, 100 + it);
      }
      // Same-node shm traffic in the same virtual timeframe.
      std::byte tok{};
      if (c.rank() % 2 == 0) {
        c.send(&tok, 1, BYTE, neighbor, 200 + it);
        c.recv(&tok, 1, BYTE, neighbor, 200 + it);
      } else {
        c.recv(&tok, 1, BYTE, neighbor, 200 + it);
        c.send(&tok, 1, BYTE, neighbor, 200 + it);
      }
    }
    c.barrier();
  });
  return digest_of(w, mark);
}

/// A collective-heavy workload for the schedule engine: blocking collectives,
/// overlapped non-blocking collectives (engine + progress fibers), a dup'd
/// communicator, and the multi-lane bcast path.
RunDigest run_coll_workload() {
  Config cfg = Config::enhanced(4, Policy::EPC);
  cfg.coll.lanes = 0;  // exercise the multi-lane builders too
  const PoolMark mark;
  World w(ClusterSpec{/*nodes=*/2, /*procs_per_node=*/2}, cfg);
  w.run([](Communicator& c) {
    const std::size_t n = 1 << 16;
    std::vector<double> in(n, 1.0 + c.rank()), out(n);
    std::vector<std::byte> big(1 << 20, std::byte{0x3c});
    Communicator d = c.dup();
    for (int it = 0; it < 2; ++it) {
      Request ra = c.iallreduce(in.data(), out.data(), n, DOUBLE, Op::Sum);
      Request rb = d.ibcast(big.data(), big.size(), BYTE, it % c.size());
      c.compute(sim::microseconds(50));
      c.wait(ra);
      c.wait(rb);
      c.alltoall(in.data(), out.data(), 64, DOUBLE);
      c.barrier();
    }
  });
  return digest_of(w, mark);
}

/// Four app threads per rank over four VCIs, every VCI group wired at
/// startup: each thread exchanges a mix of eager and rendezvous messages with
/// its counterpart on the other node and checks every payload.
RunDigest run_multithread_vci_workload() {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.lazy_connect = false;
  cfg.vci.count = 4;
  cfg.vci.threads = 4;
  const PoolMark mark;
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) {
    const int t = c.thread_id();
    const int peer = 1 - c.rank();
    constexpr int kMsgs = 12;
    auto bytes_of = [](int i) -> std::size_t { return (i % 2 == 0) ? 512 : 48 * 1024; };
    std::vector<std::vector<std::byte>> rbufs, sbufs;
    std::vector<Request> reqs;
    for (int i = 0; i < kMsgs; ++i) {
      const int tag = t * 1000 + i;
      rbufs.emplace_back(bytes_of(i));
      reqs.push_back(c.irecv(rbufs.back().data(), bytes_of(i), BYTE, peer, tag));
      sbufs.push_back(payload(bytes_of(i), c.rank(), tag));
      reqs.push_back(c.isend(sbufs.back().data(), bytes_of(i), BYTE, peer, tag));
    }
    c.waitall(reqs);
    for (int i = 0; i < kMsgs; ++i) {
      ASSERT_EQ(rbufs[static_cast<std::size_t>(i)], payload(bytes_of(i), peer, t * 1000 + i))
          << "thread " << t << " msg " << i;
    }
  });
  return digest_of(w, mark);
}

/// One World of 2 nodes x `procs_per_node` reused for fourteen runs, 1 MiB
/// down to 16 KiB twice.  Each run makes fresh buffers and loops sendrecv
/// with partners rank^1, rank^2, ...: at 2x1 the one partner is across the
/// network, at 2x2 rank^1 is on the same node (shm) and rank^2 across the
/// network.  Whether a run's buffers hit the pin-down cache depends only on
/// which registrations are still live.  With `pad_seed` != 0 a seeded
/// random-size heap block is held across each run boundary, which moves
/// where the next run's buffers land (on the brk heap or among the mmap'd
/// blocks, by size).
RunDigest run_fresh_buffer_sweep(std::uint64_t pad_seed, int procs_per_node = 1) {
  const PoolMark mark;
  World w(ClusterSpec{2, procs_per_node}, Config::enhanced(4, Policy::EPC));
  sim::Rng rng(pad_seed);
  std::unique_ptr<std::byte[]> pad;
  for (int run = 0; run < 14; ++run) {
    const std::size_t bytes = std::size_t{1} << (20 - run % 7);
    w.run([bytes](Communicator& c) {
      for (int bit = 1; bit < c.size(); bit <<= 1) {
        const int peer = c.rank() ^ bit;
        const std::vector<std::byte> sbuf = payload(bytes, c.rank());
        std::vector<std::byte> rbuf(bytes);
        for (int i = 0; i < 4; ++i) {
          c.sendrecv(sbuf.data(), bytes, BYTE, peer, i, rbuf.data(), bytes, BYTE, peer, i);
        }
        EXPECT_EQ(rbuf, payload(bytes, peer));
      }
    });
    if (pad_seed != 0) pad = std::make_unique<std::byte[]>(1 + rng.next_below(2 << 20));
  }
  return digest_of(w, mark);
}

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  const RunDigest a = run_workload(2, Config::enhanced(4, Policy::EPC));
  const RunDigest b = run_workload(2, Config::enhanced(4, Policy::EPC));
  expect_bit_identical(a, b);
  // Sanity: the workload did real work (108 WQEs) and exercised the
  // kernel's fast paths.  The work floor counts modelled WQEs, not kernel
  // events: the event count is the simulator's own cost and falls whenever
  // the kernel gets cheaper (946 events here once waiters resume only on a
  // true predicate).
  EXPECT_GT(a.telemetry.at("ib.wqes_serviced"), 100.0);
  EXPECT_GT(a.telemetry.at("sim.events"), 0.0);
  EXPECT_GT(a.telemetry.at("sim.lane_events"), 0.0);
  EXPECT_GT(a.telemetry.at("sim.fiber_switches"), 0.0);
}

TEST(Determinism, CollectiveWorkloadIsBitIdentical) {
  const RunDigest a = run_coll_workload();
  const RunDigest b = run_coll_workload();
  expect_bit_identical(a, b);
  // Sanity: the schedule engine actually ran.
  EXPECT_GT(a.telemetry.at("coll.schedules"), 0.0);
  EXPECT_GT(a.telemetry.at("coll.rounds"), 0.0);
  EXPECT_GT(a.telemetry.at("coll.ops"), 0.0);
}

TEST(Determinism, EagerWiredFourNodeWorkloadIsBitIdentical) {
  Config cfg = Config::enhanced(4, Policy::EPC);
  cfg.lazy_connect = false;  // every pair wired at startup
  const RunDigest a = run_workload(4, cfg);
  const RunDigest b = run_workload(4, cfg);
  expect_bit_identical(a, b);
  EXPECT_GT(a.telemetry.at("rndv.bytes_sent"), 0.0);
}

TEST(Determinism, MultiThreadVciWorkloadIsBitIdentical) {
  const RunDigest a = run_multithread_vci_workload();
  const RunDigest b = run_multithread_vci_workload();
  expect_bit_identical(a, b);
  EXPECT_GT(a.telemetry.at("rndv.bytes_sent"), 0.0);
}

TEST(Determinism, HeapPaddingDoesNotChangeRegistrationHits) {
  const RunDigest plain = run_fresh_buffer_sweep(0);
  EXPECT_GT(plain.telemetry.at("rndv.reg_cache_hits"), 0.0);
  EXPECT_GT(plain.telemetry.at("rndv.reg_cache_misses"), 0.0);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("pad seed " + std::to_string(seed));
    expect_bit_identical(plain, run_fresh_buffer_sweep(seed));
  }
}

TEST(Determinism, HeapPaddingDoesNotChangeRecycledShmPayloads) {
  // At 2x2 the same-node exchanges copy payloads of 128 KiB and up into
  // recycled BlockPool blocks.
  const RunDigest plain = run_fresh_buffer_sweep(0, /*procs_per_node=*/2);
  EXPECT_GT(plain.telemetry.at("shm.bytes_sent"), 0.0);
  EXPECT_GT(plain.pool_blocks, 0u);
  EXPECT_GT(plain.telemetry.at("rndv.reg_cache_hits"), 0.0);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("pad seed " + std::to_string(seed));
    expect_bit_identical(plain, run_fresh_buffer_sweep(seed, /*procs_per_node=*/2));
  }
}

}  // namespace
}  // namespace ib12x::mvx
