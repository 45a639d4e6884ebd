// The three workloads.  Each is a closed loop: every rank issues its next
// call only after its previous one returned.  A workload's inputs (operation
// order, sizes, payload bytes) come from its seed alone and are built once
// per process; every round replays them on fresh Worlds.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "nas/ft.hpp"
#include "nas/is.hpp"
#include "nas/params.hpp"

namespace perfbench {

using mvx::BYTE;
using mvx::Communicator;
using mvx::INT64;
using mvx::Request;

namespace {

bool same(const std::byte* got, const std::byte* want, std::size_t n) {
  return std::memcmp(got, want, n) == 0;
}

/// Marks the first and last byte of a receive buffer as not-yet-delivered,
/// so a message that never lands cannot pass its check on stale bytes.
void poison(std::byte* buf, const std::byte* want, std::size_t n) {
  buf[0] = want[0] ^ std::byte{0xff};
  buf[n - 1] = want[n - 1] ^ std::byte{0xff};
}

mvx::Config epc4() { return mvx::Config::enhanced(4, mvx::Policy::EPC); }

// ---------------------------------------------------------------------------
// pt2pt_paper: the paper's testbed, 2 nodes x 1 rank on a crossbar, run once
// with the original 1-QP configuration and once with EPC over 4 QPs.

constexpr int kTagPing = 1;
constexpr int kTagWindow = 2;
constexpr int kTagAck = 3;
constexpr std::size_t kMsgShift = 64;  ///< window message m of rank r starts at (r*64+m)*64

class Pt2ptPaper final : public Workload {
 public:
  explicit Pt2ptPaper(std::uint64_t seed) : plan_(make_pt2pt_plan(seed)) {
    std::int64_t max_pp = 1, max_win = 1;
    for (const PtOp& op : plan_) {
      std::int64_t& m = op.kind == PtOp::Kind::PingPong ? max_pp : max_win;
      m = std::max(m, op.bytes);
    }
    max_win_ = static_cast<std::size_t>(max_win);
    stream_ = make_stream(seed ^ 0x70a2, 2 * kPingPongSlots * kSlotStride +
                                             static_cast<std::size_t>(std::max(max_pp, max_win)));
    for (int r = 0; r < 2; ++r) {
      rbuf_[r].resize(static_cast<std::size_t>(max_pp));
      slots_[r].resize(kWindow * max_win_);
    }
    // Warm-up: every payload base the timed phase uses, at its largest
    // length, so the pin-down cache (exact-base lookup) is warm and the
    // lazy connection is wired before timing starts.
    for (int s = 0; s < kPingPongSlots; ++s) warm_.push_back({PtOp::Kind::PingPong, max_pp, s});
    warm_.push_back({PtOp::Kind::Uni, max_win, 0});
    warm_.push_back({PtOp::Kind::Bi, max_win, 0});
  }

  Round round(Tracer* tr) override {
    Round r;
    for (const mvx::Config& cfg : {mvx::Config::original(), epc4()}) {
      const std::int64_t t0 = host_ns();
      std::unique_ptr<mvx::World> w;
      {
        Scope s(tr, "world.construct");
        w = std::make_unique<mvx::World>(mvx::ClusterSpec{2, 1}, cfg);
      }
      r.conn_setup_s += run_phase(*w, r, tr, false,
                                  [this](Communicator& c, RunCtx& x) { exec(c, x, warm_); });
      r.setup_s += static_cast<double>(host_ns() - t0) / 1e9;
      run_phase(*w, r, tr, true, [this](Communicator& c, RunCtx& x) { exec(c, x, plan_); });
      close_world(*w, r);
    }
    return r;
  }

 private:
  const std::byte* ping(int slot) const { return stream_.data() + slot * kSlotStride; }
  const std::byte* pong(int slot) const {
    return stream_.data() + (kPingPongSlots + slot) * kSlotStride;
  }
  const std::byte* window_src(int rank, int m) const {
    return stream_.data() + static_cast<std::size_t>(rank * kWindow + m) * kMsgShift;
  }

  void exec(Communicator& c, RunCtx& x, const std::vector<PtOp>& ops) {
    const int me = c.rank();
    const int peer = 1 - me;
    std::byte* rbuf = rbuf_[me].data();
    std::byte* slots = slots_[me].data();
    std::vector<Request> reqs;
    reqs.reserve(2 * kWindow);
    for (const PtOp& op : ops) {
      const auto n = static_cast<std::size_t>(op.bytes);
      switch (op.kind) {
        case PtOp::Kind::PingPong:
          if (me == 0) {
            x.op(c, "mpi.send", [&] { c.send(ping(op.slot), n, BYTE, 1, kTagPing); });
            poison(rbuf, pong(op.slot), n);
            x.op(c, "mpi.recv", [&] { c.recv(rbuf, n, BYTE, 1, kTagPing); });
            x.check(same(rbuf, pong(op.slot), n), "ping-pong reply payload");
            if (x.timed) x.round->pt2pt_msgs += 2;
          } else {
            poison(rbuf, ping(op.slot), n);
            x.op(c, "mpi.recv", [&] { c.recv(rbuf, n, BYTE, 0, kTagPing); });
            x.check(same(rbuf, ping(op.slot), n), "ping-pong payload");
            x.op(c, "mpi.send", [&] { c.send(pong(op.slot), n, BYTE, 0, kTagPing); });
          }
          break;
        case PtOp::Kind::Uni:
          if (me == 0) {
            x.op(c, "mpi.window_send", [&] {
              reqs.clear();
              for (int m = 0; m < kWindow; ++m) {
                reqs.push_back(c.isend(window_src(0, m), n, BYTE, 1, kTagWindow));
              }
              c.waitall(reqs);
              std::byte ack{};
              c.recv(&ack, 1, BYTE, 1, kTagAck);
            });
            if (x.timed) x.round->pt2pt_msgs += kWindow + 1;
          } else {
            for (int m = 0; m < kWindow; ++m) poison(slots + m * max_win_, window_src(0, m), n);
            x.op(c, "mpi.window_recv", [&] {
              reqs.clear();
              for (int m = 0; m < kWindow; ++m) {
                reqs.push_back(c.irecv(slots + m * max_win_, n, BYTE, 0, kTagWindow));
              }
              c.waitall(reqs);
              const std::byte ack{1};
              c.send(&ack, 1, BYTE, 0, kTagAck);
            });
            for (int m = 0; m < kWindow; ++m) {
              x.check(same(slots + m * max_win_, window_src(0, m), n), "uni window payload");
            }
          }
          break;
        case PtOp::Kind::Bi:
          for (int m = 0; m < kWindow; ++m) poison(slots + m * max_win_, window_src(peer, m), n);
          x.op(c, "mpi.window_exchange", [&] {
            reqs.clear();
            for (int m = 0; m < kWindow; ++m) {
              reqs.push_back(c.irecv(slots + m * max_win_, n, BYTE, peer, kTagWindow));
            }
            for (int m = 0; m < kWindow; ++m) {
              reqs.push_back(c.isend(window_src(me, m), n, BYTE, peer, kTagWindow));
            }
            c.waitall(reqs);
          });
          for (int m = 0; m < kWindow; ++m) {
            x.check(same(slots + m * max_win_, window_src(peer, m), n), "bi window payload");
          }
          if (x.timed && me == 0) x.round->pt2pt_msgs += 2 * kWindow;
          break;
      }
    }
  }

  std::vector<PtOp> plan_;
  std::vector<PtOp> warm_;
  std::size_t max_win_ = 1;
  std::vector<std::byte> stream_;
  std::vector<std::byte> rbuf_[2];
  std::vector<std::byte> slots_[2];  ///< window receive slots, max_win_ apart
};

// ---------------------------------------------------------------------------
// coll_fattree64: 16 nodes x 4 ranks on a contended fat-tree, EPC-4QP, lazy
// connections and SRQ (the defaults).  Each iteration runs an eager and a
// rendezvous alltoall, an allreduce and a bcast from a seeded root; the seed
// also nudges the three message sizes (by at most 1.2 %) and fills every
// payload.

class CollFatTree64 final : public Workload {
 public:
  static constexpr int kNodes = 16;
  static constexpr int kPerNode = 4;
  static constexpr int kRanks = kNodes * kPerNode;
  static constexpr int kWarmIters = 2;  ///< one per send-buffer parity
  static constexpr int kIters = 4;
  static constexpr std::size_t kReduceCount = 512;

  struct Iter {
    int root = 0;
    std::vector<std::int64_t> expected;  ///< allreduce result
  };

  explicit CollFatTree64(std::uint64_t seed) {
    sim::Rng rng(seed);
    eager_ = 1024 - 4 * static_cast<std::size_t>(rng.next_below(4));
    rndv_ = 16384 + 64 * static_cast<std::size_t>(rng.next_below(4));
    bcast_ = 65536 - 64 * static_cast<std::size_t>(rng.next_below(8));
    seed_ = seed;
    for (int i = 0; i < kWarmIters + kIters; ++i) {
      Iter it;
      it.root = static_cast<int>(rng.next_below(kRanks));
      it.expected.assign(kReduceCount, 0);
      for (int r = 0; r < kRanks; ++r) {
        for (std::size_t j = 0; j < kReduceCount; ++j) it.expected[j] += contribution(i, r, j);
      }
      iters_.push_back(std::move(it));
    }
    stream_ = make_stream(seed ^ 0xc011, 2 * kRanks * kMsgShift + kRanks * rndv_ + bcast_ +
                                             (kWarmIters + kIters) * kMsgShift);
    for (int r = 0; r < kRanks; ++r) {
      recv_eager_[r].resize(kRanks * eager_);
      recv_rndv_[r].resize(kRanks * rndv_);
      bcast_buf_[r].resize(bcast_);
    }
  }

  Round round(Tracer* tr) override {
    Round r;
    mvx::Config cfg = epc4();
    cfg.topo.shape = ib12x::ib::TopoShape::FatTree;
    cfg.topo.contention = true;
    const std::int64_t t0 = host_ns();
    std::unique_ptr<mvx::World> w;
    {
      Scope s(tr, "world.construct");
      w = std::make_unique<mvx::World>(mvx::ClusterSpec{kNodes, kPerNode}, cfg);
    }
    r.conn_setup_s += run_phase(*w, r, tr, false, [this](Communicator& c, RunCtx& x) {
      exec(c, x, 0, kWarmIters);
    });
    r.setup_s += static_cast<double>(host_ns() - t0) / 1e9;
    run_phase(*w, r, tr, true, [this](Communicator& c, RunCtx& x) {
      exec(c, x, kWarmIters, kWarmIters + kIters);
    });
    close_world(*w, r);
    return r;
  }

 private:
  /// Rank r's allreduce input element j in iteration i.
  std::int64_t contribution(int i, int r, std::size_t j) const {
    std::uint64_t z = seed_ ^ (static_cast<std::uint64_t>(i) << 40) ^
                      (static_cast<std::uint64_t>(r) << 20) ^ j;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::int64_t>((z ^ (z >> 31)) & 0xffffff);
  }

  /// Rank r's alltoall send buffer: a slice of the stream shifted by rank
  /// and iteration parity, so every (sender, receiver, parity) block differs
  /// while the buffer bases repeat and the pin-down cache can warm.
  const std::byte* a2a_src(int rank, int parity) const {
    return stream_.data() + static_cast<std::size_t>(2 * rank + parity) * kMsgShift;
  }
  const std::byte* bcast_src(int iter) const {
    return stream_.data() + 2 * kRanks * kMsgShift + static_cast<std::size_t>(iter) * kMsgShift;
  }

  void alltoall(Communicator& c, RunCtx& x, int parity, std::size_t per, std::byte* rbuf) {
    const int me = c.rank();
    for (int s = 0; s < kRanks; ++s) poison(rbuf + s * per, a2a_src(s, parity) + me * per, per);
    x.op(c, "mpi.alltoall", [&] { c.alltoall(a2a_src(me, parity), rbuf, per, BYTE); });
    for (int s = 0; s < kRanks; ++s) {
      x.check(same(rbuf + s * per, a2a_src(s, parity) + me * per, per), "alltoall block");
    }
  }

  void exec(Communicator& c, RunCtx& x, int first, int last) {
    const int me = c.rank();
    std::vector<std::int64_t> in(kReduceCount), out(kReduceCount);
    for (int i = first; i < last; ++i) {
      const Iter& it = iters_[static_cast<std::size_t>(i)];
      alltoall(c, x, i % 2, eager_, recv_eager_[me].data());
      alltoall(c, x, i % 2, rndv_, recv_rndv_[me].data());

      for (std::size_t j = 0; j < kReduceCount; ++j) in[j] = contribution(i, me, j);
      out.assign(kReduceCount, -1);
      x.op(c, "mpi.allreduce", [&] {
        c.allreduce(in.data(), out.data(), kReduceCount, INT64, mvx::Op::Sum);
      });
      x.check(out == it.expected, "allreduce result");

      std::byte* buf = bcast_buf_[me].data();
      if (me == it.root) {
        std::memcpy(buf, bcast_src(i), bcast_);
      } else {
        poison(buf, bcast_src(i), bcast_);
      }
      x.op(c, "mpi.bcast", [&] { c.bcast(buf, bcast_, BYTE, it.root); });
      x.check(same(buf, bcast_src(i), bcast_), "bcast payload");
      if (x.timed) x.round->coll_calls += 4;
    }
  }

  std::uint64_t seed_ = 0;
  std::size_t eager_ = 0, rndv_ = 0, bcast_ = 0;
  std::vector<Iter> iters_;  ///< kWarmIters warm-up iterations, then the timed ones
  std::vector<std::byte> stream_;
  std::vector<std::byte> recv_eager_[kRanks];
  std::vector<std::byte> recv_rndv_[kRanks];
  std::vector<std::byte> bcast_buf_[kRanks];
};

// ---------------------------------------------------------------------------
// nas_is_ft: NAS IS and FT on 2 nodes x 4 ranks, EPC-4QP, results verified.
// The kernels generate their own keys and fields; the seed trims the IS key
// count by a multiple of the rank count (under 0.4 %), orders the two kernels
// and skews each rank's arrival at each kernel by up to 20 us of virtual
// compute.

class NasIsFt final : public Workload {
 public:
  static constexpr int kNodes = 2;
  static constexpr int kPerNode = 4;

  explicit NasIsFt(std::uint64_t seed) {
    sim::Rng rng(seed);
    is_ = ib12x::nas::is_params(ib12x::nas::NasClass::A);
    is_.total_keys -= kNodes * kPerNode * static_cast<std::int64_t>(rng.next_below(2048));
    ft_ = ib12x::nas::ft_params(ib12x::nas::NasClass::A);
    ft_first_ = rng.next_below(2) == 1;
    for (auto& s : skew_) s = sim::nanoseconds(static_cast<double>(rng.next_below(20000)));
  }

  Round round(Tracer* tr) override {
    Round r;
    const std::int64_t t0 = host_ns();
    std::unique_ptr<mvx::World> w;
    {
      Scope s(tr, "world.construct");
      w = std::make_unique<mvx::World>(mvx::ClusterSpec{kNodes, kPerNode}, epc4());
    }
    // Warm-up: class S of both kernels wires every pair and exercises the
    // alltoall(v) paths once.
    r.conn_setup_s += run_phase(*w, r, tr, false, [](Communicator& c, RunCtx& x) {
      const auto cls = ib12x::nas::NasClass::S;
      x.check(ib12x::nas::run_is(c, cls).verified, "IS class S verification");
      x.check(ib12x::nas::run_ft(c, cls).verified, "FT class S verification");
      x.round->attempted += 2;
    });
    r.setup_s += static_cast<double>(host_ns() - t0) / 1e9;

    Window is_win, ft_win;
    double is_virt = 0, ft_virt = 0;
    run_phase(*w, r, tr, true, [&](Communicator& c, RunCtx& x) {
      // One kernel call on this rank: arrival skew, then the timed call.
      auto kernel = [&](const char* name, sim::Time skew, Window& win, double& virt, auto run) {
        c.compute(skew);
        Scope s(x.tracer, name, c.rank() + 1, x.run_span, true);
        win.enter();
        const sim::Time v0 = c.now();
        const auto res = run();
        x.round->op_us.push_back(sim::to_us(c.now() - v0));
        win.leave();
        virt = std::max(virt, res.seconds);
        x.check(res.verified, name);
        ++x.round->attempted;
      };
      auto is = [&] {
        kernel("nas.run_is", skew_[2 * c.rank()], is_win, is_virt,
               [&] { return ib12x::nas::run_is(c, is_); });
      };
      auto ft = [&] {
        kernel("nas.run_ft", skew_[2 * c.rank() + 1], ft_win, ft_virt,
               [&] { return ib12x::nas::run_ft(c, ft_); });
      };
      if (ft_first_) {
        ft();
        is();
      } else {
        is();
        ft();
      }
    });
    r.nas_host_s = is_win.seconds() + ft_win.seconds();
    r.nas_virt_s = is_virt + ft_virt;
    close_world(*w, r);
    return r;
  }

 private:
  /// Host time from the first rank entering a kernel to the last leaving it.
  struct Window {
    std::int64_t first = 0, last = 0;
    void enter() {
      if (first == 0) first = host_ns();
    }
    void leave() { last = host_ns(); }
    [[nodiscard]] double seconds() const { return static_cast<double>(last - first) / 1e9; }
  };

  ib12x::nas::IsParams is_{};
  ib12x::nas::FtParams ft_{};
  bool ft_first_ = false;
  sim::Time skew_[2 * kNodes * kPerNode] = {};  ///< per rank: before IS, before FT
};

}  // namespace

std::vector<PtOp> make_pt2pt_plan(std::uint64_t seed) {
  sim::Rng rng(seed);
  constexpr int kPingPongsPerSize = 24;
  std::vector<PtOp> plan;
  static constexpr std::int64_t kMaxBytes = std::int64_t{1} << 20;
  auto jittered = [&rng](std::int64_t base) {
    const auto most = static_cast<std::uint64_t>(std::max<std::int64_t>(8, base / 256));
    return std::min(kMaxBytes, base + static_cast<std::int64_t>(rng.next_below(most + 1)));
  };
  for (int k = 0; k <= 20; ++k) {
    for (int i = 0; i < kPingPongsPerSize; ++i) {
      plan.push_back({PtOp::Kind::PingPong, jittered(std::int64_t{1} << k),
                      static_cast<int>(rng.next_below(kPingPongSlots))});
    }
  }
  for (int k = 14; k <= 20; ++k) {
    plan.push_back({PtOp::Kind::Uni, jittered(std::int64_t{1} << k), 0});
    plan.push_back({PtOp::Kind::Bi, jittered(std::int64_t{1} << k), 0});
  }
  return plan;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "pt2pt_paper") return std::make_unique<Pt2ptPaper>(seed);
  if (name == "coll_fattree64") return std::make_unique<CollFatTree64>(seed);
  if (name == "nas_is_ft") return std::make_unique<NasIsFt>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
