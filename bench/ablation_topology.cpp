// Ablation: switched topology under congestion — what an explicit fabric
// buys over the monolithic crossbar once the job outgrows a single switch.
// For 64 and 256 ranks the same two traffic patterns run on a contended
// crossbar, fat-tree, and dragonfly (minimal routing):
//
//   uniform  — an alltoall exchange, load spread evenly over the bisection
//   hot-spot — a many-to-few skew: a quarter of the ranks are hot receivers,
//              each the target of three concurrent bulk senders
//
// The fan-in per victim is deliberately small: each victim's own downlink
// could absorb its three flows, so the pattern is *fabric*-limited, not
// endpoint-limited (a deep single-victim incast would be endpoint-bound on
// every topology and show nothing).  On the crossbar all flows share one
// arbiter capped at nonblocking_radix ports' worth of bandwidth; the
// fat-tree and dragonfly spread the same flows over many switch backplanes.
//
// Reported per cell: virtual completion time, switch-queue high-water mark,
// and counted stalls.  The headline check: at 256 ranks the crossbar is
// materially slower under hot-spot traffic than either routed fabric, while
// at 64 ranks (radix near the non-blocking cap) it still holds.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

namespace {

constexpr int kHotStride = 4;                    ///< every 4th rank is a hot receiver
constexpr std::size_t kHotBytes = 128 * 1024;    ///< per-sender payload
constexpr std::size_t kUniformPerPeer = 2048;    ///< alltoall bytes per peer

mvx::Config topo_config(ib::TopoShape shape) {
  mvx::Config cfg = mvx::Config::enhanced(1, mvx::Policy::Binding);
  cfg.hca.ports = 1;  // one LID per rank: topology sized to the rank count
  cfg.topo.shape = shape;
  cfg.topo.contention = true;
  return cfg;
}

struct Cell {
  double end_us = 0;     ///< virtual completion time
  double hwm_kb = 0;     ///< fabric.switch.queue_hwm_bytes
  double stalls = 0;     ///< fabric.switch.stalls
};

double gauge_value(const mvx::World& w, const std::string& name) {
  for (const auto& s : w.telemetry().snapshot()) {
    if (s.name == name) return s.value;
  }
  return 0;
}

Cell measure(mvx::World& w) {
  Cell cell;
  cell.end_us = sim::to_s(w.end_time()) * 1e6;
  cell.hwm_kb = gauge_value(w, "fabric.switch.queue_hwm_bytes") / 1024.0;
  cell.stalls = gauge_value(w, "fabric.switch.stalls");
  return cell;
}

Cell run_uniform(int ranks, ib::TopoShape shape) {
  mvx::World w(mvx::ClusterSpec{ranks, 1}, topo_config(shape));
  w.connect_all();  // keep connection handshakes out of the timed traffic
  w.run([](mvx::Communicator& c) {
    std::vector<std::byte> sbuf(kUniformPerPeer * static_cast<std::size_t>(c.size()),
                                std::byte{0x5A});
    std::vector<std::byte> rbuf(sbuf.size());
    c.alltoall(sbuf.data(), rbuf.data(), kUniformPerPeer, mvx::BYTE);
  });
  return measure(w);
}

Cell run_hotspot(int ranks, ib::TopoShape shape) {
  mvx::World w(mvx::ClusterSpec{ranks, 1}, topo_config(shape));
  w.connect_all();  // keep connection handshakes out of the timed traffic
  w.run([](mvx::Communicator& c) {
    // Victims are the ranks with r % kHotStride == 0; sender r targets the
    // victim (r / kHotStride + r % kHotStride) blocks away, so each victim
    // collects exactly kHotStride - 1 concurrent flows from distinct remote
    // blocks.  All receives are posted up front so the exchange is limited
    // by the fabric, not by matching.
    const int hot = c.size() / kHotStride;
    std::vector<mvx::Request> reqs;
    std::vector<std::vector<std::byte>> sinks;
    std::vector<std::byte> payload;  // must outlive waitall
    if (c.rank() % kHotStride == 0) {
      const int h = c.rank() / kHotStride;
      for (int m = 1; m < kHotStride; ++m) {
        const int src = kHotStride * ((h - m + hot) % hot) + m;
        auto& sink = sinks.emplace_back(kHotBytes);
        reqs.push_back(c.irecv(sink.data(), kHotBytes, mvx::BYTE, src, 3));
      }
    } else {
      const int dst = kHotStride * ((c.rank() / kHotStride + c.rank() % kHotStride) % hot);
      payload.assign(kHotBytes, std::byte{0xC3});
      reqs.push_back(c.isend(payload.data(), kHotBytes, mvx::BYTE, dst, 3));
    }
    c.waitall(reqs);
  });
  return measure(w);
}

}  // namespace

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Ablation — switched topology under congestion (contention on)\n");
  std::printf("  uniform: alltoall %zu B/peer; hot-spot: 1-in-%d ranks hot, %d senders x %zu KB "
              "each\n",
              kUniformPerPeer, kHotStride, kHotStride - 1, kHotBytes / 1024);

  const struct {
    ib::TopoShape shape;
    const char* name;
  } kShapes[] = {{ib::TopoShape::Crossbar, "crossbar"},
                 {ib::TopoShape::FatTree, "fat-tree"},
                 {ib::TopoShape::Dragonfly, "dragonfly"}};

  double xbar_hot256 = 0, ft_hot256 = 0, df_hot256 = 0;
  double xbar_hwm256 = 0, ft_hwm256 = 0;
  for (int ranks : {64, 256}) {
    harness::Table t("topology ablation @ " + std::to_string(ranks) + " ranks", "config");
    t.add_column("uniform us");
    t.add_column("hot-spot us");
    t.add_column("hs queue KB");
    t.add_column("hs stalls");
    for (const auto& s : kShapes) {
      const Cell uni = run_uniform(ranks, s.shape);
      const Cell hot = run_hotspot(ranks, s.shape);
      t.add_row(s.name, {uni.end_us, hot.end_us, hot.hwm_kb, hot.stalls});
      if (ranks == 256) {
        if (s.shape == ib::TopoShape::Crossbar) {
          xbar_hot256 = hot.end_us;
          xbar_hwm256 = hot.hwm_kb;
        }
        if (s.shape == ib::TopoShape::FatTree) {
          ft_hot256 = hot.end_us;
          ft_hwm256 = hot.hwm_kb;
        }
        if (s.shape == ib::TopoShape::Dragonfly) df_hot256 = hot.end_us;
      }
    }
    emit(t);
  }

  // The headline claims: the shared crossbar arbiter is the hot-spot
  // bottleneck at scale; the routed fabrics spread the same flows out, and
  // the crossbar's single output queue piles correspondingly deeper.
  harness::print_check("crossbar / fat-tree hot-spot time @ 256 ranks",
                       xbar_hot256 / ft_hot256, 1.2, 1e9);
  harness::print_check("crossbar / dragonfly hot-spot time @ 256 ranks",
                       xbar_hot256 / df_hot256, 1.15, 1e9);
  harness::print_check("crossbar / fat-tree hot-spot queue depth @ 256 ranks",
                       xbar_hwm256 / ft_hwm256, 2.0, 1e9);
  return harness::checks_status();
}
