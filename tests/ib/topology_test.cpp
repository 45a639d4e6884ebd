// Switched-fabric topology layer: shape derivation, routing-table coverage
// (every (src, dst) pair reaches its destination on all three shapes),
// deadlock freedom, the crossbar's bit-exact equivalence with the legacy
// closed-form wire path, and the contention model's counters.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ib/topology.hpp"
#include "ib/verbs.hpp"
#include "ib_test_util.hpp"
#include "sim/time.hpp"

namespace ib12x::ib {
namespace {

using testutil::TwoNodeFabric;
using testutil::pattern_buffer;

TopologySpec fattree_spec(int k) {
  TopologySpec s;
  s.shape = TopoShape::FatTree;
  s.fattree_k = k;
  return s;
}

TopologySpec dragonfly_spec(RoutePolicy routing = RoutePolicy::Minimal) {
  TopologySpec s;
  s.shape = TopoShape::Dragonfly;
  s.df_global_per_router = 2;  // balanced: a = 4, p = 2, g = 9, 72 hosts
  s.routing = routing;
  return s;
}

/// Structural route check: hop 0 sits on src's edge switch, consecutive hops
/// are wired to each other, and the final hop's output is dst's host port.
void expect_route_reaches(const Topology& topo, Lid src, Lid dst) {
  const Route r = topo.resolve(src, dst);
  ASSERT_GE(r.count, 1) << src << "->" << dst;
  EXPECT_EQ(r.hop[0].sw, topo.edge_switch_of(src)) << src << "->" << dst;
  for (int i = 0; i < r.count; ++i) {
    const Switch& sw = topo.switch_at(r.hop[i].sw);
    const Switch::Link& l = sw.link(r.hop[i].out_port);
    if (i + 1 < r.count) {
      ASSERT_EQ(l.peer_sw, r.hop[i + 1].sw) << src << "->" << dst << " hop " << i;
    } else {
      ASSERT_EQ(l.peer_sw, -1) << src << "->" << dst << " final hop not a host port";
      EXPECT_EQ(l.host, dst) << src << "->" << dst;
    }
  }
}

// ---- shape derivation -----------------------------------------------------

TEST(TopologySpecNormalize, DerivesSmallestFatTreeArity) {
  TopologySpec s;
  s.shape = TopoShape::FatTree;
  s.min_hosts = 16;
  EXPECT_EQ(Topology::normalize(s).fattree_k, 4);  // 4^3/4 = 16
  s.min_hosts = 64;
  EXPECT_EQ(Topology::normalize(s).fattree_k, 8);  // 6^3/4 = 54 < 64 <= 128
  EXPECT_EQ(Topology::capacity_of(Topology::normalize(s)), 128);
}

TEST(TopologySpecNormalize, DerivesBalancedDragonfly) {
  TopologySpec s;
  s.shape = TopoShape::Dragonfly;
  s.min_hosts = 64;
  const TopologySpec n = Topology::normalize(s);
  // Smallest balanced (p=h, a=2h, g=ah+1) covering 64 hosts: h = 2.
  EXPECT_EQ(n.df_global_per_router, 2);
  EXPECT_EQ(n.df_routers_per_group, 4);
  EXPECT_EQ(n.df_hosts_per_router, 2);
  EXPECT_EQ(n.df_groups, 9);
  EXPECT_EQ(Topology::capacity_of(n), 72);
}

TEST(TopologySpecNormalize, RejectsOddFatTreeArity) {
  TopologySpec s;
  s.shape = TopoShape::FatTree;
  s.fattree_k = 5;
  EXPECT_THROW(Topology::normalize(s), std::invalid_argument);
}

TEST(Topology, AttachBeyondCapacityThrows) {
  Topology topo(fattree_spec(2), FabricParams{});  // 2^3/4 = 2 host ports
  (void)topo.attach_host();
  (void)topo.attach_host();
  EXPECT_THROW(topo.attach_host(), std::invalid_argument);
}

// ---- routing-table coverage ----------------------------------------------

TEST(Topology, CrossbarRouteIsLegacyClosedForm) {
  const FabricParams fp;
  Topology topo(TopologySpec{}, fp);
  for (int i = 0; i < 8; ++i) (void)topo.attach_host();
  for (Lid s = 0; s < 8; ++s) {
    for (Lid d = 0; d < 8; ++d) {
      if (s == d) continue;
      const Route r = topo.resolve(s, d);
      EXPECT_EQ(r.count, 1);
      EXPECT_EQ(r.fwd_latency, fp.wire_latency + fp.switch_latency);
      EXPECT_EQ(topo.fwd_latency(s, d), r.fwd_latency);
      expect_route_reaches(topo, s, d);
    }
  }
}

TEST(Topology, FatTreeAllPairsReachWithUpDownHopCounts) {
  const FabricParams fp;
  Topology topo(fattree_spec(4), fp);  // 16 hosts, 4 per pod, 2 per edge
  for (int i = 0; i < 16; ++i) (void)topo.attach_host();
  for (Lid s = 0; s < 16; ++s) {
    for (Lid d = 0; d < 16; ++d) {
      if (s == d) continue;
      expect_route_reaches(topo, s, d);
      const Route r = topo.resolve(s, d);
      // Up/down routing: 1 switch under one edge, 3 within a pod, 5 across.
      const int want = topo.edge_switch_of(s) == topo.edge_switch_of(d) ? 1
                       : (s / 4 == d / 4)                               ? 3
                                                                        : 5;
      EXPECT_EQ(r.count, want) << s << "->" << d;
      // No global cables in a fat-tree: latency is hops * (wire + switch).
      EXPECT_EQ(r.fwd_latency, want * (fp.wire_latency + fp.switch_latency));
    }
  }
}

TEST(Topology, FatTreeSpreadsUpRoutesOverCores) {
  Topology topo(fattree_spec(4), FabricParams{});
  for (int i = 0; i < 16; ++i) (void)topo.attach_host();
  // D-mod-k: routes from one source to the other pods must not all share a
  // single core switch.
  std::set<int> cores;
  for (Lid d = 4; d < 16; ++d) {
    const Route r = topo.resolve(0, d);
    for (int i = 0; i < r.count; ++i) {
      if (topo.switch_at(r.hop[i].sw).level() == 2) cores.insert(r.hop[i].sw);
    }
  }
  EXPECT_GT(cores.size(), 1u);
}

TEST(Topology, DragonflyMinimalAllPairsReach) {
  Topology topo(Topology::normalize(dragonfly_spec()), FabricParams{});
  const int hosts = static_cast<int>(topo.host_capacity());
  for (int i = 0; i < hosts; ++i) (void)topo.attach_host();
  for (Lid s = 0; s < hosts; ++s) {
    for (Lid d = 0; d < hosts; ++d) {
      if (s == d) continue;
      expect_route_reaches(topo, s, d);
      const Route r = topo.resolve(s, d);
      int globals = 0;
      for (int i = 0; i < r.count; ++i) globals += r.hop[i].global ? 1 : 0;
      EXPECT_LE(globals, 1) << "minimal routing crossed two global cables";
      EXPECT_LE(r.count, 4) << s << "->" << d;  // l-g-l: at most 4 routers
    }
  }
}

TEST(Topology, DragonflyValiantAllPairsReachDeterministically) {
  Topology topo(Topology::normalize(dragonfly_spec(RoutePolicy::Valiant)), FabricParams{});
  const int hosts = static_cast<int>(topo.host_capacity());
  for (int i = 0; i < hosts; ++i) (void)topo.attach_host();
  bool bounced = false;
  for (Lid s = 0; s < hosts; ++s) {
    for (Lid d = 0; d < hosts; ++d) {
      if (s == d) continue;
      expect_route_reaches(topo, s, d);
      const Route a = topo.resolve(s, d);
      const Route b = topo.resolve(s, d);  // stateless hash: bit-identical
      ASSERT_EQ(a.count, b.count);
      for (int i = 0; i < a.count; ++i) {
        EXPECT_EQ(a.hop[i].sw, b.hop[i].sw);
        EXPECT_EQ(a.hop[i].out_port, b.hop[i].out_port);
        EXPECT_EQ(a.hop[i].vl, b.hop[i].vl);
      }
      int globals = 0;
      for (int i = 0; i < a.count; ++i) {
        globals += a.hop[i].global ? 1 : 0;
        // The dragonfly discipline: VL equals global cables already crossed.
        EXPECT_LE(a.hop[i].vl, 2);
      }
      bounced = bounced || globals == 2;
    }
  }
  EXPECT_TRUE(bounced) << "Valiant never took an indirect route";
}

TEST(Topology, DeadlockFreeOnAllShapes) {
  {
    Topology topo(TopologySpec{}, FabricParams{});
    for (int i = 0; i < 8; ++i) (void)topo.attach_host();
    EXPECT_TRUE(topo.deadlock_free());
  }
  {
    Topology topo(fattree_spec(4), FabricParams{});
    for (int i = 0; i < 16; ++i) (void)topo.attach_host();
    EXPECT_TRUE(topo.deadlock_free());
  }
  for (RoutePolicy rp : {RoutePolicy::Minimal, RoutePolicy::Valiant}) {
    Topology topo(Topology::normalize(dragonfly_spec(rp)), FabricParams{});
    for (int i = 0; i < topo.host_capacity(); ++i) (void)topo.attach_host();
    EXPECT_TRUE(topo.deadlock_free()) << "routing policy " << static_cast<int>(rp);
  }
}

// ---- the safety rail: crossbar + contention off == legacy closed form ----

TEST(Topology, CrossbarContentionOffMatchesLegacyClosedForm) {
  // One 8-byte send through the default fabric must land exactly on the
  // closed-form latency sum the pre-topology code computed: this test *is*
  // that formula, kept alive as the refactor's oracle.
  TwoNodeFabric f;
  const HcaParams& P = f.fabric.hca_params();
  const FabricParams& F = f.fabric.fabric_params();
  auto src = pattern_buffer(8);
  std::vector<std::byte> dst(8);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  f.b.qps[0]->post_recv({.wr_id = 1, .dst = dst.data(), .length = 8, .lkey = dst_mr.lkey});
  SendWr wr{};
  wr.wr_id = 2;
  wr.src = src.data();
  wr.length = 8;
  wr.lkey = src_mr.lkey;
  f.a.qps[0]->post_send(wr);
  f.sim.run();

  const std::int64_t seg = 8;
  const std::int64_t seg_wire = seg + P.pkt_header_bytes;  // one packet
  const sim::Time eng_done =
      P.wqe_fetch + sim::transfer_time(seg, P.engine_rate_gbps);  // posted at t=0, engine idle
  const sim::Time delivered =
      eng_done + sim::transfer_time(seg, P.bus_dir_rate_gbps) +
      sim::transfer_time(seg_wire, P.link_rate_gbps) + (F.wire_latency + F.switch_latency) +
      sim::transfer_time(seg_wire, F.downlink_rate_gbps) + F.wire_latency +
      sim::transfer_time(seg, P.engine_rate_gbps) + sim::transfer_time(seg, P.bus_dir_rate_gbps);
  const sim::Time recv_cqe =
      delivered + P.cqe_delay + sim::transfer_time(P.cqe_bus_bytes, P.bus_dir_rate_gbps);
  // No ack-wire serialization on the small path: the ACK rides the
  // packet-granular fast path, latency-only (matches the legacy code).
  const sim::Time send_cqe = delivered + P.ack_gen + (F.wire_latency + F.switch_latency) +
                             F.wire_latency + P.cqe_delay +
                             sim::transfer_time(P.cqe_bus_bytes, P.bus_dir_rate_gbps);

  Wc rwc, swc;
  ASSERT_TRUE(f.b.rcq.poll(rwc));
  ASSERT_TRUE(f.a.scq.poll(swc));
  EXPECT_EQ(rwc.timestamp, recv_cqe);
  EXPECT_EQ(swc.timestamp, send_cqe);
}

// ---- contention model -----------------------------------------------------

/// A star fabric for hot-spot traffic: `senders` single-port HCAs all sending
/// `bytes` to one victim HCA through the given topology.
struct Hotspot {
  explicit Hotspot(TopologySpec spec, int senders, std::int64_t bytes) {
    HcaParams hp;
    hp.ports = 1;
    fabric = std::make_unique<Fabric>(sim, hp, FabricParams{}, spec);
    victim = &fabric->add_hca(0);
    QueuePair* vq = nullptr;
    for (int i = 0; i < senders; ++i) {
      Hca& hca = fabric->add_hca(1 + i);
      QueuePair& sq = hca.create_qp(0, scq, rcq);
      vq = &victim->create_qp(0, vscq, vrcq);
      Fabric::connect(sq, *vq);
      auto buf = pattern_buffer(static_cast<std::size_t>(bytes), static_cast<unsigned>(i));
      bufs.push_back(std::move(buf));
      auto mr = hca.mem().register_memory(bufs.back().data(), bufs.back().size());
      auto& dst = sinks.emplace_back(static_cast<std::size_t>(bytes));
      auto dmr = victim->mem().register_memory(dst.data(), dst.size());
      vq->post_recv({.wr_id = static_cast<std::uint64_t>(i), .dst = dst.data(),
                     .length = static_cast<std::uint32_t>(bytes), .lkey = dmr.lkey});
      sends.push_back({&sq, mr.lkey});
    }
  }

  void run() {
    for (std::size_t i = 0; i < sends.size(); ++i) {
      SendWr wr{};
      wr.wr_id = 100 + i;
      wr.src = bufs[i].data();
      wr.length = static_cast<std::uint32_t>(bufs[i].size());
      wr.lkey = sends[i].second;
      sends[i].first->post_send(wr);
    }
    sim.run();
  }

  sim::Simulator sim;
  std::unique_ptr<Fabric> fabric;
  Hca* victim = nullptr;
  CompletionQueue scq, rcq, vscq, vrcq;
  std::vector<std::vector<std::byte>> bufs;
  std::vector<std::vector<std::byte>> sinks;
  std::vector<std::pair<QueuePair*, std::uint32_t>> sends;
};

TEST(TopologyContention, HotspotCountsRoutedPktsAndQueueDepth) {
  TopologySpec spec;
  spec.contention = true;
  Hotspot h(spec, /*senders=*/6, /*bytes=*/256 * 1024);
  h.run();
  const Topology& topo = h.fabric->topology();
  EXPECT_GT(topo.total_routed_pkts(), 0u);
  EXPECT_GT(topo.max_queue_hwm_bytes(), 0);
  EXPECT_EQ(topo.total_drops(), 0u) << "the fabric is lossless";
  for (std::size_t i = 0; i < h.sinks.size(); ++i) {
    EXPECT_EQ(h.sinks[i], h.bufs[i]) << "payload " << i << " corrupted under contention";
  }
}

TEST(TopologyContention, TinyOutputBuffersCountStallsNeverDrops) {
  TopologySpec spec;
  spec.shape = TopoShape::FatTree;
  spec.fattree_k = 4;
  spec.contention = true;
  spec.out_buf_bytes = 4 * 1024;  // shallow queues: hot-spot backlog must stall
  Hotspot h(spec, /*senders=*/6, /*bytes=*/256 * 1024);
  h.run();
  const Topology& topo = h.fabric->topology();
  EXPECT_GT(topo.total_stalls(), 0u);
  EXPECT_EQ(topo.total_drops(), 0u);
  for (std::size_t i = 0; i < h.sinks.size(); ++i) {
    EXPECT_EQ(h.sinks[i], h.bufs[i]) << "payload " << i;
  }
}

TEST(TopologyContention, ContentionOffCarriesNoSwitchCounters) {
  // The non-contended path must never touch switch queue state (that is what
  // keeps it bit-identical to the legacy formula).
  Hotspot h(TopologySpec{}, /*senders=*/4, /*bytes=*/64 * 1024);
  h.run();
  const Topology& topo = h.fabric->topology();
  EXPECT_EQ(topo.total_routed_pkts(), 0u);
  EXPECT_EQ(topo.total_stalls(), 0u);
  EXPECT_EQ(topo.max_queue_hwm_bytes(), 0);
}

TEST(TopologyContention, FatTreeDelaysBulkByExtraHopsWhenUncontended) {
  // A single uncontended transfer pays exactly (hops - 1) extra
  // (wire + switch) on a fat-tree versus the crossbar — same servers, same
  // cut-through model, only the route length differs.
  auto one_transfer_cqe = [](TopologySpec spec) {
    Hotspot h(std::move(spec), /*senders=*/1, /*bytes=*/64 * 1024);
    h.run();
    Wc wc;
    while (h.vrcq.poll(wc)) {
    }
    return wc.timestamp;
  };
  const sim::Time xbar = one_transfer_cqe(TopologySpec{});
  TopologySpec ft;
  ft.shape = TopoShape::FatTree;
  ft.fattree_k = 4;
  const sim::Time tree = one_transfer_cqe(ft);
  // lids 0 (victim) and 1 (sender) share an edge switch in a k=4 tree: same
  // 1-switch route, so data latency matches the crossbar bit for bit.
  EXPECT_EQ(tree, xbar);
  TopologySpec ft_far = ft;
  ft_far.contention = true;  // route still uncontended with one sender
  const sim::Time far = one_transfer_cqe(ft_far);
  EXPECT_GT(far, xbar);  // per-hop events serialize at the switch
}

}  // namespace
}  // namespace ib12x::ib
