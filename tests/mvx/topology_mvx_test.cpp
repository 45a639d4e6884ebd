// The switched topology layer driven through the full MPI substrate: a
// 64-rank fat-tree alltoall, bit-reproducibility of the routed shapes, and
// the Config validation that names conflicting fields.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "mvx/mpi.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

bool is_wall_gauge(const std::string& name) {
  return name.find(".wall.") != std::string::npos;
}

struct Digest {
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  std::map<std::string, double> telemetry;
};

Digest digest_of(World& w) {
  Digest d;
  d.events = w.events_processed();
  d.end_time = w.end_time();
  for (const auto& s : w.telemetry().snapshot()) {
    if (is_wall_gauge(s.name)) continue;
    d.telemetry[s.name] = s.value;
  }
  return d;
}

void expect_same_digest(const Digest& a, const Digest& b, const std::string& what) {
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size()) << what;
  for (const auto& [name, value] : a.telemetry) {
    auto it = b.telemetry.find(name);
    ASSERT_NE(it, b.telemetry.end()) << what << ": metric missing: " << name;
    EXPECT_EQ(it->second, value) << what << ": metric diverged: " << name;
  }
}

/// Seeded 64-rank alltoall on an auto-derived fat-tree: every rank
/// contributes 64 doubles per peer, verifies the gathered matrix, then
/// barriers.  Eager-sized blocks keep the smoke fast.
Digest run_fattree_alltoall64(std::uint64_t seed) {
  Config cfg = Config::enhanced(1, Policy::Binding);
  cfg.seed = seed;
  cfg.topo.shape = ib::TopoShape::FatTree;
  World w(ClusterSpec{/*nodes=*/16, /*procs_per_node=*/4}, cfg);
  w.connect_all();
  w.run([](Communicator& c) {
    ASSERT_EQ(c.size(), 64);
    constexpr std::size_t kPer = 64;
    std::vector<double> sbuf(kPer * 64), rbuf(kPer * 64);
    for (int peer = 0; peer < 64; ++peer) {
      for (std::size_t i = 0; i < kPer; ++i) {
        sbuf[static_cast<std::size_t>(peer) * kPer + i] =
            c.rank() * 1e6 + peer * 1e3 + static_cast<double>(i);
      }
    }
    c.alltoall(sbuf.data(), rbuf.data(), kPer, DOUBLE);
    for (int peer = 0; peer < 64; ++peer) {
      for (std::size_t i = 0; i < kPer; ++i) {
        ASSERT_EQ(rbuf[static_cast<std::size_t>(peer) * kPer + i],
                  peer * 1e6 + c.rank() * 1e3 + static_cast<double>(i))
            << "rank " << c.rank() << " from " << peer << " elem " << i;
      }
    }
    c.barrier();
  });
  return digest_of(w);
}

TEST(TopologyMvx, FatTreeAlltoall64RanksIsBitReproducible) {
  const Digest a = run_fattree_alltoall64(/*seed=*/0xA11A);
  const Digest b = run_fattree_alltoall64(/*seed=*/0xA11A);
  expect_same_digest(a, b, "fat-tree alltoall, 64 ranks");
  // The topology group must be present and show multi-hop routing.
  ASSERT_TRUE(a.telemetry.count("fabric.switch.count"));
  EXPECT_GT(a.telemetry.at("fabric.switch.count"), 1.0);
  double multi_hop = 0.0;
  for (int h = 2; h <= ib::kMaxRouteHops; ++h) {
    multi_hop += a.telemetry.at("fabric.switch.hops.h" + std::to_string(h));
  }
  EXPECT_GT(multi_hop, 0.0) << "no message ever crossed more than one switch";
}

/// Routed shapes with contention: same config run twice must digest
/// identically (bit-reproducibility per seed).
Digest run_contended(ib::TopoShape shape, ib::RoutePolicy routing, std::uint64_t seed) {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.seed = seed;
  cfg.topo.shape = shape;
  cfg.topo.routing = routing;
  cfg.topo.contention = true;
  World w(ClusterSpec{/*nodes=*/8, /*procs_per_node=*/2}, cfg);
  w.run([](Communicator& c) {
    const int peer = (c.rank() + c.size() / 2) % c.size();
    std::vector<std::byte> out = testutil::payload(96 * 1024, c.rank());
    std::vector<std::byte> in(96 * 1024);
    c.sendrecv(out.data(), out.size(), BYTE, peer, 7, in.data(), in.size(), BYTE, peer, 7);
    ASSERT_EQ(in, testutil::payload(96 * 1024, peer)) << "rank " << c.rank();
    c.barrier();
  });
  return digest_of(w);
}

TEST(TopologyMvx, ContendedRoutedShapesAreBitReproducible) {
  for (auto [shape, routing, what] :
       {std::tuple{ib::TopoShape::FatTree, ib::RoutePolicy::Minimal, "fat-tree"},
        std::tuple{ib::TopoShape::Dragonfly, ib::RoutePolicy::Minimal, "dragonfly minimal"},
        std::tuple{ib::TopoShape::Dragonfly, ib::RoutePolicy::Valiant, "dragonfly valiant"}}) {
    const Digest a = run_contended(shape, routing, 0xD15C);
    const Digest b = run_contended(shape, routing, 0xD15C);
    expect_same_digest(a, b, what);
    EXPECT_GT(a.telemetry.at("fabric.switch.routed_pkts"), 0.0) << what;
    EXPECT_EQ(a.telemetry.at("fabric.switch.drops"), 0.0) << what;
  }
}

// ---- Config validation: conflicting fields are named ----------------------

TEST(TopologyMvx, UndersizedFixedShapeErrorNamesTopoFields) {
  Config cfg;
  cfg.topo.shape = ib::TopoShape::FatTree;
  cfg.topo.fattree_k = 2;  // 2 host ports, cluster needs 4 nodes * 2 ports
  try {
    World w(ClusterSpec{4, 1}, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("topo"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hca.ports"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace ib12x::mvx
