// Switched-fabric topology layer: LID-addressed hosts behind an explicit
// switch graph with per-switch forwarding tables.
//
// Three shapes:
//  * Crossbar   — one switch, every host port one hop away.  With contention
//                 disabled this reproduces the legacy closed-form
//                 `wire + switch + wire` path bit for bit (the refactor's
//                 safety rail); with contention enabled the single arbiter
//                 saturates at `nonblocking_radix` ports worth of bandwidth,
//                 which is exactly why real clusters move to multi-stage
//                 topologies.
//  * FatTree    — k-ary 3-level folded Clos (k pods, k/2 edge + k/2 agg
//                 switches per pod, (k/2)^2 cores) with deterministic
//                 D-mod-k up/down routing.  Up/down needs no VLs: the
//                 channel dependency graph of any up*/down* route set is
//                 acyclic by construction (verified by deadlock_free()).
//  * Dragonfly  — canonical (p, a, h, g) groups with minimal l-g-l routing
//                 or Valiant (random intermediate group, chosen by a
//                 stateless hash so resolve() stays a pure function).  The
//                 VL of a hop is the number of global links already crossed,
//                 the standard dragonfly deadlock-avoidance discipline.
//
// Transfers consult Topology::resolve(src, dst) for the hop list.  With
// contention off only the summed forward latency is used (same event
// structure as the legacy formula); with contention on each hop is a real
// event, with backplane and per-output-port bandwidth servers modelling
// arbitration and output queuing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ib/params.hpp"
#include "sim/server.hpp"
#include "sim/time.hpp"

namespace ib12x::ib {

class Port;
class Topology;
struct Transfer;

/// Local identifier: one per attached host port, assigned in attach order.
using Lid = std::uint16_t;
inline constexpr Lid kInvalidLid = 0xffff;

enum class TopoShape : std::uint8_t { Crossbar, FatTree, Dragonfly };
enum class RoutePolicy : std::uint8_t { Minimal, Valiant };

struct TopologySpec {
  TopoShape shape = TopoShape::Crossbar;
  RoutePolicy routing = RoutePolicy::Minimal;

  /// Model switch arbitration and output queuing (per-hop events).  Off, the
  /// topology contributes only per-pair forward latencies and the event
  /// structure is identical to the legacy single-switch formula.
  bool contention = false;

  /// Fat-tree arity (even).  0 derives the smallest even k >= 4 whose
  /// k^3/4 host ports cover `min_hosts`.
  int fattree_k = 0;

  /// Dragonfly parameters: p hosts/router, a routers/group, h global
  /// links/router, g groups.  Zeros derive the balanced configuration
  /// (a = 2h, p = h, g = a*h + 1) from the smallest h covering `min_hosts`.
  int df_hosts_per_router = 0;
  int df_routers_per_group = 0;
  int df_global_per_router = 0;
  int df_groups = 0;

  /// Host ports the builder must accommodate; World fills this from the
  /// cluster spec before handing the spec to Fabric.  Only consulted when
  /// the shape parameters above are auto-derived (left 0).
  int min_hosts = 0;

  // ---- contention model ---------------------------------------------------
  /// Ports worth of link bandwidth one switch ASIC can arbitrate internally
  /// (InfiniScale-class crossbars are non-blocking up to ~24 ports).  A
  /// switch with more ports than this oversubscribes its backplane — the
  /// mechanism that makes a monolithic 256-port "crossbar" degrade where a
  /// fat-tree of small non-blocking switches does not.
  int nonblocking_radix = 24;
  /// Output-buffer depth per switch; a reservation finding more than this
  /// many bytes queued counts a stall (lossless fabric: never a drop).
  std::int64_t out_buf_bytes = 128 * 1024;
  /// Latency of inter-group (dragonfly global) cables; 0 uses the regular
  /// FabricParams::wire_latency.
  sim::Time global_wire_latency = 0;
  /// Stateless hash seed for Valiant intermediate-group selection.
  std::uint64_t valiant_seed = 0x5eed;
};

inline constexpr int kMaxRouteHops = 8;

/// One switch traversal on a route: the switch, the output port taken, the
/// virtual lane of the *outgoing* link and whether that link is a global
/// (inter-group) cable.
struct RouteHop {
  std::int16_t sw = -1;
  std::int16_t out_port = -1;
  std::uint8_t vl = 0;
  bool global = false;
};

struct Route {
  int count = 0;
  sim::Time fwd_latency = 0;  ///< sum of (wire-in + switch) over all hops
  RouteHop hop[kMaxRouteHops];
};

/// A switch: radix ports, a shared backplane server (arbitration) and, for
/// switch-to-switch links, per-output-port serialization servers.  Forwarding
/// is table-driven (lid -> out port, plus group -> out port for dragonfly).
class Switch {
 public:
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int level() const { return level_; }
  [[nodiscard]] int group() const { return group_; }
  [[nodiscard]] int radix() const { return static_cast<int>(ports_.size()); }

  /// One port's wiring, for tests that walk routes structurally.
  struct Link {
    int peer_sw = -1;    ///< peer switch id, or -1 for a host port
    int peer_port = -1;  ///< port index on the peer switch
    Lid host = kInvalidLid;  ///< attached host lid when a host port
    bool global = false;     ///< inter-group (dragonfly) cable
  };
  [[nodiscard]] const Link& link(int port) const {
    return ports_.at(static_cast<std::size_t>(port));
  }

  /// Contention-mode pipeline stage: one per-hop event per transit.  Defined
  /// in hca.cpp next to the other stages.
  void hop(std::unique_ptr<Transfer> st);

  // ---- telemetry ----------------------------------------------------------
  [[nodiscard]] std::uint64_t routed_pkts() const { return routed_pkts_; }
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::int64_t queue_hwm_bytes() const { return queue_hwm_bytes_; }

 private:
  friend class Topology;

  Topology* topo_ = nullptr;
  int id_ = 0;
  int level_ = 0;   ///< 0 = edge/router, 1 = aggregation, 2 = core
  int group_ = -1;  ///< fat-tree pod / dragonfly group; -1 for cores
  std::vector<Link> ports_;
  std::vector<std::int16_t> fwd_;           ///< lid -> out port
  std::vector<std::int16_t> toward_group_;  ///< dragonfly: group -> out port
  sim::BandwidthServer backplane_;
  /// Per-output-port servers for switch-to-switch links (nullptr for host
  /// ports — the destination HCA's link_rx_ models host egress, exactly as
  /// in the legacy path).  Only built in contention mode.
  std::vector<std::unique_ptr<sim::BandwidthServer>> out_srv_;

  std::uint64_t routed_pkts_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t drops_ = 0;  ///< always 0: the fabric is lossless (IB credits)
  std::int64_t queue_hwm_bytes_ = 0;
};

class Topology {
 public:
  Topology(TopologySpec spec, FabricParams fp);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Fills in derived shape parameters (fat-tree k, dragonfly p/a/h/g) the
  /// way the constructor will; lets callers validate before building.
  static TopologySpec normalize(TopologySpec spec);
  /// Host-port capacity of a normalized spec (crossbar: unbounded, -1).
  static std::int64_t capacity_of(const TopologySpec& normalized);

  /// Assigns the next LID (attach order).  Throws when the shape is full.
  Lid attach_host();

  [[nodiscard]] const TopologySpec& spec() const { return spec_; }
  [[nodiscard]] const FabricParams& fabric_params() const { return fp_; }
  [[nodiscard]] bool contention() const { return spec_.contention; }
  [[nodiscard]] int attached() const { return attached_; }
  [[nodiscard]] std::int64_t host_capacity() const { return capacity_of(spec_); }
  [[nodiscard]] int switch_count() const { return static_cast<int>(switches_.size()); }
  [[nodiscard]] Switch& switch_at(int i) { return *switches_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const Switch& switch_at(int i) const {
    return *switches_.at(static_cast<std::size_t>(i));
  }

  /// The edge switch (or dragonfly router) a host lid hangs off.  Pure
  /// arithmetic on the shape — valid for any lid below capacity, attached or
  /// not.
  [[nodiscard]] int edge_switch_of(Lid lid) const;

  /// Hop list + summed forward latency from src's uplink to the last switch
  /// before dst's downlink.  Deterministic, stateless (Valiant picks its
  /// intermediate group by hashing (src, dst, seed)).
  [[nodiscard]] Route resolve(Lid src, Lid dst) const;
  /// resolve(src, dst).fwd_latency with a constant fast path for crossbar.
  [[nodiscard]] sim::Time fwd_latency(Lid src, Lid dst) const;

  [[nodiscard]] sim::Time global_wire_latency() const {
    return spec_.global_wire_latency > 0 ? spec_.global_wire_latency : fp_.wire_latency;
  }

  /// Exhaustive channel-dependency check over all attached (src, dst) pairs:
  /// true iff the (link, VL) dependency graph is acyclic, i.e. the routing +
  /// VL assignment cannot credit-deadlock.
  [[nodiscard]] bool deadlock_free() const;

  // ---- telemetry roll-ups -------------------------------------------------
  [[nodiscard]] std::uint64_t total_routed_pkts() const;
  [[nodiscard]] std::uint64_t total_stalls() const;
  [[nodiscard]] std::uint64_t total_drops() const;
  [[nodiscard]] std::int64_t max_queue_hwm_bytes() const;

 private:
  friend class Switch;

  Switch& add_switch(int level, int group);
  void link_switches(int a, int pa, int b, int pb, bool global);
  void build_fattree();
  void build_dragonfly();
  void build_contention_servers();

  [[nodiscard]] Route resolve_fattree(Lid src, Lid dst) const;
  [[nodiscard]] Route resolve_dragonfly(Lid src, Lid dst) const;

  // Dragonfly index helpers.
  [[nodiscard]] int df_router_of(Lid lid) const { return lid / spec_.df_hosts_per_router; }
  [[nodiscard]] int df_group_of(int router) const { return router / spec_.df_routers_per_group; }

  TopologySpec spec_;
  FabricParams fp_;
  std::vector<std::unique_ptr<Switch>> switches_;
  int attached_ = 0;
};

}  // namespace ib12x::ib
