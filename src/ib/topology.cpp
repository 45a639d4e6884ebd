#include "ib/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace ib12x::ib {

namespace {

/// splitmix64 finalizer: the stateless hash behind Valiant intermediate-group
/// selection.  No shared RNG stream — the choice depends only on
/// (src, dst, seed), so resolve() stays a pure function.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Local-mesh port offset for router i talking to router j (full mesh with
/// the self slot skipped).
int mesh_slot(int i, int j) { return j < i ? j : j - 1; }

}  // namespace

TopologySpec Topology::normalize(TopologySpec s) {
  switch (s.shape) {
    case TopoShape::Crossbar:
      break;
    case TopoShape::FatTree: {
      if (s.fattree_k == 0) {
        int k = 4;
        const std::int64_t need = std::max(s.min_hosts, 1);
        while (static_cast<std::int64_t>(k) * k * k / 4 < need) k += 2;
        s.fattree_k = k;
      }
      if (s.fattree_k < 2 || s.fattree_k % 2 != 0) {
        throw std::invalid_argument(
            "TopologySpec: topo.fattree_k must be an even arity >= 2 (got " +
            std::to_string(s.fattree_k) + ")");
      }
      break;
    }
    case TopoShape::Dragonfly: {
      int h = s.df_global_per_router;
      if (h == 0) {
        if (s.df_routers_per_group > 0) {
          h = std::max(1, s.df_routers_per_group / 2);  // balanced a = 2h
        } else {
          h = 1;
          const std::int64_t need = std::max(s.min_hosts, 1);
          // Balanced dragonfly capacity: p*a*g = h * 2h * (2h^2 + 1).
          while (static_cast<std::int64_t>(h) * 2 * h * (2 * h * h + 1) < need) ++h;
        }
      }
      s.df_global_per_router = h;
      if (s.df_routers_per_group == 0) s.df_routers_per_group = 2 * h;
      if (s.df_hosts_per_router == 0) s.df_hosts_per_router = h;
      if (s.df_groups == 0) {
        s.df_groups = s.df_routers_per_group * s.df_global_per_router + 1;
      }
      if (s.df_hosts_per_router < 1 || s.df_routers_per_group < 1 ||
          s.df_global_per_router < 1 || s.df_groups < 1) {
        throw std::invalid_argument(
            "TopologySpec: dragonfly parameters (topo.df_hosts_per_router, "
            "topo.df_routers_per_group, topo.df_global_per_router, topo.df_groups) "
            "must all be >= 1 after derivation");
      }
      if (s.df_groups > s.df_routers_per_group * s.df_global_per_router + 1) {
        throw std::invalid_argument(
            "TopologySpec: topo.df_groups = " + std::to_string(s.df_groups) +
            " exceeds the a*h + 1 = " +
            std::to_string(s.df_routers_per_group * s.df_global_per_router + 1) +
            " groups the per-group global channels can reach (raise "
            "topo.df_routers_per_group or topo.df_global_per_router)");
      }
      break;
    }
  }
  return s;
}

std::int64_t Topology::capacity_of(const TopologySpec& s) {
  switch (s.shape) {
    case TopoShape::Crossbar:
      return -1;  // single switch, radix grows with attachments
    case TopoShape::FatTree: {
      const std::int64_t k = s.fattree_k;
      return k * k * k / 4;
    }
    case TopoShape::Dragonfly:
      return static_cast<std::int64_t>(s.df_groups) * s.df_routers_per_group *
             s.df_hosts_per_router;
  }
  return -1;
}

Topology::Topology(TopologySpec spec, FabricParams fp)
    : spec_(normalize(spec)), fp_(fp) {
  switch (spec_.shape) {
    case TopoShape::Crossbar:
      add_switch(/*level=*/0, /*group=*/0);  // ports grow as hosts attach
      break;
    case TopoShape::FatTree:
      build_fattree();
      break;
    case TopoShape::Dragonfly:
      build_dragonfly();
      break;
  }
  if (spec_.contention && spec_.shape != TopoShape::Crossbar) {
    build_contention_servers();
  }
}

Switch& Topology::add_switch(int level, int group) {
  auto sw = std::make_unique<Switch>();
  sw->topo_ = this;
  sw->id_ = static_cast<int>(switches_.size());
  sw->level_ = level;
  sw->group_ = group;
  switches_.push_back(std::move(sw));
  return *switches_.back();
}

void Topology::link_switches(int a, int pa, int b, int pb, bool global) {
  Switch& sa = *switches_[static_cast<std::size_t>(a)];
  Switch& sb = *switches_[static_cast<std::size_t>(b)];
  if (pa >= static_cast<int>(sa.ports_.size())) sa.ports_.resize(static_cast<std::size_t>(pa) + 1);
  if (pb >= static_cast<int>(sb.ports_.size())) sb.ports_.resize(static_cast<std::size_t>(pb) + 1);
  sa.ports_[static_cast<std::size_t>(pa)] = Switch::Link{b, pb, kInvalidLid, global};
  sb.ports_[static_cast<std::size_t>(pb)] = Switch::Link{a, pa, kInvalidLid, global};
}

void Topology::build_fattree() {
  const int k = spec_.fattree_k;
  const int half = k / 2;
  const int pods = k;
  const int n_edge = pods * half;
  const int n_agg = pods * half;
  const int n_core = half * half;
  const std::int64_t lids = capacity_of(spec_);

  for (int p = 0; p < pods; ++p)
    for (int e = 0; e < half; ++e) add_switch(/*level=*/0, /*group=*/p);
  for (int p = 0; p < pods; ++p)
    for (int a = 0; a < half; ++a) add_switch(/*level=*/1, /*group=*/p);
  for (int c = 0; c < n_core; ++c) add_switch(/*level=*/2, /*group=*/-1);

  const auto edge_id = [&](int pod, int e) { return pod * half + e; };
  const auto agg_id = [&](int pod, int a) { return n_edge + pod * half + a; };
  const auto core_id = [&](int c) { return n_edge + n_agg + c; };

  // Host ports (edge ports [0, half)): lids assigned pod-major, edge-major.
  for (int pod = 0; pod < pods; ++pod) {
    for (int e = 0; e < half; ++e) {
      Switch& sw = *switches_[static_cast<std::size_t>(edge_id(pod, e))];
      sw.ports_.resize(static_cast<std::size_t>(k));
      for (int i = 0; i < half; ++i) {
        const Lid lid = static_cast<Lid>(pod * half * half + e * half + i);
        sw.ports_[static_cast<std::size_t>(i)] = Switch::Link{-1, -1, lid, false};
      }
    }
  }
  // Edge <-> agg (within the pod) and agg <-> core.
  for (int pod = 0; pod < pods; ++pod) {
    for (int e = 0; e < half; ++e)
      for (int j = 0; j < half; ++j)
        link_switches(edge_id(pod, e), half + j, agg_id(pod, j), e, /*global=*/false);
    for (int a = 0; a < half; ++a)
      for (int i = 0; i < half; ++i)
        link_switches(agg_id(pod, a), half + i, core_id(a * half + i), pod, /*global=*/false);
  }

  // D-mod-k forwarding: down-routes are exact, up-routes hash on the
  // destination lid so every (src, dst) pair takes one deterministic path
  // and the paths spread over the aggs/cores.
  const auto pod_of = [&](std::int64_t lid) { return static_cast<int>(lid / (half * half)); };
  for (int pod = 0; pod < pods; ++pod) {
    for (int e = 0; e < half; ++e) {
      Switch& sw = *switches_[static_cast<std::size_t>(edge_id(pod, e))];
      sw.fwd_.resize(static_cast<std::size_t>(lids));
      for (std::int64_t lid = 0; lid < lids; ++lid) {
        const bool mine = pod_of(lid) == pod && (lid / half) % half == e;
        sw.fwd_[static_cast<std::size_t>(lid)] =
            static_cast<std::int16_t>(mine ? lid % half : half + lid % half);
      }
    }
    for (int a = 0; a < half; ++a) {
      Switch& sw = *switches_[static_cast<std::size_t>(agg_id(pod, a))];
      sw.fwd_.resize(static_cast<std::size_t>(lids));
      for (std::int64_t lid = 0; lid < lids; ++lid) {
        const std::int64_t edge_in_pod = (lid / half) % half;
        sw.fwd_[static_cast<std::size_t>(lid)] = static_cast<std::int16_t>(
            pod_of(lid) == pod ? edge_in_pod : half + edge_in_pod);
      }
    }
  }
  for (int c = 0; c < n_core; ++c) {
    Switch& sw = *switches_[static_cast<std::size_t>(core_id(c))];
    sw.fwd_.resize(static_cast<std::size_t>(lids));
    for (std::int64_t lid = 0; lid < lids; ++lid) {
      sw.fwd_[static_cast<std::size_t>(lid)] = static_cast<std::int16_t>(pod_of(lid));
    }
  }
}

void Topology::build_dragonfly() {
  const int p = spec_.df_hosts_per_router;
  const int a = spec_.df_routers_per_group;
  const int h = spec_.df_global_per_router;
  const int g = spec_.df_groups;
  const std::int64_t lids = capacity_of(spec_);
  const int radix = p + (a - 1) + h;

  for (int r = 0; r < g * a; ++r) add_switch(/*level=*/0, /*group=*/r / a);

  for (int r = 0; r < g * a; ++r) {
    Switch& sw = *switches_[static_cast<std::size_t>(r)];
    sw.ports_.resize(static_cast<std::size_t>(radix));
    for (int i = 0; i < p; ++i) {
      sw.ports_[static_cast<std::size_t>(i)] =
          Switch::Link{-1, -1, static_cast<Lid>(r * p + i), false};
    }
  }
  // Local full mesh within each group.
  for (int grp = 0; grp < g; ++grp) {
    for (int i = 0; i < a; ++i)
      for (int j = i + 1; j < a; ++j)
        link_switches(grp * a + i, p + mesh_slot(i, j), grp * a + j, p + mesh_slot(j, i),
                      /*global=*/false);
  }
  // Canonical global wiring: router i of group G owns global channels
  // gc in [i*h, (i+1)*h), channel gc reaching group (gc < G ? gc : gc + 1).
  // Wire each (G, D) pair once, from the lower-numbered group's side.
  for (int G = 0; G < g; ++G) {
    for (int D = G + 1; D < g; ++D) {
      const int gc_src = D - 1;  // D > G
      const int gc_dst = G;      // G < D
      link_switches(G * a + gc_src / h, p + (a - 1) + gc_src % h,
                    D * a + gc_dst / h, p + (a - 1) + gc_dst % h, /*global=*/true);
    }
  }

  for (int r = 0; r < g * a; ++r) {
    Switch& sw = *switches_[static_cast<std::size_t>(r)];
    const int G = r / a;
    const int i = r % a;
    // Per-group steering: the port towards each remote group (own global
    // channel, or a local hop to the router owning it).
    sw.toward_group_.assign(static_cast<std::size_t>(g), -1);
    for (int D = 0; D < g; ++D) {
      if (D == G) continue;
      const int gc = D < G ? D : D - 1;
      const int owner = gc / h;
      sw.toward_group_[static_cast<std::size_t>(D)] = static_cast<std::int16_t>(
          owner == i ? p + (a - 1) + gc % h : p + mesh_slot(i, owner));
    }
    // In-group lid forwarding (host port or one local hop).
    sw.fwd_.assign(static_cast<std::size_t>(lids), -1);
    for (std::int64_t lid = G * static_cast<std::int64_t>(a) * p;
         lid < (G + 1) * static_cast<std::int64_t>(a) * p; ++lid) {
      const int j = static_cast<int>(lid / p) % a;
      sw.fwd_[static_cast<std::size_t>(lid)] =
          static_cast<std::int16_t>(j == i ? lid % p : p + mesh_slot(i, j));
    }
  }
}

void Topology::build_contention_servers() {
  for (auto& swp : switches_) {
    Switch& sw = *swp;
    const std::string base = "sw" + std::to_string(sw.id_);
    const double bp_rate =
        fp_.downlink_rate_gbps * std::min(sw.radix(), spec_.nonblocking_radix);
    sw.backplane_ = sim::BandwidthServer(base + ".bp", bp_rate);
    sw.out_srv_.clear();
    sw.out_srv_.resize(sw.ports_.size());
    for (std::size_t port = 0; port < sw.ports_.size(); ++port) {
      if (sw.ports_[port].peer_sw >= 0) {
        sw.out_srv_[port] = std::make_unique<sim::BandwidthServer>(
            base + ".out" + std::to_string(port), fp_.downlink_rate_gbps);
      }
    }
  }
}

Lid Topology::attach_host() {
  const std::int64_t cap = host_capacity();
  if (cap >= 0 && attached_ >= cap) {
    throw std::invalid_argument(
        "Topology::attach_host: shape provides " + std::to_string(cap) +
        " host ports, all in use (raise topo.fattree_k or the dragonfly "
        "group parameters, or lower the host count)");
  }
  const Lid lid = static_cast<Lid>(attached_++);
  if (spec_.shape == TopoShape::Crossbar) {
    Switch& sw = *switches_[0];
    sw.ports_.push_back(Switch::Link{-1, -1, lid, false});
    sw.fwd_.push_back(static_cast<std::int16_t>(lid));
    if (spec_.contention) {
      // Radix grows with each attachment; rebuild the arbiter at the new
      // aggregate rate (attachment precedes all traffic, so the server is
      // idle).  Rate caps at nonblocking_radix ports — the point where a
      // monolithic crossbar stops scaling.
      const double bp_rate =
          fp_.downlink_rate_gbps * std::min(sw.radix(), spec_.nonblocking_radix);
      sw.backplane_ = sim::BandwidthServer("sw0.bp", bp_rate);
      sw.out_srv_.resize(sw.ports_.size());  // host ports: no out server
    }
  }
  return lid;
}

int Topology::edge_switch_of(Lid lid) const {
  switch (spec_.shape) {
    case TopoShape::Crossbar:
      return 0;
    case TopoShape::FatTree:
      return lid / (spec_.fattree_k / 2);
    case TopoShape::Dragonfly:
      return df_router_of(lid);
  }
  return 0;
}

namespace {

/// Shared tail: accumulate forward latency over the hop list.  The wire into
/// hop 0 is the host uplink; the wire into hop i+1 is hop i's outgoing link
/// (global cables may be longer).
void finish_route(Route& r, const FabricParams& fp, sim::Time global_wire) {
  sim::Time wire_in = fp.wire_latency;
  for (int i = 0; i < r.count; ++i) {
    r.fwd_latency += wire_in + fp.switch_latency;
    wire_in = r.hop[i].global ? global_wire : fp.wire_latency;
  }
}

}  // namespace

Route Topology::resolve(Lid src, Lid dst) const {
  switch (spec_.shape) {
    case TopoShape::Crossbar: {
      Route r;
      r.count = 1;
      r.hop[0] = RouteHop{0, static_cast<std::int16_t>(dst), 0, false};
      r.fwd_latency = fp_.wire_latency + fp_.switch_latency;
      return r;
    }
    case TopoShape::FatTree:
      return resolve_fattree(src, dst);
    case TopoShape::Dragonfly:
      return resolve_dragonfly(src, dst);
  }
  return {};
}

Route Topology::resolve_fattree(Lid src, Lid dst) const {
  Route r;
  int cur = edge_switch_of(src);
  while (true) {
    const Switch& sw = *switches_[static_cast<std::size_t>(cur)];
    const std::int16_t out = sw.fwd_[dst];
    if (r.count >= kMaxRouteHops) {
      throw std::logic_error("Topology::resolve: fat-tree route exceeds hop bound");
    }
    r.hop[r.count++] = RouteHop{static_cast<std::int16_t>(cur), out, 0, false};
    const Switch::Link& l = sw.ports_[static_cast<std::size_t>(out)];
    if (l.peer_sw < 0) break;  // host port: arrived at dst's edge switch
    cur = l.peer_sw;
  }
  finish_route(r, fp_, global_wire_latency());
  return r;
}

Route Topology::resolve_dragonfly(Lid src, Lid dst) const {
  const int g = spec_.df_groups;
  const int gsrc = df_group_of(df_router_of(src));
  const int gdst = df_group_of(df_router_of(dst));

  // Valiant: bounce through a hash-chosen intermediate group (never src's or
  // dst's own), spreading adversarial traffic over all global channels.
  int imm = -1;
  if (spec_.routing == RoutePolicy::Valiant && gsrc != gdst && g > 2) {
    imm = static_cast<int>(
        mix64(spec_.valiant_seed ^ (static_cast<std::uint64_t>(src) << 20 ^ dst)) %
        static_cast<std::uint64_t>(g));
    while (imm == gsrc || imm == gdst) imm = (imm + 1) % g;
  }

  Route r;
  int cur = df_router_of(src);
  std::uint8_t vl = 0;
  bool to_imm = imm >= 0;
  while (true) {
    const Switch& sw = *switches_[static_cast<std::size_t>(cur)];
    if (to_imm && sw.group() == imm) to_imm = false;
    const std::int16_t out = sw.group() == gdst
                                 ? sw.fwd_[dst]
                                 : sw.toward_group_[static_cast<std::size_t>(
                                       to_imm ? imm : gdst)];
    if (r.count >= kMaxRouteHops) {
      throw std::logic_error("Topology::resolve: dragonfly route exceeds hop bound");
    }
    const Switch::Link& l = sw.ports_[static_cast<std::size_t>(out)];
    r.hop[r.count++] = RouteHop{static_cast<std::int16_t>(cur), out, vl, l.global};
    if (l.peer_sw < 0) break;  // host port: arrived
    if (l.global) ++vl;  // VL = global hops taken: the dragonfly deadlock discipline
    cur = l.peer_sw;
  }
  finish_route(r, fp_, global_wire_latency());
  return r;
}

sim::Time Topology::fwd_latency(Lid src, Lid dst) const {
  if (spec_.shape == TopoShape::Crossbar) {
    return fp_.wire_latency + fp_.switch_latency;
  }
  return resolve(src, dst).fwd_latency;
}

bool Topology::deadlock_free() const {
  // Channels are (switch, out-port, VL) triples over switch-to-switch links.
  // Walk every attached (src, dst) route and add a dependency edge between
  // consecutive channels; the routing + VL assignment is deadlock-free iff
  // the resulting graph is acyclic.
  int max_ports = 1;
  for (const auto& sw : switches_) max_ports = std::max(max_ports, sw->radix());
  constexpr int kVl = 4;
  const auto chan = [&](const RouteHop& hop) {
    return (static_cast<std::int64_t>(hop.sw) * max_ports + hop.out_port) * kVl + hop.vl;
  };

  const std::int64_t n_chan =
      static_cast<std::int64_t>(switches_.size()) * max_ports * kVl;
  std::vector<std::vector<std::int32_t>> adj(static_cast<std::size_t>(n_chan));
  std::unordered_set<std::int64_t> seen_edges;

  for (int src = 0; src < attached_; ++src) {
    for (int dst = 0; dst < attached_; ++dst) {
      if (src == dst) continue;
      const Route r = resolve(static_cast<Lid>(src), static_cast<Lid>(dst));
      std::int64_t prev = -1;
      for (int i = 0; i < r.count; ++i) {
        const Switch& sw = *switches_[static_cast<std::size_t>(r.hop[i].sw)];
        if (sw.ports_[static_cast<std::size_t>(r.hop[i].out_port)].peer_sw < 0) continue;
        const std::int64_t c = chan(r.hop[i]);
        if (prev >= 0 && seen_edges.insert(prev * n_chan + c).second) {
          adj[static_cast<std::size_t>(prev)].push_back(static_cast<std::int32_t>(c));
        }
        prev = c;
      }
    }
  }

  // Iterative three-colour DFS cycle detection.
  std::vector<std::uint8_t> colour(static_cast<std::size_t>(n_chan), 0);
  std::vector<std::pair<std::int32_t, std::size_t>> stack;
  for (std::int64_t start = 0; start < n_chan; ++start) {
    if (colour[static_cast<std::size_t>(start)] != 0) continue;
    stack.emplace_back(static_cast<std::int32_t>(start), 0);
    colour[static_cast<std::size_t>(start)] = 1;
    while (!stack.empty()) {
      auto& [node, idx] = stack.back();
      const auto& edges = adj[static_cast<std::size_t>(node)];
      if (idx < edges.size()) {
        const std::int32_t next = edges[idx++];
        if (colour[static_cast<std::size_t>(next)] == 1) return false;  // back edge
        if (colour[static_cast<std::size_t>(next)] == 0) {
          colour[static_cast<std::size_t>(next)] = 1;
          stack.emplace_back(next, 0);
        }
      } else {
        colour[static_cast<std::size_t>(node)] = 2;
        stack.pop_back();
      }
    }
  }
  return true;
}

std::uint64_t Topology::total_routed_pkts() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) n += sw->routed_pkts();
  return n;
}

std::uint64_t Topology::total_stalls() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) n += sw->stalls();
  return n;
}

std::uint64_t Topology::total_drops() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) n += sw->drops();
  return n;
}

std::int64_t Topology::max_queue_hwm_bytes() const {
  std::int64_t n = 0;
  for (const auto& sw : switches_) n = std::max(n, sw->queue_hwm_bytes());
  return n;
}

}  // namespace ib12x::ib
