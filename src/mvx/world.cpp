#include "mvx/world.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "ib/fault.hpp"
#include "ib/hca.hpp"
#include "ib/topology.hpp"
#include "mvx/coll/engine.hpp"
#include "mvx/conn_manager.hpp"
#include "sim/time.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace ib12x::mvx {

namespace {

/// Pins glibc's mmap threshold at its 128 KiB default.  The *dynamic*
/// threshold rises after the first free of a large mmap'd block and moves
/// later large buffers onto the brk heap, which returns freed memory to the
/// kernel far less readily.  The buffers of 128 KiB and up that the
/// simulator allocates over and over (eager payloads, the NAS IS and FT
/// arrays) come from the BlockPool (block_pool.hpp) and never reach malloc;
/// what still crosses the threshold on the heap are each rank's NetChannel
/// eager arenas (touched only sparsely, see footprint_test.cpp), the fiber
/// stacks and user buffers.  Measured with perfbench (25 s runs, 4-vCPU VM,
/// seeds 1, 2 and 4242; one pinned and two unpinned runs each), dropping
/// this call raised peak RSS from 104.7-105.3 to 106.6-109.7 MB on
/// coll_fattree64, from 58.9-62.9 to 58.6-63.1 MB on nas_is_ft (61.8 against
/// 58.9 at seed 4242) and from 138.8-139.0 to 139.7-140.0 MB on pt2pt_paper.
/// Results do not depend on it: pin-down cache entries die with their
/// buffers (pin_cache.hpp).  No-op off glibc.
void pin_host_allocator_policy() {
#if defined(__GLIBC__)
  static const bool once = [] {
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    return true;
  }();
  (void)once;
#endif
}

}  // namespace

World::World(ClusterSpec spec, Config cfg) : spec_(spec), cfg_(cfg) {
  pin_host_allocator_policy();
  if (cfg_.ports_per_hca > cfg_.hca.ports) {
    // Make the modelled HCA expose as many ports as the rail layout uses.
    cfg_.hca.ports = cfg_.ports_per_hca;
  }

  // Normalize the topology spec against the cluster shape: auto-derived
  // fat-tree/dragonfly parameters must seat every host port, fixed ones must
  // be big enough.  The normalized spec is written back so config() exposes
  // the derived geometry.
  const int ports_per_node = cfg_.hcas_per_node * cfg_.hca.ports;
  cfg_.topo.min_hosts = spec_.nodes * ports_per_node;
  cfg_.topo = ib::Topology::normalize(cfg_.topo);
  const std::int64_t cap = ib::Topology::capacity_of(cfg_.topo);
  if (cap >= 0 && cap < cfg_.topo.min_hosts) {
    throw std::invalid_argument(
        "Config: topo shape seats " + std::to_string(cap) + " host ports but the cluster needs " +
        std::to_string(cfg_.topo.min_hosts) +
        " (nodes * hcas_per_node * hca.ports); raise the fixed shape parameters "
        "(topo.fattree_k / topo.df_*) or leave them 0 to auto-derive");
  }

  // VCI knobs: fail fast on shapes the model cannot represent.
  if (cfg_.vci.count < 1 || cfg_.vci.count > kMaxVcis) {
    throw std::invalid_argument(
        "Config: vci.count = " + std::to_string(cfg_.vci.count) +
        " is out of range: each rank hosts between 1 and " + std::to_string(kMaxVcis) +
        " virtual communication interfaces.  Supported combinations: 1 <= vci.count <= " +
        std::to_string(kMaxVcis));
  }
  if (cfg_.vci.threads < 1) {
    throw std::invalid_argument(
        "Config: vci.threads = " + std::to_string(cfg_.vci.threads) +
        " is out of range: every rank needs at least its main thread.  Supported "
        "combinations: vci.threads >= 1");
  }
  if (cfg_.vci.count > 1) {
    if (cfg_.use_srq) {
      if (cfg_.srq_pool_slots / std::max(1, cfg_.rails() * cfg_.vci.count) < 1) {
        throw std::invalid_argument(
            "Config: vci.count = " + std::to_string(cfg_.vci.count) +
            " conflicts with srq_pool_slots = " + std::to_string(cfg_.srq_pool_slots) +
            ": splitting the SRQ arena over " +
            std::to_string(cfg_.rails() * cfg_.vci.count) +
            " rail slices (rails() * vci.count) rounds the per-rail credit share "
            "to zero.  Supported combinations: srq_pool_slots >= rails() * "
            "vci.count, fewer VCIs, or use_srq = false");
      }
    } else if (cfg_.eager_credits / cfg_.vci.count < 1) {
      throw std::invalid_argument(
          "Config: vci.count = " + std::to_string(cfg_.vci.count) +
          " conflicts with eager_credits = " + std::to_string(cfg_.eager_credits) +
          ": splitting the per-rail credit window over the VCIs rounds each "
          "slice to zero.  Supported combinations: eager_credits >= vci.count, "
          "or fewer VCIs");
    }
  }

  // Rendezvous-protocol knobs: fail fast on nonsense arm spaces.
  if (cfg_.rndv.epsilon < 0.0 || cfg_.rndv.epsilon > 1.0) {
    throw std::invalid_argument(
        "Config: rndv.epsilon = " + std::to_string(cfg_.rndv.epsilon) +
        " is out of range: the exploration rate is a probability.  Supported "
        "combinations: 0 <= rndv.epsilon <= 1");
  }
  if (cfg_.rndv_pipeline_chunk < 0) {
    throw std::invalid_argument(
        "Config: rndv_pipeline_chunk = " + std::to_string(cfg_.rndv_pipeline_chunk) +
        " is out of range: it is a registration chunk size in bytes.  Supported "
        "combinations: 0 (the whole message is one chunk) or rndv_pipeline_chunk > 0");
  }
  if (cfg_.rndv.max_width < 0 || cfg_.rndv.max_width > cfg_.rails()) {
    throw std::invalid_argument(
        "Config: rndv.max_width = " + std::to_string(cfg_.rndv.max_width) +
        " conflicts with rails() = " + std::to_string(cfg_.rails()) +
        ": a stripe cannot spread over more rails than a peer pair has.  "
        "Supported combinations: 0 (no cap) <= rndv.max_width <= rails()");
  }

  fabric_ = std::make_unique<ib::Fabric>(sim_, cfg_.hca, cfg_.fabric, cfg_.topo);

  node_hcas_.resize(static_cast<std::size_t>(spec_.nodes));
  for (int n = 0; n < spec_.nodes; ++n) {
    for (int h = 0; h < cfg_.hcas_per_node; ++h) {
      node_hcas_[static_cast<std::size_t>(n)].push_back(&fabric_->add_hca(n));
    }
  }

  if (cfg_.fault.enabled) {
    ib::FaultPlan::Params fp;
    fp.seed = cfg_.fault.seed;
    fp.msg_error_rate = cfg_.fault.msg_error_rate;
    fp.ack_drop_fraction = cfg_.fault.ack_drop_fraction;
    fp.retry_latency = cfg_.fault.retry_latency;
    auto plan = std::make_unique<ib::FaultPlan>(fp);
    for (const Config::FaultConfig::LinkFlap& f : cfg_.fault.link_flaps) {
      ib::Hca* hca = node_hcas_.at(static_cast<std::size_t>(f.node))
                         .at(static_cast<std::size_t>(f.hca));
      plan->add_link_event(f.down_at, hca, f.port, /*up=*/false);
      if (f.up_at > f.down_at) plan->add_link_event(f.up_at, hca, f.port, /*up=*/true);
    }
    plan->arm(sim_);
    ib::FaultPlan* raw = plan.get();
    fabric_->attach_fault(std::move(plan));
    tel_.gauge("fault.injected_errors",
               [raw] { return static_cast<double>(raw->injected_errors()); });
    tel_.gauge("fault.link_transitions",
               [raw] { return static_cast<double>(raw->link_transitions()); });
    tel_.gauge("fault.rnr_drops", [raw] { return static_cast<double>(raw->rnr_drops()); });
  }

  for (int r = 0; r < spec_.total_ranks(); ++r) {
    const int node = r / spec_.procs_per_node;
    eps_.push_back(std::make_unique<Endpoint>(sim_, r, node,
                                              node_hcas_[static_cast<std::size_t>(node)], cfg_,
                                              tel_));
  }

  // Hardware-layer gauges, sampled when a telemetry snapshot is taken.
  for (auto& node : node_hcas_) {
    for (ib::Hca* hca : node) {
      tel_.gauge("ib.send_engine_busy_us",
                 [hca] { return sim::to_s(hca->total_send_engine_busy()) * 1e6; });
      tel_.gauge("ib.qp_send_depth",
                 [hca] { return static_cast<double>(hca->total_send_queue_depth()); });
      tel_.gauge("ib.wqes_serviced",
                 [hca] { return static_cast<double>(hca->total_wqes_serviced()); });
      tel_.gauge("ib.bytes_tx", [hca] { return static_cast<double>(hca->total_bytes_tx()); });
      tel_.gauge("hca.doorbells",
                 [hca] { return static_cast<double>(hca->total_doorbells()); });
    }
  }

  // Switched-fabric telemetry, registered on every topology (a crossbar
  // reports its one switch).  The queue/stall counters move only in
  // contention mode; the hops histogram counts on every shape.
  ib::Topology* topo = &fabric_->topology();
  tel_.gauge("fabric.switch.count",
             [topo] { return static_cast<double>(topo->switch_count()); });
  tel_.gauge("fabric.switch.routed_pkts",
             [topo] { return static_cast<double>(topo->total_routed_pkts()); });
  tel_.gauge("fabric.switch.stalls",
             [topo] { return static_cast<double>(topo->total_stalls()); });
  tel_.gauge("fabric.switch.drops",
             [topo] { return static_cast<double>(topo->total_drops()); });
  tel_.gauge("fabric.switch.queue_hwm_bytes",
             [topo] { return static_cast<double>(topo->max_queue_hwm_bytes()); });
  for (int h = 1; h <= ib::kMaxRouteHops; ++h) {
    tel_.gauge("fabric.switch.hops.h" + std::to_string(h), [this, h] {
      std::uint64_t n = 0;
      for (const auto& node : node_hcas_) {
        for (const ib::Hca* hca : node) n += hca->total_hops_taken(h);
      }
      return static_cast<double>(n);
    });
  }

  // Event-kernel self-telemetry.  Gauges derived from wall-clock time live
  // under "sim.wall." so determinism checks can exclude them when comparing
  // snapshots of two runs (virtual-time state must match bit for bit; host
  // speed obviously need not).
  const sim::Simulator* sim = &sim_;
  tel_.gauge("sim.events", [sim] { return static_cast<double>(sim->events_processed()); });
  tel_.gauge("sim.lane_events", [sim] { return static_cast<double>(sim->lane_events()); });
  tel_.gauge("sim.heap_events", [sim] { return static_cast<double>(sim->heap_events()); });
  tel_.gauge("sim.kernel_allocs", [sim] { return static_cast<double>(sim->kernel_allocs()); });
  tel_.gauge("sim.allocs_per_event", [sim] { return sim->allocs_per_event(); });
  tel_.gauge("sim.fiber_switches",
             [sim] { return static_cast<double>(sim->fiber_switches()); });
  tel_.gauge("sim.wall.run_seconds", [sim] { return sim->run_wall_seconds(); });
  tel_.gauge("sim.wall.events_per_sec", [sim] { return sim->events_per_wall_sec(); });
  tel_.gauge("sim.wall.switches_per_sec", [sim] { return sim->switches_per_wall_sec(); });

  if (cfg_.lazy_connect) {
    // Lazy wiring: no pair is built here.  Each endpoint's connection
    // manager drives wire_pair on first contact, after the modelled
    // handshake; wire_pair marks both sides Ready (flushing their queues).
    for (int r = 0; r < spec_.total_ranks(); ++r) {
      Endpoint* ep = eps_[static_cast<std::size_t>(r)].get();
      ep->conn().set_wire_fn([this, r](int peer) { wire_pair(r, peer); });
    }
  } else {
    // Legacy eager wiring: all pairs at startup, O(ranks²) QPs.
    for (int i = 0; i < spec_.total_ranks(); ++i) {
      for (int j = i + 1; j < spec_.total_ranks(); ++j) {
        wire_pair(i, j);
      }
    }
  }
}

void World::wire_pair(int i, int j) {
  Endpoint& a = *eps_.at(static_cast<std::size_t>(i));
  Endpoint& b = *eps_.at(static_cast<std::size_t>(j));
  // Idempotent: simultaneous lazy connects resolve to one wiring (the second
  // handshake finds both sides already Ready and only flushes).
  if (a.conn().ready(j)) return;
  if (a.node() == b.node()) {
    Endpoint::connect_shm(a, b);
  } else {
    Endpoint::connect_net(a, b);
  }
  a.conn().mark_ready(j);
  b.conn().mark_ready(i);
}

World::~World() = default;

void World::run(const std::function<void(Communicator&)>& rank_main) {
  sim::ProcessSet procs(sim_);
  std::vector<int> group(static_cast<std::size_t>(ranks()));
  std::iota(group.begin(), group.end(), 0);

  const int nthreads = std::max(1, cfg_.vci.threads);
  for (int r = 0; r < ranks(); ++r) {
    Endpoint* ep = eps_[static_cast<std::size_t>(r)].get();
    ep->coll_engine().begin_run();
    if (nthreads == 1) {
      procs.add("rank" + std::to_string(r), [this, ep, group, &rank_main](sim::Process& p) {
        ep->attach_process(&p);
        Communicator comm(this, ep, group, ep->rank(), /*ctx_base=*/0);
        rank_main(comm);
        // Rank code is done: let the collective-progress fiber drain any
        // schedules still in flight, then exit.
        ep->coll_engine().request_shutdown();
      });
    } else {
      // Multi-threaded rank: every modeled app thread is its own fiber, all
      // running rank_main against the shared endpoint (user code branches on
      // comm.thread_id()).  The last thread out shuts the collective engine.
      auto remaining = std::make_shared<int>(nthreads);
      for (int t = 0; t < nthreads; ++t) {
        procs.add("rank" + std::to_string(r) + ".t" + std::to_string(t),
                  [this, ep, group, t, remaining, &rank_main](sim::Process& p) {
                    if (t == 0) ep->attach_process(&p);
                    ep->register_thread(&p, t);
                    Communicator comm(this, ep, group, ep->rank(), /*ctx_base=*/0);
                    rank_main(comm);
                    if (--*remaining == 0) ep->coll_engine().request_shutdown();
                  });
      }
    }
    // The rank's collective-progress fiber: models the asynchronous progress
    // thread that advances in-flight collective schedules while the rank's
    // own fiber computes or waits.
    procs.add("collprog" + std::to_string(r), [ep](sim::Process& p) {
      ep->coll_engine().progress_main(p);
    });
  }
  procs.run_all(sim_.now());
  end_time_ = sim_.now();
}

}  // namespace ib12x::mvx
