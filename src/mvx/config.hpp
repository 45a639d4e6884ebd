// Cluster shape and MPI-substrate tuning knobs.
//
// Defaults model the paper's testbed: 2 IBM Power6 nodes with one IBM 12x
// dual-port HCA each, one GX+ bus, one port in use, and MVAPICH-era software
// costs.  The "original MVAPICH" baseline of the paper is qps_per_port = 1
// with Policy::Binding.
#pragma once

#include <cstdint>
#include <vector>

#include "ib/params.hpp"
#include "ib/topology.hpp"
#include "mvx/coll/select.hpp"
#include "mvx/policy.hpp"
#include "sim/time.hpp"

namespace ib12x::mvx {

/// Hard cap on VCIs per rank (wire format carries the VCI id in one byte and
/// benches sweep 1–8; the cap keeps per-peer rail vectors bounded).
inline constexpr int kMaxVcis = 8;

struct ClusterSpec {
  int nodes = 2;
  int procs_per_node = 1;

  [[nodiscard]] int total_ranks() const { return nodes * procs_per_node; }
};

struct Config {
  // ---- rail layout -------------------------------------------------------
  int hcas_per_node = 1;
  int ports_per_hca = 1;  ///< the paper's evaluation uses one port
  int qps_per_port = 1;
  Policy policy = Policy::Binding;

  /// Rails per peer pair.
  [[nodiscard]] int rails() const { return hcas_per_node * ports_per_hca * qps_per_port; }

  /// WeightedStriping: per-rail stripe weights (empty = equal).  Shorter
  /// vectors repeat cyclically over the rails.
  std::vector<double> rail_weights;

  /// Take inbound eager buffers from one shared receive queue per HCA
  /// instead of per-QP receive queues (same protocol, O(1) instead of
  /// O(peers) buffer memory — the SRQ mechanism of §2.1).  On by default
  /// since the connection-scaling refactor; `use_srq = false` together with
  /// `lazy_connect = false` recovers the legacy per-peer wiring exactly.
  bool use_srq = true;
  /// SRQ mode: pooled eager receive slots per local HCA (the shared arena
  /// replacing the per-QP `eager_credits` slots).
  int srq_pool_slots = 256;
  /// SRQ mode: low watermark arming the asynchronous limit-reached event
  /// (verbs srq_limit).  Drained slots are reposted in one batch when the
  /// pool's pending count falls below this; <= 0 reposts each slot
  /// immediately after its CQE (no batching).
  int srq_limit = 32;

  /// Establish connections (QPs, rails, fast-path rings) to a peer on first
  /// send or first matched receive instead of all-pairs at startup, via a
  /// modelled out-of-band handshake of `conn_setup_latency`.  Sends posted
  /// before the handshake completes queue per peer and flush FIFO.
  bool lazy_connect = true;
  sim::Time conn_setup_latency = sim::microseconds(25.0);

  /// MVAPICH's adaptive RDMA fast path: small eager messages are RDMA-written
  /// into a per-peer ring the receiver polls, bypassing the responder's
  /// receive-descriptor and CQE processing.
  bool use_rdma_fast_path = false;
  int fast_path_slots = 32;            ///< ring depth per peer direction
  std::int64_t fast_path_max = 1024;   ///< payload cutoff for the fast path
  sim::Time poll_delay = sim::nanoseconds(100);  ///< poll-loop discovery granularity

  // ---- collective algorithm selection (MVAPICH-era tuning) ---------------
  /// Algorithm forcing, Auto crossovers and multi-lane knobs; the registry
  /// and selection table live in mvx/coll/select.hpp.
  coll::Tuning coll;

  // ---- protocol ----------------------------------------------------------
  std::int64_t rndv_threshold = 16 * 1024;   ///< eager/rendezvous switch (paper §3.3)
  std::int64_t stripe_threshold = 16 * 1024; ///< striping cutoff (same value in the paper)
  std::int64_t min_stripe = 2048;            ///< never cut stripes below this
  int eager_credits = 64;                    ///< preposted recv buffers per rail
  int send_bounce_bufs = 256;                ///< sender-side eager bounce pool

  /// Pipelined zero-copy rendezvous (MVAPICH-lineage pipelined rendezvous,
  /// Liu et al.): the receiver registers the target buffer in
  /// `rndv_pipeline_chunk` pieces and streams one CTS per chunk as its
  /// registration completes, so the sender's first RDMA write departs while
  /// later chunks are still being pinned; the sender registers its own side
  /// chunk by chunk and posts each chunk's stripes as one doorbell-batched
  /// batch.  Off (the default) reproduces the one-shot RTS/CTS/FIN protocol
  /// bit-for-bit, including its exact-pointer registration-cache semantics.
  bool rndv_pipeline = false;
  std::int64_t rndv_pipeline_chunk = 64 * 1024;  ///< per-CTS registration chunk

  /// Pin-down cache byte budget (registered rendezvous buffers kept resident
  /// for reuse).  0 = unlimited (never evict — the legacy behaviour).  When
  /// exceeded, least-recently-used unpinned regions are deregistered and
  /// `rndv.reg_cache_evictions` counts them.
  std::int64_t reg_cache_capacity = 0;

  /// Rendezvous protocol family (ibvBench's enumeration).  WriteRtsCts is
  /// the paper's four-step write rendezvous and the default; ReadRts ships
  /// the sender's rkeys in the RTS and the receiver pulls with RDMA Read
  /// (three steps, receiver-driven); WriteImm collapses CTS + FIN into a
  /// write-with-immediate whose receiver CQE completes the match (three
  /// steps, sender-driven).  The RTS carries the choice, so mixed-config
  /// jobs interoperate per message.
  struct RndvConfig {
    enum class Protocol : std::uint8_t { WriteRtsCts = 0, ReadRts = 1, WriteImm = 2 };
    Protocol protocol = Protocol::WriteRtsCts;

    /// Online adaptive scheduling (rndv_policy.hpp): pick protocol × stripe
    /// width per (peer, size-class) by epsilon-greedy over observed
    /// completion throughput, instead of the static protocol above.  Arms
    /// whose stripe width exceeds the live-rail count are masked out.
    bool adaptive = false;
    double epsilon = 0.1;        ///< exploration rate (0..1)
    std::uint64_t seed = 0;      ///< policy RNG stream (xored with the rank)
    /// Cap on the stripe-width axis of the arm space (0 = up to rails()).
    int max_width = 0;
  };
  RndvConfig rndv;

  // ---- virtual communication interfaces (MPI+threads) ---------------------
  /// Zambre-style VCIs: each rank hosts `vci.count` independent software
  /// channels.  A VCI owns its own QP set per peer (a contiguous slice of
  /// the peer's rail vector, wired lazily per (peer, vci)), a disjoint
  /// sequence-space slice in the matcher, its own CQ-processing server
  /// ("progress fiber") and its own control-message cursors.  `vci.threads`
  /// modeled application threads per rank each run as a sim::Process fiber;
  /// the mapping policy decides which VCI a thread's operations use.  The
  /// default (count = 1, threads = 1) is bit-identical to the single-channel
  /// substrate.
  struct VciConfig {
    int count = 1;    ///< VCIs per rank (1..kMaxVcis)
    int threads = 1;  ///< modeled app threads per rank (>= 1)

    /// Thread → VCI mapping.  RoundRobin: thread t drives VCI t % count
    /// (dedicated channels when threads <= count — the scalable regime).
    /// PerComm: operations map by communicator context, so each communicator
    /// gets a VCI regardless of the issuing thread.  Shared: every thread
    /// funnels through VCI 0 (the contended baseline that flatlines).
    enum class Mapping : std::uint8_t { RoundRobin, PerComm, Shared };
    Mapping mapping = Mapping::RoundRobin;

    /// Cost of one VCI lock acquisition (CAS + fence), charged whenever
    /// threads > 1 and a thread enters a VCI's critical section; contended
    /// acquisitions additionally serialize behind the holder.
    sim::Time lock_cpu = sim::nanoseconds(60);
  };
  VciConfig vci;

  // ---- switched fabric topology -------------------------------------------
  /// Shape, routing and contention model of the subnet (ib/topology.hpp).
  /// The default — single crossbar switch, contention off — reproduces the
  /// seed's closed-form wire path bit for bit; fat-tree/dragonfly shapes and
  /// `topo.contention = true` turn on hop-by-hop routed traversal.  Sizing
  /// fields left at 0 are derived from the cluster shape when the World is
  /// built (smallest fabric of that shape that fits every port).
  ib::TopologySpec topo;

  // ---- fault injection / failover ----------------------------------------
  /// Deterministic fault model (ib::FaultPlan) plus the transport's failover
  /// response.  With enabled == false (the default) every fault hook in the
  /// stack is inert and the simulation is bit-identical to the fault-free
  /// build.
  struct FaultConfig {
    bool enabled = false;
    std::uint64_t seed = 0xfa17;       ///< fault RNG stream (independent of Config::seed)
    double msg_error_rate = 0.0;       ///< per-WQE probability of a transport fault
    double ack_drop_fraction = 0.25;   ///< of faulted WQEs: data lands, ACK lost
    sim::Time retry_latency = sim::microseconds(2.0);   ///< fault → error-CQE delay
    sim::Time rail_recovery = sim::microseconds(20.0);  ///< rail down → retry-up probe
    int eager_retry_limit = 64;        ///< replays of one eager/ctl message before giving up
    int stripe_retry_limit = 64;       ///< re-posts of one rendezvous stripe before giving up

    /// A scheduled link flap: port `port` of HCA `hca` on node `node` goes
    /// down at `down_at` and comes back at `up_at` (ignored if <= down_at).
    struct LinkFlap {
      int node = 0;
      int hca = 0;
      int port = 0;
      sim::Time down_at = 0;
      sim::Time up_at = 0;
    };
    std::vector<LinkFlap> link_flaps;
  };
  FaultConfig fault;

  // ---- software costs (MVAPICH-era, Power6) -------------------------------
  sim::Time post_cpu = sim::nanoseconds(700);      ///< build WQE + ring doorbell (uncached MMIO)
  /// Doorbell-batched posting (pipelined rendezvous only): each WQE costs
  /// wqe_build_cpu and the uncached-MMIO doorbell is paid once per batch.
  /// wqe_build_cpu + doorbell_cpu == post_cpu keeps a 1-stripe batch
  /// identical to the legacy per-stripe cost.
  sim::Time wqe_build_cpu = sim::nanoseconds(250);
  sim::Time doorbell_cpu = sim::nanoseconds(450);
  sim::Time cqe_sw = sim::nanoseconds(750);        ///< poll + process one completion
  sim::Time match_cpu = sim::nanoseconds(450);     ///< per-message header processing / matching
  sim::Time ctl_cpu = sim::nanoseconds(300);       ///< control (RTS/CTS/FIN) handling
  sim::Time reg_cache_miss = sim::nanoseconds(450);///< rendezvous buffer registration (flat part)
  sim::Time reg_cache_hit = sim::nanoseconds(50);
  /// Per-4-KiB-page pin cost added to a registration miss.  0 (the default)
  /// keeps the seed's flat registration model; the rendezvous-pipeline
  /// ablation raises it to the MVAPICH-era measured ~150 ns/page to expose
  /// what chunked registration actually hides.
  sim::Time reg_page_cpu = 0;
  double memcpy_gbps = 2.6;                        ///< host memcpy rate for eager copies

  // ---- shared-memory channel (intra-node) ---------------------------------
  sim::Time shm_latency = sim::nanoseconds(400);
  double shm_gbps = 1.8;

  // ---- hardware -----------------------------------------------------------
  ib::HcaParams hca;
  ib::FabricParams fabric;

  std::uint64_t seed = 0x12c0ffee;

  /// The paper's baseline configuration.
  static Config original() { return Config{}; }

  /// The paper's enhanced configuration: n QPs/port with the given policy.
  static Config enhanced(int qps, Policy p) {
    Config c;
    c.qps_per_port = qps;
    c.policy = p;
    return c;
  }
};

}  // namespace ib12x::mvx
