// The inter-node network channel: rails (QPs across HCAs × ports), credit-
// based eager flow control over bounce buffers, control-message transport
// for the rendezvous protocol, and the CQE demultiplexers (paper fig. 2's
// "communication scheduler" + "eager protocol" + "completion filter" boxes).
//
// The channel owns everything rail-shaped that used to live tangled in the
// endpoint's PeerConn: per-peer rail vectors, credits, the round-robin
// cursor, the pending-control queue, the shared bounce pool and the SRQs
// with their pooled receive slots.  Rendezvous data movement is planned by the
// Rendezvous module but posted through this channel (post_write), so all
// rail accounting stays in one place.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ib/verbs.hpp"
#include "mvx/channel.hpp"
#include "mvx/policy.hpp"
#include "mvx/request.hpp"
#include "mvx/telemetry.hpp"
#include "sim/fifo.hpp"

namespace ib12x::mvx {

class Endpoint;

class NetChannel final {
 public:
  NetChannel(Endpoint& ep, std::vector<ib::Hca*> hcas);
  ~NetChannel();

  /// Per-side connection surface, driven by World::wire_pair: open_to(peer)
  /// creates this side's peer entry and — lazily, once — the shared
  /// send/receive resources (bounce pool; SRQ + pooled eager arena per local
  /// HCA); establish(a, b) then wires VCI 0's rail set (hcas × ports × qps
  /// QP pairs, each attached to its HCA's SRQ) between two opened sides.
  void open_to(int peer);
  static void establish(NetChannel& a, NetChannel& b);

  /// Wires one more VCI's QP group between two established sides: the next
  /// hcas × ports × qps rail block is appended to each side's flat rail
  /// vector, so VCI v owns the contiguous slice [v·rails(), (v+1)·rails()).
  /// establish() wires group 0; ensure_vci wires the rest on first use.
  static void wire_vci_group(NetChannel& a, NetChannel& b);

  /// Lazily wires every VCI QP group up to and including `vci` towards
  /// `peer` (symmetrically, on both sides).  No-op for already-wired groups.
  void ensure_vci(int peer, int vci);

  /// True once open_to(peer) has created this side's peer entry.
  [[nodiscard]] bool accepts(int peer) const;

  /// Eager send (bytes < rndv_threshold); larger messages go through the
  /// Rendezvous module, which posts on this channel.
  void send(int peer, CommKind kind, const void* buf, std::int64_t bytes, int tag, int ctx,
            const Request& req);

  /// Event-context eager send for the connection manager's queued-send
  /// flush: same rail choice as send(), but never blocks — returns false
  /// (cursor restored, nothing reserved) when no credit, bounce buffer or
  /// live rail is available.  On success the post + copy CPU is charged on
  /// the VCI's progress server and the request completes once posted.
  bool try_send(int peer, CommKind kind, const void* buf, std::int64_t bytes, int tag, int ctx,
                const Request& req);

  /// Event-context RTS support for the queued-send flush: probe_ctl_rail
  /// returns the rail (remapped to a live one under faults) on which a
  /// credit and bounce are reservable right now, or -1; post_ctl_evt then
  /// reserves them and posts the header-only message after post_cpu().
  [[nodiscard]] int probe_ctl_rail(int peer, int rail) const;
  void post_ctl_evt(int peer, int rail, const MsgHeader& hdr, const CtsRkeys* rkeys = nullptr);

  // ---- services for the Rendezvous module ----

  /// Control-message send from event context: takes credit/bounce if
  /// available, otherwise queues until a credit returns.
  void send_ctl(int peer, const MsgHeader& hdr, const CtsRkeys& rkeys);

  /// Process-context control send (RTS): blocks for credit and bounce on
  /// `rail`, charges post_cpu(), then posts the header-only message (or, for
  /// a ReadRts RTS, the header plus the sender-side rkeys payload).
  void send_ctl_blocking(int peer, int rail, const MsgHeader& hdr,
                         const CtsRkeys* rkeys = nullptr);

  /// Rails per VCI (the schedulable width one message sees); the flat rail
  /// vector holds nrails entries per wired VCI.
  [[nodiscard]] int nrails(int peer) const;
  /// Data cursor of one VCI's rail slice (local indices 0..nrails-1); wires
  /// the VCI's QP group on first use.  Control traffic (RTS/CTS/FIN) reads
  /// it to place itself but never advances it.
  [[nodiscard]] RailCursor& cursor(int peer, int vci);
  /// Flat indices of the currently-up rails in one VCI's slice (may be empty
  /// mid-outage).
  [[nodiscard]] std::vector<int> live_rails(int peer, int vci) const;
  [[nodiscard]] bool fault_enabled() const { return fault_enabled_; }

  void post_write(int peer, const RndvStripe& st);
  /// Posts a failed stripe's re-planned pieces as one doorbell batch: every
  /// WQE is built and appended deferred, then each involved rail's doorbell
  /// rings once (QueuePair::post_send_deferred / ring_doorbell).
  void post_write_batch(int peer, const std::vector<RndvStripe>& sts);

  /// Read-rendezvous: posts one RDMA Read pulling `st.len` bytes from the
  /// sender.  Stripe field roles flip relative to a write — st.src names the
  /// *local destination* slice and st.raddr/st.rkeys the remote source.
  /// Reads consume no responder receive WQE, so no credit is taken.
  void post_read(int peer, const RndvStripe& st);
  void post_read_batch(int peer, const std::vector<RndvStripe>& sts);

  /// Write-imm rendezvous: posts `st` as an RDMA write with immediate `imm`.
  /// The immediate consumes a receive WQE at the responder, so the post takes
  /// an eager credit on a live rail of the stripe's VCI slice; with none
  /// available the post queues and drains when a credit returns.
  void post_write_imm(int peer, const RndvStripe& st, std::uint32_t imm);

  [[nodiscard]] const std::vector<ib::Hca*>& hcas() const { return hcas_; }

 private:
  /// The pooled eager receive side of one local HCA — the shared
  /// receive queue, the registered arena of srq_pool_slots buffers it binds
  /// at delivery, and the batched-replenish state driven by the srq_limit
  /// low-watermark event.
  struct HcaPool {
    ib::SharedReceiveQueue* srq = nullptr;
    std::unique_ptr<std::byte[]> arena;
    int drained = 0;              ///< consumed WQEs awaiting batched repost
    bool want_replenish = false;  ///< a limit event fired since the last repost
  };

  /// One rail to one peer: a connected QP plus its sender-side credits.
  struct Rail {
    ib::QueuePair* qp = nullptr;
    int hca_index = 0;
    int credits = 0;
    // ---- failover state (inert unless fault injection is on) ----
    bool up = true;
    bool recovery_scheduled = false;  ///< a try_recover_rail event is pending
    int recovery_polls = 0;           ///< consecutive still-down probes (bounded)
  };

  using PendingCtl = std::pair<MsgHeader, CtsRkeys>;

  /// Per-(peer, VCI) channel state: the data cursor and pending-control
  /// queue of one VCI's rail slice.
  struct VciLane {
    RailCursor cursor;
    /// Control messages waiting for rail credit.
    sim::Fifo<PendingCtl> pending_ctl;
  };

  struct Peer {
    std::vector<Rail> rails;  ///< flat, VCI-major: VCI v owns [v·R, (v+1)·R)
    /// One lane per wired VCI QP group (lanes.size() == rails.size() / R).
    std::vector<VciLane> lanes;
    /// The peer's channel, kept for symmetric lazy VCI-group wiring.
    NetChannel* remote = nullptr;
  };

  /// Sender-side context attached to each send WQE via wr_id.
  struct SendCtx {
    enum class Kind : std::uint8_t {
      Bounce,
      RndvWrite,
      RndvRead,
      RndvImm,
    } kind = Kind::Bounce;
    int peer = -1;
    int rail = -1;
    int bounce = -1;         // Bounce: index into bounce pool
    std::int64_t bytes = 0;  // Bounce: wire bytes, for a failover replay
    int attempts = 0;        // Bounce: failover replays of this message so far
    bool failed = false;     // the CQE carried an error status
    int live_slot = -1;      // index in live_ctx_
    /// Rndv*: the posted stripe; an error CQE hands it back to the
    /// Rendezvous module for re-planning.
    RndvStripe stripe = {};
  };

  /// An eager/ctl message whose retry found no usable rail; drained when a
  /// rail recovers.
  struct PendingRetry {
    int peer = -1;
    int vci = 0;
    int bounce = -1;
    std::int64_t bytes = 0;
    int attempts = 0;
  };

  /// A write-imm post waiting for an eager credit; drained when one returns.
  struct PendingImm {
    int peer = -1;
    RndvStripe st;
    std::uint32_t imm = 0;
  };

  Peer& peer(int rank);
  [[nodiscard]] const Peer& peer(int rank) const;

  /// One-time lazy allocation of the shared send/receive resources: the
  /// sender bounce pool, and one SRQ and the receive arena it binds buffers
  /// from per local HCA.  Runs at the first open_to — a rank that never
  /// touches the network allocates nothing.
  void ensure_net_resources();
  /// Creates one rail QP towards `peer` (bookkeeping only; the caller wires
  /// it to the remote side via ib::Fabric::connect).
  ib::QueuePair& open_rail(int peer, int hca_index, int port);
  /// Per-rail credits, re-derived from the shared pool: srq_pool_slots
  /// spread over the rail slices, capped at eager_credits.
  [[nodiscard]] int rail_credits() const;

  /// SRQ low-watermark machinery: the async limit event marks the pool
  /// wanting a replenish; try_replenish batch-reposts every drained WQE and
  /// re-arms once both conditions hold.
  void on_srq_limit(int hca_index);
  void try_replenish(int hca_index);

  /// Blocks the process until rail `r` has a send credit and a bounce buffer
  /// is free; returns the bounce index.
  int acquire_bounce_and_credit(Peer& c, int rail);

  /// Start of eager bounce buffer `bounce` in the pool arena.
  [[nodiscard]] std::byte* bounce_data(int bounce) const {
    return bounce_arena_.get() + static_cast<std::size_t>(bounce) * slot_bytes_;
  }

  /// The flat rail an eager message of `req` starts on, before failover
  /// remapping: its collective lane's rail, else the policy's pick within
  /// the request's VCI slice (advancing that lane's cursor).
  int eager_rail(Peer& c, CommKind kind, std::int64_t bytes, const Request& req);
  /// The header of an eager message; claims its sequence number.
  MsgHeader eager_header(int peer_rank, CommKind kind, std::int64_t bytes, int tag, int ctx,
                         int vci);

  /// Sends header(+payload) on one rail, consuming a credit and a bounce
  /// buffer the caller already reserved.  Process- or event-context
  /// agnostic.
  void post_eager(Peer& c, int peer_rank, int rail, int bounce, const MsgHeader& hdr,
                  const void* payload, std::int64_t bytes);
  /// Builds the SendWr for one rendezvous stripe; deferred WQEs need an
  /// explicit ring_doorbell on the rail's QP afterwards.
  void post_write_impl(Peer& c, int peer_rank, const RndvStripe& st, bool deferred);
  /// Builds the SendWr for one rendezvous read stripe (read-rendezvous).
  void post_read_impl(Peer& c, int peer_rank, const RndvStripe& st, bool deferred);
  void flush_pending_ctl(int peer_rank);
  void flush_pending_imm();

  /// Hands out a SendCtx owned by live_ctx_ until retire_ctx, reusing a
  /// retired one when there is one; the WQE's wr_id carries a raw alias.
  SendCtx* track_ctx(const SendCtx& ctx);
  /// Moves a context whose CQE has been processed to the free list.
  void retire_ctx(SendCtx* ctx);

  void on_send_cqe(const ib::Wc& wc);
  void on_recv_cqe(const ib::Wc& wc);

  // ---- failover machinery (reachable only with fault injection on) ----

  /// First up rail at-or-after `rail` within its VCI's slice, wrapping
  /// inside the slice; `rail` itself if none is up.  Ignores credits.
  [[nodiscard]] int remap_live(const Peer& c, int rail) const;
  /// First rail of VCI `vci`'s slice, scanning from local index `start` and
  /// wrapping inside the slice, that has a send credit and (with faults on)
  /// is up; -1 if none.
  [[nodiscard]] int credited_rail(const Peer& c, int vci, int start) const;
  /// Blocks the calling process until some rail of VCI `vci` to `peer_rank`
  /// is up.
  void wait_any_rail_up(int peer_rank, int vci);
  /// Error CQE seen on (peer, rail): mark it down and start the timed
  /// recovery probe.
  void mark_rail_down(int peer_rank, int rail);
  void schedule_recovery(int peer_rank, int rail);
  void try_recover_rail(int peer_rank, int rail);
  /// Replays a failed eager/ctl message (the bounce buffer still holds the
  /// wire image) on a live rail of its own VCI's slice, starting at that
  /// lane's cursor, or parks it until one recovers.
  void retry_eager(int peer_rank, int vci, int bounce, std::int64_t wire_bytes, int attempts);
  void flush_pending_retries();
  /// Raw re-post of an already-filled bounce buffer (credit already taken).
  void post_bounce_raw(Peer& c, int peer_rank, int rail, int bounce, std::int64_t wire_bytes,
                       int attempts);

  Endpoint& ep_;
  std::vector<ib::Hca*> hcas_;

  ib::CompletionQueue scq_;
  ib::CompletionQueue rcq_;

  /// Indexed by peer rank; null for a rank this side never opened.  Each
  /// Peer is its own allocation, so references survive the vector growing.
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<HcaPool> pools_;  ///< per local HCA

  /// Eager slot size: header plus the largest eager payload.
  const std::size_t slot_bytes_;
  /// Sender-side eager bounce pool: send_bounce_bufs slots in one arena,
  /// registered once per local HCA.  Allocated without zero-fill, so the host
  /// backs only the pages a message is copied into.
  std::unique_ptr<std::byte[]> bounce_arena_;
  ib::LKey bounce_lkey_[kMaxHcas] = {0, 0, 0, 0};
  std::vector<int> free_bounce_;
  bool resources_ready_ = false;  ///< ensure_net_resources has run

  const bool fault_enabled_;
  /// A vector, not a deque: an empty deque heap-allocates its map block on
  /// construction, and this member must cost nothing when faults are off.
  std::vector<PendingRetry> pending_retry_;
  /// Credit-starved write-imm posts (WriteImm protocol only; empty — and
  /// unallocated — in the default configuration).
  std::vector<PendingImm> pending_imm_;
  /// Every in-flight SendCtx, freed by retire_ctx once its CQE is processed.
  /// A run that aborts with sends in flight leaves the rest here for the
  /// destructor.
  std::vector<std::unique_ptr<SendCtx>> live_ctx_;
  /// Retired contexts kept for reuse: one allocation per peak in-flight
  /// WQE rather than one per WQE.
  std::vector<std::unique_ptr<SendCtx>> free_ctx_;

  Counter& eager_sent_;
  Counter& ctl_sent_;
  Counter& bytes_sent_;
  Counter& credit_stalls_;
  Counter& rail_up_;         ///< rail activations (connect time)
  Counter& rail_down_;       ///< up → down transitions
  Counter& rail_recovered_;  ///< down → up transitions
  Counter& send_errors_;     ///< error CQEs on the send side
  Counter& eager_retries_;   ///< eager/ctl messages replayed after an error
  Counter& qps_created_;     ///< own-side rail QPs created (conn.qps_created)
  Counter& eager_pool_bytes_;  ///< eager receive-buffer bytes allocated
  Counter& srq_replenishes_;   ///< batched SRQ reposts (low-watermark events served)
  Counter& srq_pool_dry_;      ///< inbound messages stalled on an empty pool
  Counter& vci_credit_split_;  ///< per-rail credits after the split across VCIs
};

}  // namespace ib12x::mvx
