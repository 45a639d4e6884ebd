// The IBM 12x dual-port HCA model: GX+ bus attachment, per-port send/recv
// DMA engine pools, the hardware send scheduler (round-robin over ready QPs),
// and reliable-connection queue pairs.
//
// Timing model per send WQE (see DESIGN.md §3/§5): once the scheduler hands
// a WQE to a free send engine, the message flows in `model_segment_bytes`
// store-and-forward segments through
//
//   host bus (GX+) → send engine → port link → wire → switch → downlink
//   → recv engine → remote bus → delivery
//
// with every stage a FIFO next-free-time server, so segments of one message
// pipeline across stages and concurrent messages contend realistically.
// The responder ACKs after the last packet (RC), consuming reverse link
// bandwidth; the requester CQE is generated from the ACK.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ib/cq.hpp"
#include "ib/gx_bus.hpp"
#include "ib/mem.hpp"
#include "ib/params.hpp"
#include "ib/topology.hpp"
#include "ib/types.hpp"
#include "sim/fifo.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"

namespace ib12x::ib {

class Hca;
class Port;
class Fabric;
class FaultPlan;
class QueuePair;
struct Transfer;  // per-message pipeline state (hca.cpp)

/// Queue-pair state, reduced to the two states the fault model needs.
/// Ready covers INIT/RTR/RTS (connection setup is not modelled); Error is
/// entered on an injected link/QP fault and flushes both work queues.
enum class QpState : std::uint8_t { Ready, Error };

/// Receive queue shared between QPs on one HCA (verbs SRQ), including the
/// two behaviours the scaled eager path needs:
///
///  * the `srq_limit` low-watermark event (IBV_EVENT_SRQ_LIMIT_REACHED): when
///    a pop leaves fewer than `limit` WQEs and the limit is armed, the handler
///    fires once asynchronously and the limit disarms until re-armed — the
///    consumer's cue to batch-repost drained slots;
///  * RNR backpressure: an inbound message that meets an empty SRQ is parked
///    (payload copied — the sender's bounce buffer recycles at its CQE) and
///    redelivered FIFO as new WQEs are posted, modelling the responder's
///    RNR NAK + requester retry without fabricating an error.
class SharedReceiveQueue {
 public:
  SharedReceiveQueue(Hca& hca, int capacity) : hca_(&hca), capacity_(capacity) {}

  void post(const RecvWr& wr);
  bool pop(RecvWr& out);
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Handler for the asynchronous limit-reached event (fires from the event
  /// queue, never from inside pop()).
  void set_limit_handler(std::function<void()> h) { limit_handler_ = std::move(h); }
  /// Arms the low watermark: the next pop that leaves pending() < limit
  /// schedules the handler and disarms.  limit <= 0 disarms.
  void arm_limit(int limit);
  /// Called on every stall (inbound message parked on an empty queue);
  /// consumers hang telemetry on it.
  void set_stall_hook(std::function<void()> h) { stall_hook_ = std::move(h); }
  /// Redelivers parked messages if WQEs are available.  Recovery path: a QP
  /// reset cleared its error state, but nothing has posted to the SRQ since,
  /// so no drain has run and a parked message could otherwise wait forever.
  void kick() {
    if (!stalled_.empty()) drain_stalled();
  }

  [[nodiscard]] std::size_t stalled() const { return stalled_.size(); }
  [[nodiscard]] std::uint64_t total_stalls() const { return total_stalls_; }
  [[nodiscard]] std::uint64_t limit_events() const { return limit_events_; }

 private:
  friend class Port;

  /// Parks one inbound message until a WQE is posted (Port::deliver).
  void stall(QueuePair* dst, const SendWr& wr, QpNum src_qp_num);
  /// Redelivers the oldest stalled message; called after each post while
  /// both a WQE and a stalled message exist.
  void drain_stalled();

  struct Stalled {
    QueuePair* dst = nullptr;
    QpNum src_qp = 0;
    SendWr wr;                       ///< wr.src repointed at `payload`
    std::vector<std::byte> payload;  ///< owned copy of the wire image
  };

  Hca* hca_;
  int capacity_;
  std::deque<RecvWr> queue_;
  std::deque<Stalled> stalled_;
  std::function<void()> limit_handler_;
  std::function<void()> stall_hook_;
  int limit_ = 0;
  bool armed_ = false;
  std::uint64_t total_stalls_ = 0;
  std::uint64_t limit_events_ = 0;
};

/// Reliable-connection queue pair.  Created unconnected; Fabric::connect
/// pairs two of them.
class QueuePair {
 public:
  void post_send(const SendWr& wr);
  void post_recv(const RecvWr& wr);

  /// Doorbell batching: appends a WQE to the send queue WITHOUT ringing the
  /// doorbell — the hardware scheduler does not see it until ring_doorbell().
  /// Callers must ring before returning to the event loop; the batch is the
  /// set of WQEs built between two doorbells (MVAPICH-style list posting,
  /// one uncached-MMIO write per batch instead of per WQE).
  void post_send_deferred(const SendWr& wr);
  /// Publishes every deferred WQE to the hardware scheduler.  No-op when
  /// nothing is deferred; counts one doorbell otherwise.
  void ring_doorbell();

  [[nodiscard]] QpNum num() const { return num_; }
  [[nodiscard]] Port& port() const { return *port_; }
  [[nodiscard]] QueuePair* peer() const { return peer_; }
  [[nodiscard]] bool connected() const { return peer_ != nullptr; }
  [[nodiscard]] CompletionQueue& send_cq() const { return *scq_; }
  [[nodiscard]] CompletionQueue& recv_cq() const { return *rcq_; }
  [[nodiscard]] QpState state() const { return state_; }

  /// Moves the QP to the error state (no-op if already there) and flushes
  /// every queued WQE — send queue first (published then deferred, in post
  /// order), then the receive queue — as WrFlushErr completions carrying the
  /// original wr_id.  Mirrors real RC semantics where a fatal transport error
  /// drains both work queues so the consumer can reclaim its buffers.
  void transition_to_error();
  /// Error → Ready (verbs QP reset + re-connect collapsed into one step; the
  /// simulator keeps the peer wiring, so recovery is just re-arming).
  void reset();

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t send_wqes_posted() const { return send_wqes_posted_; }
  [[nodiscard]] std::uint64_t doorbells() const { return doorbells_; }
  [[nodiscard]] std::size_t send_queue_depth() const { return sq_.size(); }

 private:
  friend class Hca;
  friend class Port;
  friend class Fabric;

  QueuePair(Port& port, QpNum num, CompletionQueue& scq, CompletionQueue& rcq,
            SharedReceiveQueue* srq, int recv_engine_idx)
      : port_(&port), scq_(&scq), rcq_(&rcq), srq_(srq), num_(num),
        recv_engine_idx_(recv_engine_idx) {}

  /// Takes a receive WQE for an inbound message (QP RQ, or SRQ if attached).
  RecvWr take_recv_wqe();

  Port* port_;
  CompletionQueue* scq_;
  CompletionQueue* rcq_;
  SharedReceiveQueue* srq_;
  QpNum num_;
  int recv_engine_idx_;
  QueuePair* peer_ = nullptr;

  // Work queues allocate on first post: most of a large job's QPs are wired
  // but stay idle.
  sim::Fifo<SendWr> sq_;
  sim::Fifo<RecvWr> rq_;
  /// WQEs built but not yet published (between post_send_deferred and
  /// ring_doorbell).  Kept out of sq_ so the scheduler cannot service them;
  /// appended to and drained whole, so a plain vector.
  std::vector<SendWr> deferred_;
  /// True while the QP sits in the port's ready queue or an engine services it.
  bool scheduled_ = false;
  QpState state_ = QpState::Ready;

  /// Immediate flush completion for a WQE that cannot be (or no longer is)
  /// queued: the error state short-circuits the whole pipeline.
  void flush_send_wr(const SendWr& wr);
  void flush_recv_wr(const RecvWr& wr);

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t send_wqes_posted_ = 0;
  std::uint64_t doorbells_ = 0;
};

/// One 12x port: link servers, DMA engine pools, hardware send scheduler.
class Port {
 public:
  [[nodiscard]] Hca& hca() const { return *hca_; }
  [[nodiscard]] int index() const { return index_; }
  /// Topology-assigned local identifier (set when Fabric attaches the HCA).
  [[nodiscard]] Lid lid() const { return lid_; }
  void set_lid(Lid lid) { lid_ = lid; }

  /// Source-side route-length histogram: hops_taken(h) counts messages this
  /// port sent whose route crossed h switches (1 on a crossbar).  Counted at
  /// WQE service time.
  [[nodiscard]] std::uint64_t hops_taken(int hops) const {
    return (hops >= 1 && hops <= kMaxRouteHops)
               ? hops_hist_[static_cast<std::size_t>(hops)]
               : 0;
  }

  [[nodiscard]] int send_engine_count() const { return static_cast<int>(send_engines_.size()); }
  [[nodiscard]] sim::Time send_engine_busy(int i) const { return send_engines_[i].busy_time(); }
  [[nodiscard]] sim::Time send_engine_busy_total() const {
    sim::Time t = 0;
    for (const auto& e : send_engines_) t += e.busy_time();
    return t;
  }
  [[nodiscard]] std::uint64_t wqes_serviced() const { return wqes_serviced_; }
  [[nodiscard]] std::uint64_t bytes_tx() const { return bytes_tx_; }

 private:
  friend class Hca;
  friend class QueuePair;
  friend class Fabric;
  friend class Switch;              ///< hop-by-hop traversal hands to stage_downlink
  friend class SharedReceiveQueue;  ///< redelivery of stalled SRQ messages

  Port(Hca& hca, int index);

  /// QP transitioned empty→non-empty: enter the scheduler.
  void notify_ready(QueuePair* qp);
  /// Assigns ready QPs to free engines.
  void try_dispatch();
  /// Runs the pipeline model for qp's head WQE on engine `eng`.
  void service(QueuePair* qp, int eng);
  void engine_done(int eng, QueuePair* qp);

  // Bulk-message pipeline stages.  One Transfer is allocated per serviced
  // WQE and handed stage to stage through the event queue (each event
  // captures just {this, unique_ptr} and fits the kernel's in-place event
  // storage — the old per-stage std::function closures were 5-6 heap
  // allocations per message).
  void stage_engine(std::unique_ptr<Transfer> st);
  void stage_uplink(std::unique_ptr<Transfer> st);
  void stage_downlink(std::unique_ptr<Transfer> st);
  void stage_recv_engine(std::unique_ptr<Transfer> st);
  void stage_dest_bus(std::unique_ptr<Transfer> st);
  /// Schedules delivery (and the requester CQE for signaled WRs) once the
  /// delivered-time is known.  Shared by the small-message fast path and the
  /// bulk pipeline tail.
  void finish_transfer(std::unique_ptr<Transfer> st, sim::Time delivered, sim::Time cqe_time);

  /// Inbound delivery (runs on the destination port, from event context).
  /// Returns false when the message was dropped because the responder had no
  /// receive WQE posted (RNR with a FaultPlan attached; throws without one).
  bool deliver(QueuePair* dst_qp, const SendWr& wr, QpNum src_qp_num);

  /// Responder side of an RDMA Read: runs on the *responder* port once the
  /// request packet arrives, translates the rkey on the
  /// responder memory domain, and streams the response payload back through
  /// this port's engine/link pipeline toward the requester.  The Transfer
  /// arrives response-oriented: st->qp is the responder QP (route source),
  /// st->dst the requester QP that owns the RdmaReadComplete CQE.
  void read_respond(std::unique_ptr<Transfer> st);

  Hca* hca_;
  int index_;
  Lid lid_ = kInvalidLid;

  sim::BandwidthServer link_tx_;  ///< port → switch
  sim::BandwidthServer link_rx_;  ///< switch → port (egress of the switch)
  std::vector<sim::BandwidthServer> send_engines_;
  std::vector<sim::BandwidthServer> recv_engines_;
  std::vector<bool> engine_busy_;
  std::deque<QueuePair*> ready_;

  std::uint64_t wqes_serviced_ = 0;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t hops_hist_[kMaxRouteHops + 1] = {};
  int next_recv_engine_ = 0;
};

class Hca {
 public:
  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] const HcaParams& params() const { return params_; }
  [[nodiscard]] Port& port(int i) { return *ports_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int port_count() const { return static_cast<int>(ports_.size()); }
  [[nodiscard]] MemoryDomain& mem() { return mem_; }
  [[nodiscard]] GxBus& bus() { return bus_; }
  [[nodiscard]] Fabric& fabric() const { return *fabric_; }
  /// The fabric's simulator (cached here: every pipeline stage reads it).
  [[nodiscard]] sim::Simulator& simulator() const { return *sim_; }

  /// Creates an RC QP on port `port_idx`.  If `srq` is non-null the QP takes
  /// inbound receive WQEs from it instead of its own RQ.
  QueuePair& create_qp(int port_idx, CompletionQueue& scq, CompletionQueue& rcq,
                       SharedReceiveQueue* srq = nullptr);

  SharedReceiveQueue& create_srq();

  /// All QPs created on port `port_idx` (fault-plan bookkeeping: a link-down
  /// event transitions every QP behind the port to the error state).
  [[nodiscard]] std::vector<QueuePair*> port_qps(int port_idx) const {
    std::vector<QueuePair*> out;
    for (const auto& qp : qps_) {
      if (qp->port_->index() == port_idx) out.push_back(qp.get());
    }
    return out;
  }

  /// Telemetry: instantaneous sum of send-queue depths over every QP.
  [[nodiscard]] std::size_t total_send_queue_depth() const {
    std::size_t d = 0;
    for (const auto& qp : qps_) d += qp->send_queue_depth();
    return d;
  }
  /// Telemetry: total WQEs serviced / bytes transmitted across all ports.
  [[nodiscard]] std::uint64_t total_wqes_serviced() const {
    std::uint64_t n = 0;
    for (const auto& p : ports_) n += p->wqes_serviced();
    return n;
  }
  [[nodiscard]] std::uint64_t total_bytes_tx() const {
    std::uint64_t n = 0;
    for (const auto& p : ports_) n += p->bytes_tx();
    return n;
  }
  /// Telemetry: doorbells rung across all QPs (each plain post_send is one
  /// doorbell; a deferred batch counts one regardless of its WQE count).
  [[nodiscard]] std::uint64_t total_doorbells() const {
    std::uint64_t n = 0;
    for (const auto& qp : qps_) n += qp->doorbells();
    return n;
  }
  [[nodiscard]] sim::Time total_send_engine_busy() const {
    sim::Time t = 0;
    for (const auto& p : ports_) t += p->send_engine_busy_total();
    return t;
  }
  /// Telemetry: messages sent whose route crossed `hops` switches.
  [[nodiscard]] std::uint64_t total_hops_taken(int hops) const {
    std::uint64_t n = 0;
    for (const auto& p : ports_) n += p->hops_taken(hops);
    return n;
  }

 private:
  friend class Fabric;
  friend class Port;

  Hca(Fabric& fabric, int node, const HcaParams& params);

  Fabric* fabric_;
  sim::Simulator* sim_;
  int node_;
  HcaParams params_;
  GxBus bus_;
  MemoryDomain mem_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  std::vector<std::unique_ptr<SharedReceiveQueue>> srqs_;
};

}  // namespace ib12x::ib
