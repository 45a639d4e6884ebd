#include "ib/hca.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "ib/fabric.hpp"
#include "ib/fault.hpp"
#include "sim/log.hpp"

namespace ib12x::ib {

// ---------------------------------------------------------------- SRQ / QP

void SharedReceiveQueue::post(const RecvWr& wr) {
  if (static_cast<int>(queue_.size()) >= capacity_) {
    throw std::runtime_error("SharedReceiveQueue overflow");
  }
  queue_.push_back(wr);
  if (!stalled_.empty()) drain_stalled();
}

bool SharedReceiveQueue::pop(RecvWr& out) {
  if (queue_.empty()) return false;
  out = queue_.front();
  queue_.pop_front();
  if (armed_ && static_cast<int>(queue_.size()) < limit_) {
    // Verbs semantics: the limit event is asynchronous (it surfaces on the
    // async event channel, not inline with the consuming work request) and
    // one-shot — it disarms until the consumer re-arms after reposting.
    armed_ = false;
    ++limit_events_;
    if (limit_handler_) {
      sim::Simulator& sim = hca_->simulator();
      sim.at(sim.now(), limit_handler_);
    }
  }
  return true;
}

void SharedReceiveQueue::arm_limit(int limit) {
  limit_ = limit;
  armed_ = limit > 0;
}

void SharedReceiveQueue::stall(QueuePair* dst, const SendWr& wr, QpNum src_qp_num) {
  Stalled s;
  s.dst = dst;
  s.src_qp = src_qp_num;
  s.wr = wr;
  if (wr.length > 0) {
    // The sender's bounce buffer recycles at its (already successful) CQE,
    // so the parked message must own its wire image.
    s.payload.assign(wr.src, wr.src + wr.length);
    s.wr.src = s.payload.data();
  }
  stalled_.push_back(std::move(s));
  ++total_stalls_;
  if (stall_hook_) stall_hook_();
}

void SharedReceiveQueue::drain_stalled() {
  // One scan per drain: an entry whose destination QP is flushing (error
  // state) rotates to the back — its sender already completed successfully,
  // so dropping it would lose data; it redelivers once the QP recovers.
  std::size_t scan = stalled_.size();
  while (scan-- > 0 && !queue_.empty()) {
    Stalled s = std::move(stalled_.front());
    stalled_.pop_front();
    if (s.dst->state() != QpState::Ready) {
      stalled_.push_back(std::move(s));
      continue;
    }
    // Redeliver through the normal path; the WQE now exists so this consumes
    // it.  The payload copy keeps the wire image alive past the sender CQE.
    (void)s.dst->port().deliver(s.dst, s.wr, s.src_qp);
  }
}

void QueuePair::post_send(const SendWr& wr) {
  if (peer_ == nullptr) throw std::logic_error("QueuePair::post_send: QP not connected");
  if (state_ == QpState::Error) {
    // Real RC semantics: posting to an error-state QP is legal but the WQE
    // completes immediately with a flush error and never reaches the wire.
    flush_send_wr(wr);
    return;
  }
  if (static_cast<int>(sq_.size()) >= port_->hca().params().max_send_wqes) {
    throw std::runtime_error("QueuePair::post_send: send queue full (qp " + std::to_string(num_) + ")");
  }
  if (wr.length > 0 && wr.src == nullptr) {
    throw std::logic_error("QueuePair::post_send: null source with non-zero length");
  }
  sq_.push_back(wr);
  ++send_wqes_posted_;
  ++doorbells_;
  if (!scheduled_) port_->notify_ready(this);
}

void QueuePair::post_send_deferred(const SendWr& wr) {
  if (peer_ == nullptr) throw std::logic_error("QueuePair::post_send_deferred: QP not connected");
  if (state_ == QpState::Error) {
    flush_send_wr(wr);
    return;
  }
  if (static_cast<int>(sq_.size() + deferred_.size()) >= port_->hca().params().max_send_wqes) {
    throw std::runtime_error("QueuePair::post_send_deferred: send queue full (qp " +
                             std::to_string(num_) + ")");
  }
  if (wr.length > 0 && wr.src == nullptr) {
    throw std::logic_error("QueuePair::post_send_deferred: null source with non-zero length");
  }
  deferred_.push_back(wr);
  ++send_wqes_posted_;
}

void QueuePair::ring_doorbell() {
  if (deferred_.empty()) return;
  for (auto& wr : deferred_) sq_.push_back(std::move(wr));
  deferred_.clear();
  ++doorbells_;
  if (!scheduled_) port_->notify_ready(this);
}

void QueuePair::post_recv(const RecvWr& wr) {
  if (srq_ != nullptr) throw std::logic_error("QueuePair::post_recv: QP uses an SRQ");
  if (state_ == QpState::Error) {
    flush_recv_wr(wr);
    return;
  }
  if (static_cast<int>(rq_.size()) >= port_->hca().params().max_recv_wqes) {
    throw std::runtime_error("QueuePair::post_recv: receive queue full");
  }
  rq_.push_back(wr);
}

void QueuePair::flush_send_wr(const SendWr& wr) {
  Wc wc;
  wc.wr_id = wr.wr_id;
  wc.opcode = wr.opcode == Opcode::Send       ? WcOpcode::SendComplete
              : wr.opcode == Opcode::RdmaRead ? WcOpcode::RdmaReadComplete
                                              : WcOpcode::RdmaWriteComplete;
  wc.status = WcStatus::WrFlushErr;
  wc.byte_len = wr.length;
  wc.qp_num = num_;
  wc.timestamp = port_->hca().simulator().now();
  scq_->push(wc);
}

void QueuePair::flush_recv_wr(const RecvWr& wr) {
  Wc wc;
  wc.wr_id = wr.wr_id;
  wc.opcode = WcOpcode::RecvComplete;
  wc.status = WcStatus::WrFlushErr;
  wc.byte_len = 0;
  wc.qp_num = num_;
  wc.timestamp = port_->hca().simulator().now();
  rcq_->push(wc);
}

void QueuePair::transition_to_error() {
  if (state_ == QpState::Error) return;
  state_ = QpState::Error;
  // Swap the queues out first: a flush completion callback may post follow-up
  // WQEs (which take the immediate-flush path above) and must not mutate the
  // queues mid-drain.  Flush order matches real hardware: send queue in post
  // order (published, then the un-rung deferred batch), then the receive side.
  sim::Fifo<SendWr> sq;
  sq.swap(sq_);
  std::vector<SendWr> def;
  def.swap(deferred_);
  sim::Fifo<RecvWr> rq;
  rq.swap(rq_);
  for (; !sq.empty(); sq.pop_front()) flush_send_wr(sq.front());
  for (const auto& wr : def) flush_send_wr(wr);
  for (; !rq.empty(); rq.pop_front()) flush_recv_wr(rq.front());
}

void QueuePair::reset() { state_ = QpState::Ready; }

RecvWr QueuePair::take_recv_wqe() {
  RecvWr wr;
  if (srq_ != nullptr) {
    if (!srq_->pop(wr)) {
      throw std::runtime_error("QP " + std::to_string(num_) + ": inbound message with empty SRQ (RNR)");
    }
    return wr;
  }
  if (rq_.empty()) {
    throw std::runtime_error("QP " + std::to_string(num_) + ": inbound message with empty RQ (RNR)");
  }
  wr = rq_.front();
  rq_.pop_front();
  return wr;
}

// ----------------------------------------------------------------- Transfer

/// Per-message pipeline state.  Allocated once when an engine picks up a
/// WQE and handed stage to stage through the event queue; the stage events
/// capture only {Port*, unique_ptr<Transfer>} so they fit the kernel's
/// 48-byte in-place event storage (SendWr alone is larger than that).
struct Transfer {
  SendWr wr;
  QueuePair* qp = nullptr;   ///< requester QP
  QueuePair* dst = nullptr;  ///< responder QP
  Port* dport = nullptr;
  Hca* dhca = nullptr;
  sim::BandwidthServer* engine = nullptr;   ///< send DMA engine (source port)
  sim::BandwidthServer* rengine = nullptr;  ///< recv DMA engine (dest port)
  int eng = 0;      ///< send engine index (service → stage_engine)
  int hop_idx = 0;  ///< contention mode: position in the tabled route
  /// The requester's CQE completes in error: an AckDrop drawn at service
  /// time, or an RNR drop found at delivery.
  bool failed = false;
  QpNum src_qp_num = 0;
  std::int64_t bytes = 0;
  std::int64_t wire_bytes = 0;
  sim::Time t_bus_seg = 0, t_eng_seg = 0, t_tx_seg = 0, t_dl_seg = 0, t_re_seg = 0,
            t_dbus_seg = 0;
  // Upstream last-byte bounds, filled in as the stages run.  tx_last changes
  // meaning once stage 3 runs: stage_uplink (latency-only) or the Switch::hop
  // chain (contention mode) advances it to the last-byte arrival bound at the
  // final switch's egress, which stage_downlink consumes.  No route is stored
  // here: the topology's route table holds one per (src lid, dst lid), and
  // each stage that needs it reads that entry.
  sim::Time bus_last = 0, eng_last = 0, tx_last = 0, dl_last = 0, re_last = 0;
};

// --------------------------------------------------------------------- Port

Port::Port(Hca& hca, int index) : hca_(&hca), index_(index) {
  const HcaParams& p = hca.params();
  std::string base = "hca" + std::to_string(hca.node()) + ".p" + std::to_string(index);
  link_tx_ = sim::BandwidthServer(base + ".link_tx", p.link_rate_gbps);
  link_rx_ = sim::BandwidthServer(base + ".link_rx", hca.fabric().fabric_params().downlink_rate_gbps);
  for (int i = 0; i < p.send_engines_per_port; ++i) {
    send_engines_.emplace_back(base + ".se" + std::to_string(i), p.engine_rate_gbps);
  }
  for (int i = 0; i < p.recv_engines_per_port; ++i) {
    recv_engines_.emplace_back(base + ".re" + std::to_string(i), p.engine_rate_gbps);
  }
  engine_busy_.assign(send_engines_.size(), false);
}

void Port::notify_ready(QueuePair* qp) {
  qp->scheduled_ = true;
  ready_.push_back(qp);
  try_dispatch();
}

void Port::try_dispatch() {
  const int n = static_cast<int>(send_engines_.size());
  int eng = 0;
  while (eng < n && !ready_.empty()) {
    if (engine_busy_[static_cast<std::size_t>(eng)]) {
      ++eng;
      continue;
    }
    QueuePair* qp = ready_.front();
    ready_.pop_front();
    if (qp->sq_.empty()) {
      // An error-state flush drained the send queue while the QP sat in the
      // ready deque; retire it without consuming an engine.
      qp->scheduled_ = false;
      continue;
    }
    engine_busy_[static_cast<std::size_t>(eng)] = true;
    service(qp, eng);
    ++eng;
  }
}

void Port::engine_done(int eng, QueuePair* qp) {
  engine_busy_[static_cast<std::size_t>(eng)] = false;
  if (!qp->sq_.empty()) {
    // Round-robin fairness: a QP with more work re-enters at the back.
    ready_.push_back(qp);
  } else {
    qp->scheduled_ = false;
  }
  try_dispatch();
}

void Port::service(QueuePair* qp, int eng) {
  sim::Simulator& sim = hca_->simulator();
  const HcaParams& P = hca_->params();
  const FabricParams& F = hca_->fabric().fabric_params();
  const sim::Time now = sim.now();

  SendWr wr = std::move(qp->sq_.front());
  qp->sq_.pop_front();

  QueuePair* dst = qp->peer_;
  Port& dport = *dst->port_;
  Hca& dhca = *dport.hca_;

  if (wr.length > 0) hca_->mem().check_lkey(wr.lkey, wr.src, wr.length);

  // Per-message fault injection (only when a FaultPlan is attached — the
  // branch is a single null check on the fault-free path).
  FaultPlan* plan = hca_->fabric().fault_plan();
  MsgFault fault = MsgFault::None;
  if (plan != nullptr) fault = plan->draw_msg_fault();
  // A read has no separate ACK — the response *is* the acknowledgment — so
  // both fault flavours collapse to retry exhaustion with no data moved.
  // Reads are idempotent, which is why the clean full-retry (no duplicate
  // bookkeeping) is the faithful model.
  if (wr.opcode == Opcode::RdmaRead && fault != MsgFault::None) fault = MsgFault::Drop;
  if (fault == MsgFault::Drop) {
    // Transport retry exhaustion: the engine fetched the WQE but no data
    // reached the responder.  The error CQE surfaces after the (modelled)
    // retry timeout; it is generated even for unsignaled WQEs, as on real
    // hardware, because the consumer must learn about the loss.
    ++wqes_serviced_;
    auto& dengine = send_engines_[static_cast<std::size_t>(eng)];
    auto fetch = dengine.reserve_time(now, now, P.wqe_fetch);
    sim.at(fetch.finish, [this, eng, qp] { engine_done(eng, qp); });
    Wc wc;
    wc.wr_id = wr.wr_id;
    wc.opcode = wr.opcode == Opcode::Send       ? WcOpcode::SendComplete
                : wr.opcode == Opcode::RdmaRead ? WcOpcode::RdmaReadComplete
                                                : WcOpcode::RdmaWriteComplete;
    wc.status = WcStatus::RetryExcErr;
    wc.byte_len = wr.length;
    wc.qp_num = qp->num_;
    const sim::Time cqe_time = now + plan->retry_latency();
    wc.timestamp = cqe_time;
    sim.at(cqe_time, [qp, wc] { qp->scq_->push(wc); });
    return;
  }

  auto& engine = send_engines_[static_cast<std::size_t>(eng)];
  auto& rengine = dport.recv_engines_[static_cast<std::size_t>(dst->recv_engine_idx_)];

  // The route of (source lid, destination lid), read from the topology's
  // route table.  The hops histogram is counted source-side.
  Topology& topo = hca_->fabric().topology();
  const Route& route = topo.resolve(lid_, dport.lid_);
  ++hops_hist_[static_cast<std::size_t>(std::min(route.count, kMaxRouteHops))];

  if (wr.opcode == Opcode::RdmaRead) {
    // Requester side of an RDMA Read: the engine fetches the WQE and emits a
    // single header-only request packet, which (like all control traffic)
    // rides the latency-only path even in contention mode.  Everything else —
    // rkey translation, payload streaming, the response pipeline — runs on
    // the responder port once the request lands there (read_respond).
    ++wqes_serviced_;
    auto fetch = engine.reserve_time(now, now, P.wqe_fetch);
    sim.at(fetch.finish, [this, eng, qp] { engine_done(eng, qp); });

    auto st = std::make_unique<Transfer>();
    // Response orientation: data flows responder → requester, so the source
    // fields name the responder and the destination fields the requester.
    // st->wr keeps the caller's pointer roles (src = local destination);
    // read_respond swaps them after translating the rkey.
    st->qp = dst;    // responder QP: route source of the response
    st->dst = qp;    // requester QP: owns the RdmaReadComplete CQE
    st->dport = this;
    st->dhca = hca_;
    st->rengine = &recv_engines_[static_cast<std::size_t>(qp->recv_engine_idx_)];
    st->src_qp_num = dst->num_;
    st->wr = std::move(wr);
    Port* rp = &dport;
    const sim::Time t_req = fetch.finish + route.fwd_latency + F.wire_latency;
    sim.at(t_req, [rp, st = std::move(st)]() mutable { rp->read_respond(std::move(st)); });
    return;
  }

  // Pipeline model.  Each bandwidth stage is a FIFO next-free-time server
  // that carries the whole message as one contiguous reservation at its own
  // rate, so shared stages (bus, links) pack concurrent messages back to
  // back and aggregate bandwidth comes out right.  Crucially, every stage
  // reserves *at the simulated time its first data arrives* (via a chained
  // event), never with a far-future earliest-start — eager reservation would
  // punch unusable holes into the shared servers and serialize unrelated
  // traffic.  A running `last_byte` bound models starvation by slower
  // upstream stages: stage k cannot finish before the upstream last byte
  // plus one cut-through segment of its own service.
  const std::int64_t bytes = wr.length;
  const std::int64_t seg = std::min<std::int64_t>(std::max<std::int64_t>(bytes, 0),
                                                  P.model_segment_bytes);
  std::int64_t pkts = (bytes + P.mtu_bytes - 1) / P.mtu_bytes;
  if (pkts == 0) pkts = 1;  // zero-length messages still emit one packet
  const std::int64_t wire_bytes = bytes + pkts * P.pkt_header_bytes;
  // Wire bytes corresponding to one cut-through segment.
  const std::int64_t seg_pkts = (seg + P.mtu_bytes - 1) / P.mtu_bytes;
  const std::int64_t seg_wire = seg + (seg_pkts == 0 ? 1 : seg_pkts) * P.pkt_header_bytes;

  const sim::Time t_bus_seg = sim::transfer_time(seg, hca_->bus().dir_rate());
  const sim::Time t_eng_seg = sim::transfer_time(seg, P.engine_rate_gbps);
  const sim::Time t_tx_seg = sim::transfer_time(seg_wire, P.link_rate_gbps);
  const sim::Time t_dl_seg = sim::transfer_time(seg_wire, F.downlink_rate_gbps);
  const sim::Time t_re_seg = sim::transfer_time(seg, P.engine_rate_gbps);
  const sim::Time t_dbus_seg = sim::transfer_time(seg, dhca.bus().dir_rate());

  ++wqes_serviced_;
  bytes_tx_ += wr.length;
  qp->bytes_sent_ += wr.length;
  const QpNum src_qp_num = qp->num_;

  auto st = std::make_unique<Transfer>();
  st->qp = qp;
  st->dst = dst;
  st->dport = &dport;
  st->dhca = &dhca;
  st->engine = &engine;
  st->rengine = &rengine;
  st->eng = eng;
  st->src_qp_num = src_qp_num;
  st->bytes = bytes;
  st->wire_bytes = wire_bytes;
  st->t_bus_seg = t_bus_seg;
  st->t_eng_seg = t_eng_seg;
  st->t_tx_seg = t_tx_seg;
  st->t_dl_seg = t_dl_seg;
  st->t_re_seg = t_re_seg;
  st->t_dbus_seg = t_dbus_seg;
  // AckDrop: the data packets arrive but the ACK is lost, so the requester
  // retries until exhaustion and completes in error — while the responder has
  // already seen the message.  This is the fault that exercises duplicate
  // suppression above the verbs layer.
  st->failed = fault == MsgFault::AckDrop;

  // Single-packet messages (all MPI control traffic — RTS/CTS/FIN — and tiny
  // eager payloads) take a latency-only fast path through the shared pipes.
  // Bus and link arbitration on the real hardware is packet-granular, so a
  // 64-byte packet never waits behind a whole megabyte DMA the way a
  // message-granular FIFO reservation would make it; its own bandwidth is
  // negligible.  The engine is still held (WQE fetch + transfer), keeping
  // per-QP service order and engine-count limits honest.
  if (bytes <= P.mtu_bytes) {
    auto fetch_small = engine.reserve_time(now, now, P.wqe_fetch + t_eng_seg);
    const sim::Time eng_done = fetch_small.finish;
    sim.at(eng_done, [this, eng, qp] { engine_done(eng, qp); });

    // Latency-only even in contention mode: single packets interleave at
    // packet granularity through the switches and their bandwidth is
    // negligible, exactly as on the bus and links (see above).  The route's
    // forward latency on a crossbar is the legacy wire + switch sum, bit for
    // bit; the ACK retraces the route in reverse (one packet, latency-only).
    const sim::Time delivered = eng_done + t_bus_seg + t_tx_seg + route.fwd_latency +
                                t_dl_seg + F.wire_latency + t_re_seg + t_dbus_seg;
    const sim::Time cqe_time =
        wr.signaled
            ? delivered + P.ack_gen + topo.fwd_latency(dport.lid_, lid_) + F.wire_latency +
                  P.cqe_delay + sim::transfer_time(P.cqe_bus_bytes, hca_->bus().dir_rate())
            : 0;
    st->wr = std::move(wr);
    finish_transfer(std::move(st), delivered, cqe_time);
    return;
  }

  // Stage 1 (now): WQE fetch on the engine, then host → HCA over GX+.
  auto fetch = engine.reserve_time(now, now, P.wqe_fetch);
  auto s_bus = hca_->bus().reserve(BusDir::ToHca, now, fetch.finish, bytes);
  st->bus_last = s_bus.finish;

  IB12X_TRACE(now, "qp%u wr%llu len=%u eng%d: bus[%.3f,%.3f]us", qp->num_,
              static_cast<unsigned long long>(wr.wr_id), wr.length, eng,
              sim::to_us(s_bus.start), sim::to_us(s_bus.finish));

  st->wr = std::move(wr);
  const sim::Time t_stage2 = s_bus.start + t_bus_seg;
  sim.at(t_stage2, [this, st = std::move(st)]() mutable { stage_engine(std::move(st)); });
}

// Responder side of an RDMA Read (runs on the responder port).
void Port::read_respond(std::unique_ptr<Transfer> st) {
  sim::Simulator& sim = hca_->simulator();
  const HcaParams& P = hca_->params();
  const FabricParams& F = hca_->fabric().fabric_params();
  const sim::Time now = sim.now();
  Topology& topo = hca_->fabric().topology();

  QueuePair* rqp = st->qp;   // responder QP
  QueuePair* reqr = st->dst; // requester QP

  if (rqp->state_ != QpState::Ready) {
    // The responder QP is flushing (injected link fault): the request is
    // NAKed, the requester's retries exhaust, and it completes in error with
    // no data moved.  The NAK retraces the route before the retry timer runs.
    FaultPlan* plan = hca_->fabric().fault_plan();
    const sim::Time cqe_time = now + topo.fwd_latency(lid_, st->dport->lid_) + F.wire_latency +
                               (plan != nullptr ? plan->retry_latency() : 0);
    Wc wc;
    wc.wr_id = st->wr.wr_id;
    wc.opcode = WcOpcode::RdmaReadComplete;
    wc.status = WcStatus::RetryExcErr;
    wc.byte_len = st->wr.length;
    wc.qp_num = reqr->num_;
    wc.timestamp = cqe_time;
    sim.at(cqe_time, [reqr, wc] { reqr->scq_->push(wc); });
    return;
  }

  // Translate the remote source on the responder memory domain, then swap
  // pointer roles: wr.src becomes the responder-local source and
  // wr.remote_addr stashes the requester-local destination for the memcpy
  // at delivery time (finish_transfer's read branch).
  if (st->wr.length > 0) {
    std::byte* rsrc = hca_->mem().translate_rkey(st->wr.rkey, st->wr.remote_addr, st->wr.length);
    st->wr.remote_addr = reinterpret_cast<std::uint64_t>(st->wr.src);
    st->wr.src = rsrc;
  }

  const Route& route = topo.resolve(lid_, st->dport->lid_);
  ++hops_hist_[static_cast<std::size_t>(std::min(route.count, kMaxRouteHops))];

  const std::int64_t bytes = st->wr.length;
  const std::int64_t seg = std::min<std::int64_t>(std::max<std::int64_t>(bytes, 0),
                                                  P.model_segment_bytes);
  std::int64_t pkts = (bytes + P.mtu_bytes - 1) / P.mtu_bytes;
  if (pkts == 0) pkts = 1;
  const std::int64_t wire_bytes = bytes + pkts * P.pkt_header_bytes;
  const std::int64_t seg_pkts = (seg + P.mtu_bytes - 1) / P.mtu_bytes;
  const std::int64_t seg_wire = seg + (seg_pkts == 0 ? 1 : seg_pkts) * P.pkt_header_bytes;

  st->bytes = bytes;
  st->wire_bytes = wire_bytes;
  st->t_bus_seg = sim::transfer_time(seg, hca_->bus().dir_rate());
  st->t_eng_seg = sim::transfer_time(seg, P.engine_rate_gbps);
  st->t_tx_seg = sim::transfer_time(seg_wire, P.link_rate_gbps);
  st->t_dl_seg = sim::transfer_time(seg_wire, F.downlink_rate_gbps);
  st->t_re_seg = sim::transfer_time(seg, P.engine_rate_gbps);
  st->t_dbus_seg = sim::transfer_time(seg, st->dhca->bus().dir_rate());
  bytes_tx_ += bytes;

  // The response streams through one of this (responder) port's send DMA
  // engines.  The engine is picked deterministically per requester QP and
  // shares bandwidth with scheduler-dispatched sends, but is never marked
  // busy for the scheduler — responder-side read logic bypasses the WQE
  // scheduler on real hardware too (there is no WQE to schedule).
  auto& engine =
      send_engines_[static_cast<std::size_t>(reqr->num_) % send_engines_.size()];
  st->engine = &engine;

  // Single-packet responses ride the latency-only fast path, like the
  // small-message branch of service().
  if (bytes <= P.mtu_bytes) {
    auto resp = engine.reserve_time(now, now, P.wqe_fetch + st->t_eng_seg);
    const sim::Time delivered = resp.finish + st->t_bus_seg + st->t_tx_seg + route.fwd_latency +
                                st->t_dl_seg + F.wire_latency + st->t_re_seg + st->t_dbus_seg;
    const sim::Time cqe_time =
        st->wr.signaled
            ? delivered + P.cqe_delay +
                  sim::transfer_time(P.cqe_bus_bytes, st->dhca->bus().dir_rate())
            : 0;
    finish_transfer(std::move(st), delivered, cqe_time);
    return;
  }

  // Bulk response: responder DMA fetch, then host → HCA over the responder
  // GX+ bus, then the regular stage 2-6 pipeline toward the requester.
  auto fetch = engine.reserve_time(now, now, P.wqe_fetch);
  auto s_bus = hca_->bus().reserve(BusDir::ToHca, now, fetch.finish, bytes);
  st->bus_last = s_bus.finish;
  const sim::Time t_stage2 = s_bus.start + st->t_bus_seg;
  sim.at(t_stage2, [this, st = std::move(st)]() mutable { stage_engine(std::move(st)); });
}

// Stage 2 (first segment on-chip): send DMA engine.
void Port::stage_engine(std::unique_ptr<Transfer> st) {
  sim::Simulator& sim = hca_->simulator();
  auto s_eng = st->engine->reserve_bytes(sim.now(), sim.now(), st->bytes);
  st->eng_last = std::max(s_eng.finish, st->bus_last + st->t_eng_seg);
  // The engine frees once the last segment has left it (including any
  // stretch from bus starvation).  Read responses never dispatched through
  // the scheduler, so there is no engine-busy slot to release for them.
  if (st->wr.opcode != Opcode::RdmaRead) {
    sim.at(st->eng_last, [this, eng = st->eng, qp = st->qp] { engine_done(eng, qp); });
  }

  const sim::Time t_next = s_eng.start + st->t_eng_seg;
  sim.at(t_next, [this, st = std::move(st)]() mutable { stage_uplink(std::move(st)); });
}

// Stage 3: port uplink to the switch (wire framing overhead applies).
void Port::stage_uplink(std::unique_ptr<Transfer> st) {
  sim::Simulator& sim = hca_->simulator();
  const FabricParams& F = hca_->fabric().fabric_params();
  Topology& topo = hca_->fabric().topology();
  auto s_tx = link_tx_.reserve_bytes(sim.now(), sim.now(), st->wire_bytes);
  st->tx_last = std::max(s_tx.finish, st->eng_last + st->t_tx_seg);

  if (!topo.contention()) {
    // Latency-only traversal: the hop chain collapses into the summed
    // forward latency, preserving the legacy event structure (on a crossbar
    // the forward latency == wire + switch, making this branch bit-identical
    // to the closed-form path this refactor replaced).  tx_last advances to
    // the arrival bound at the final switch's egress (see Transfer).
    //
    // From stage 4 on, everything runs on the *destination* port — the event
    // invokes the method on st->dport, so stages 4-6 use the destination's
    // hca_.
    const sim::Time fwd_lat = topo.fwd_latency(lid_, st->dport->lid_);
    st->tx_last += fwd_lat;
    const sim::Time t_next = s_tx.start + st->t_tx_seg + fwd_lat;
    Port* dport = st->dport;
    sim.at(t_next, [dport, st = std::move(st)]() mutable { dport->stage_downlink(std::move(st)); });
    return;
  }

  // Contention mode: traverse the route switch by switch (each hop event
  // reads its hop from the route table rather than carrying the route).  The
  // first hop arrives one wire + switch after its first segment leaves the
  // uplink.
  const Route& route = topo.resolve(lid_, st->dport->lid_);
  st->hop_idx = 0;
  Switch* sw = &topo.switch_at(route.hop[0].sw);
  const sim::Time t_hop = s_tx.start + st->t_tx_seg + F.wire_latency + F.switch_latency;
  sim.at(t_hop, [sw, st = std::move(st)]() mutable { sw->hop(std::move(st)); });
}

// Stage 3b (contention mode only): one event per switch traversal.  Reserves
// the shared backplane (arbitration capped at nonblocking_radix ports' worth
// of bandwidth) and, for switch-to-switch links, the output port's
// serializer; tracks output-queue depth against the configured buffer.  The
// fabric is lossless, so a full buffer is a counted stall (credit
// backpressure), never a drop.
void Switch::hop(std::unique_ptr<Transfer> st) {
  sim::Simulator& sim = st->dport->hca().fabric().simulator();
  const sim::Time now = sim.now();
  const FabricParams& F = topo_->fabric_params();
  const Route& route = topo_->resolve(st->qp->port().lid(), st->dport->lid());
  const RouteHop h = route.hop[st->hop_idx];
  ++routed_pkts_;

  // Queue occupancy ahead of this message, in bytes booked but not yet
  // drained (next-free-time backlog × rate).
  const auto backlog_bytes = [now](const sim::BandwidthServer& s) -> std::int64_t {
    const sim::Time backlog = s.free_at() - now;
    if (backlog <= 0) return 0;
    return static_cast<std::int64_t>(static_cast<double>(backlog) * s.rate() / 1000.0);
  };
  std::int64_t occ = backlog_bytes(backplane_);
  auto s_bp = backplane_.reserve_bytes(now, now, st->wire_bytes);
  sim::Time start = s_bp.start;
  sim::Time fin = s_bp.finish;
  sim::BandwidthServer* out = out_srv_.empty() ? nullptr : out_srv_[h.out_port].get();
  if (out != nullptr) {
    occ = std::max(occ, backlog_bytes(*out));
    auto s_out = out->reserve_bytes(now, s_bp.start, st->wire_bytes);
    start = s_out.start;
    fin = std::max(fin, s_out.finish);
  }
  if (occ + st->wire_bytes > topo_->spec().out_buf_bytes) ++stalls_;
  queue_hwm_bytes_ = std::max(queue_hwm_bytes_, occ + st->wire_bytes);

  // Cut-through last-byte bound: the last byte cannot clear this switch
  // before it arrived (upstream bound + inbound wire + switch) plus one
  // segment of forwarding.  tx_last carries the running bound (see Transfer).
  const sim::Time wire_in =
      st->hop_idx == 0 ? F.wire_latency
                       : (route.hop[st->hop_idx - 1].global ? topo_->global_wire_latency()
                                                            : F.wire_latency);
  st->tx_last = std::max(fin, st->tx_last + wire_in + F.switch_latency + st->t_tx_seg);

  ++st->hop_idx;
  if (st->hop_idx >= route.count) {
    // Final switch: hand the message to the destination port's downlink.
    Port* dport = st->dport;
    const sim::Time t_down = start + st->t_tx_seg;  // before the lambda moves st
    sim.at(t_down, [dport, st = std::move(st)]() mutable { dport->stage_downlink(std::move(st)); });
    return;
  }
  // Next switch: first segment out + wire + its switch latency.
  Switch* next = &topo_->switch_at(route.hop[st->hop_idx].sw);
  const sim::Time wire_out = h.global ? topo_->global_wire_latency() : F.wire_latency;
  const sim::Time t_next = start + st->t_tx_seg + wire_out + F.switch_latency;
  sim.at(t_next, [next, st = std::move(st)]() mutable { next->hop(std::move(st)); });
}

// Stage 4: switch egress / downlink towards the destination port.
void Port::stage_downlink(std::unique_ptr<Transfer> st) {
  sim::Simulator& sim = hca_->simulator();
  const FabricParams& F = hca_->fabric().fabric_params();
  auto s_dl = st->dport->link_rx_.reserve_bytes(sim.now(), sim.now(), st->wire_bytes);
  // tx_last was advanced to the final switch's egress bound in stage 3/3b.
  st->dl_last = std::max(s_dl.finish, st->tx_last + st->t_dl_seg);

  const sim::Time t_next = s_dl.start + st->t_dl_seg + F.wire_latency;
  sim.at(t_next, [this, st = std::move(st)]() mutable { stage_recv_engine(std::move(st)); });
}

// Stage 5: receive DMA engine at the destination.
void Port::stage_recv_engine(std::unique_ptr<Transfer> st) {
  sim::Simulator& sim = hca_->simulator();
  const FabricParams& F = hca_->fabric().fabric_params();
  auto s_re = st->rengine->reserve_bytes(sim.now(), sim.now(), st->bytes);
  st->re_last = std::max(s_re.finish, st->dl_last + F.wire_latency + st->t_re_seg);

  const sim::Time t_next = s_re.start + st->t_re_seg;
  sim.at(t_next, [this, st = std::move(st)]() mutable { stage_dest_bus(std::move(st)); });
}

// Stage 6: HCA → host over the destination GX+ bus.
void Port::stage_dest_bus(std::unique_ptr<Transfer> st) {
  sim::Simulator& sim = hca_->simulator();
  const HcaParams& P = hca_->params();
  const FabricParams& F = hca_->fabric().fabric_params();
  auto s_dbus = st->dhca->bus().reserve(BusDir::ToHost, sim.now(), sim.now(), st->bytes);
  const sim::Time delivered = std::max(s_dbus.finish, st->re_last + st->t_dbus_seg);

  // RC acknowledgment: the responder HCA acks once the last packet is placed
  // (a requester CQE therefore implies remote data is visible — the invariant
  // rendezvous FIN relies on).  The ACK is one packet retracing the route in
  // reverse, latency-only — it rides the fast path (packet-granular link
  // arbitration) like the small-message branch.  On a crossbar the reverse
  // forward latency is the legacy wire + switch sum, bit for bit.
  // The CQE writeback burns *requester-side* bus time (this method now runs
  // on the destination port, so name the requester's HCA explicitly; all
  // HCAs share one HcaParams so the value is unchanged).
  sim::Time cqe_time = 0;
  if (st->wr.signaled) {
    if (st->wr.opcode == Opcode::RdmaRead) {
      // Read response: the data *is* the acknowledgment, and this stage is
      // already running requester-side (st->dport), so the CQE follows the
      // delivery directly — no ACK retrace.
      cqe_time = delivered + P.cqe_delay +
                 sim::transfer_time(P.cqe_bus_bytes, st->dhca->bus().dir_rate());
    } else {
      const sim::Time ack_lat =
          hca_->fabric().topology().fwd_latency(st->dport->lid_, st->qp->port().lid_);
      cqe_time = delivered + P.ack_gen + sim::transfer_time(P.ack_wire_bytes, P.link_rate_gbps) +
                 ack_lat + F.wire_latency + P.cqe_delay +
                 sim::transfer_time(P.cqe_bus_bytes, st->qp->port().hca().bus().dir_rate());
    }
  }
  finish_transfer(std::move(st), delivered, cqe_time);
}

void Port::finish_transfer(std::unique_ptr<Transfer> st, sim::Time delivered,
                           sim::Time cqe_time) {
  // Runs on the source port (small-message fast path) or the destination
  // port (bulk pipeline tail).
  sim::Simulator& sim = hca_->simulator();
  if (st->wr.opcode == Opcode::RdmaRead) {
    // Read response landing: place the data in requester host memory (the
    // requester-local destination was stashed in remote_addr by
    // read_respond), then complete on the requester's *send* CQ.  The
    // delivery fires first (strictly earlier, or FIFO at an equal instant
    // since it is pushed first), so the CQE observes the data.
    Transfer* raw = st.get();
    sim.at(delivered, [raw] {
      if (raw->wr.length > 0) {
        std::memcpy(reinterpret_cast<std::byte*>(raw->wr.remote_addr), raw->wr.src,
                    raw->wr.length);
      }
      if (raw->wr.delivered_cb) raw->wr.delivered_cb();
    });
    if (!st->wr.signaled) {
      // Keep the Transfer alive until the delivery event has consumed it.
      sim.at(delivered, [st = std::move(st)] {});
      return;
    }
    sim.at(cqe_time, [st = std::move(st), cqe_time] {
      Wc wc;
      wc.wr_id = st->wr.wr_id;
      wc.opcode = WcOpcode::RdmaReadComplete;
      wc.byte_len = st->wr.length;
      wc.qp_num = st->dst->num();
      wc.timestamp = cqe_time;
      st->dst->scq_->push(wc);
    });
    return;
  }
  if (!st->wr.signaled) {
    // Data visible in responder host memory → deliver (copy + CQE).
    sim.at(delivered, [st = std::move(st)] {
      (void)st->dport->deliver(st->dst, st->wr, st->src_qp_num);
    });
    return;
  }
  // The delivery event fires before the CQE event (strictly earlier time, or
  // FIFO order at an equal instant since it is pushed first), so it may set
  // the Transfer's failure verdict for the CQE event to read.
  Transfer* raw = st.get();
  sim.at(delivered, [raw] {
    // RNR drop → requester error CQE.  deliver() can only return false with
    // a FaultPlan attached.
    if (!raw->dport->deliver(raw->dst, raw->wr, raw->src_qp_num)) raw->failed = true;
  });
  sim.at(cqe_time, [st = std::move(st), cqe_time] {
    Wc wc;
    wc.wr_id = st->wr.wr_id;
    wc.opcode =
        st->wr.opcode == Opcode::Send ? WcOpcode::SendComplete : WcOpcode::RdmaWriteComplete;
    if (st->failed) wc.status = WcStatus::RetryExcErr;
    wc.byte_len = st->wr.length;
    wc.qp_num = st->qp->num();
    wc.timestamp = cqe_time;
    st->qp->scq_->push(wc);
  });
}

bool Port::deliver(QueuePair* dst_qp, const SendWr& wr, QpNum src_qp_num) {
  sim::Simulator& sim = hca_->simulator();
  const HcaParams& P = hca_->params();
  const sim::Time now = sim.now();

  const bool consumes_recv = wr.opcode == Opcode::Send || wr.opcode == Opcode::RdmaWriteWithImm;

  if (wr.opcode == Opcode::RdmaWrite || wr.opcode == Opcode::RdmaWriteWithImm) {
    if (wr.length > 0) {
      std::byte* dstp = hca_->mem().translate_rkey(wr.rkey, wr.remote_addr, wr.length);
      std::memcpy(dstp, wr.src, wr.length);
    }
    if (wr.delivered_cb) wr.delivered_cb();
    if (!consumes_recv) return true;  // plain RDMA write: invisible to the responder
  }

  if (consumes_recv) {
    FaultPlan* plan = hca_->fabric().fault_plan();
    if (plan != nullptr && dst_qp->state_ == QpState::Error) {
      // The responder QP is flushing (link fault): the message is NAKed, the
      // requester's retries exhaust and it completes in error.  Matches the
      // per-QP-RQ mode, where the flush leaves the RQ empty; the SRQ pool
      // stays populated for the surviving QPs, so state is what gates here.
      plan->count_rnr_drop();
      return false;
    }
    if (dst_qp->srq_ != nullptr) {
      if (dst_qp->srq_->pending() == 0) {
        // Shared pool ran dry: RNR backpressure, not an error.  The message
        // parks (payload copied) and redelivers FIFO as slots are reposted —
        // the responder's RNR NAK + requester retry loop, collapsed.
        dst_qp->srq_->stall(dst_qp, wr, src_qp_num);
        return true;
      }
    } else if (plan != nullptr && dst_qp->rq_.empty()) {
      // With fault injection active, RNR (no receive posted — possible in the
      // recovery window after a flush, before the consumer reposts its slots)
      // becomes a modelled drop: retries exhaust and the requester completes
      // in error.  Without a plan the condition still indicates a substrate
      // bug and take_recv_wqe() throws.
      plan->count_rnr_drop();
      return false;
    }
  }

  RecvWr rwr = dst_qp->take_recv_wqe();
  if (wr.opcode == Opcode::Send) {
    if (wr.length > rwr.length) {
      throw std::runtime_error("QP " + std::to_string(dst_qp->num()) +
                               ": inbound Send larger than posted receive buffer");
    }
    if (wr.length > 0) {
      hca_->mem().check_lkey(rwr.lkey, rwr.dst, wr.length);
      std::memcpy(rwr.dst, wr.src, wr.length);
    }
  }

  // CQE writeback is one 64-byte bus packet: like ACKs and control packets
  // it interleaves at packet granularity and must not queue behind bulk
  // message-granular bus reservations (that would delay receive-buffer
  // recycling past the sender's credit return and fabricate RNRs).
  const sim::Time cqe_time =
      now + P.cqe_delay + sim::transfer_time(P.cqe_bus_bytes, hca_->bus().dir_rate());
  Wc wc;
  wc.wr_id = rwr.wr_id;
  wc.opcode = WcOpcode::RecvComplete;
  wc.byte_len = wr.length;
  wc.qp_num = dst_qp->num();
  wc.src_qp = src_qp_num;
  wc.has_imm = wr.opcode == Opcode::RdmaWriteWithImm;
  wc.imm_data = wc.has_imm ? wr.imm_data : 0;
  wc.timestamp = cqe_time;
  sim.at(cqe_time, [dst_qp, wc] { dst_qp->rcq_->push(wc); });
  return true;
}

// ---------------------------------------------------------------------- Hca

Hca::Hca(Fabric& fabric, int node, const HcaParams& params)
    : fabric_(&fabric), sim_(&fabric.simulator()), node_(node), params_(params),
      bus_(params.bus_dir_rate_gbps, params.bus_core_rate_gbps) {
  for (int i = 0; i < params.ports; ++i) {
    ports_.push_back(std::unique_ptr<Port>(new Port(*this, i)));
  }
}

QueuePair& Hca::create_qp(int port_idx, CompletionQueue& scq, CompletionQueue& rcq,
                          SharedReceiveQueue* srq) {
  Port& p = port(port_idx);
  const int recv_engine = p.next_recv_engine_++ % static_cast<int>(p.recv_engines_.size());
  qps_.push_back(std::unique_ptr<QueuePair>(
      new QueuePair(p, fabric_->next_qp_num(), scq, rcq, srq, recv_engine)));
  return *qps_.back();
}

SharedReceiveQueue& Hca::create_srq() {
  srqs_.push_back(std::make_unique<SharedReceiveQueue>(*this, params_.max_recv_wqes));
  return *srqs_.back();
}

}  // namespace ib12x::ib
