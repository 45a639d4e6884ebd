#include "mvx/net_channel.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "ib/fault.hpp"
#include "mvx/matcher.hpp"

namespace ib12x::mvx {

NetChannel::NetChannel(ChannelHost& host, std::vector<ib::Hca*> hcas)
    : host_(host),
      hcas_(std::move(hcas)),
      slot_bytes_(kHeaderBytes + static_cast<std::size_t>(host.config().rndv_threshold)),
      fault_enabled_(host.config().fault.enabled),
      eager_sent_(host.telemetry().counter("net.eager_sent")),
      ctl_sent_(host.telemetry().counter("net.ctl_sent")),
      bytes_sent_(host.telemetry().counter("net.bytes_sent")),
      credit_stalls_(host.telemetry().counter("net.credit_stalls")),
      rail_up_(host.telemetry().counter("rail.up")),
      rail_down_(host.telemetry().counter("rail.down")),
      rail_recovered_(host.telemetry().counter("rail.recovered")),
      send_errors_(host.telemetry().counter("fault.send_errors")),
      recv_flushes_(host.telemetry().counter("fault.recv_flushes")),
      eager_retries_(host.telemetry().counter("fault.eager_retries")),
      qps_created_(host.telemetry().counter("conn.qps_created")),
      eager_pool_bytes_(host.telemetry().counter("eager.pool_bytes")),
      srq_replenishes_(host.telemetry().counter("srq.replenishes")),
      srq_pool_dry_(host.telemetry().counter("srq.pool_dry")),
      vci_credit_split_(host.telemetry().counter("vci.credit_split")) {
  if (static_cast<int>(hcas_.size()) > kMaxHcas) {
    throw std::invalid_argument("NetChannel: too many HCAs per node");
  }
  scq_.set_callback([this](const ib::Wc& wc) { on_send_cqe(wc); });
  rcq_.set_callback([this](const ib::Wc& wc) { on_recv_cqe(wc); });
}

NetChannel::~NetChannel() = default;

// --------------------------------------------------- connection / resources

void NetChannel::ensure_net_resources() {
  if (resources_ready_) return;
  resources_ready_ = true;
  const Config& cfg = host_.config();
  vci_credit_split_.track_max(static_cast<std::uint64_t>(rail_credits()));

  // Sender-side eager bounce pool: one arena, one registration per local HCA
  // domain (MVAPICH registers its vbuf region the same way).  Host pages are
  // backed on first write; the modelled pool keeps its full size.
  const std::size_t nbounce = static_cast<std::size_t>(cfg.send_bounce_bufs);
  bounce_arena_ = std::make_unique_for_overwrite<std::byte[]>(nbounce * slot_bytes_);
  for (std::size_t h = 0; h < hcas_.size(); ++h) {
    bounce_lkey_[h] =
        hcas_[h]->mem().register_memory(bounce_arena_.get(), nbounce * slot_bytes_).lkey;
  }
  for (std::size_t i = 0; i < nbounce; ++i) free_bounce_.push_back(static_cast<int>(i));

  // SRQ mode: one shared receive queue + one pooled receive arena per local
  // HCA — the receive-buffer footprint is O(1) in the peer count.  The SRQ
  // binds an arena buffer to a Send when it arrives and the CQE handler
  // releases it, LIFO, so the host backs only the buffers ever in flight
  // between delivery and CQE at once; the modelled pool keeps its full size.
  if (!cfg.use_srq) return;
  const int slots = std::max(1, cfg.srq_pool_slots);
  pools_.resize(hcas_.size());
  for (std::size_t h = 0; h < hcas_.size(); ++h) {
    HcaPool& pool = pools_[h];
    pool.srq = &hcas_[h]->create_srq();
    const std::size_t arena_bytes = static_cast<std::size_t>(slots) * slot_bytes_;
    pool.arena = std::make_unique_for_overwrite<std::byte[]>(arena_bytes);
    pool.srq->attach_buffers(
        {.base = pool.arena.get(),
         .stride = static_cast<std::uint32_t>(slot_bytes_),
         .count = static_cast<std::uint32_t>(slots),
         .lkey = hcas_[h]->mem().register_memory(pool.arena.get(), arena_bytes).lkey,
         .wr_id = h});
    eager_pool_bytes_.add(arena_bytes);
    for (int i = 0; i < slots; ++i) pool.srq->post();
    const int hca_index = static_cast<int>(h);
    pool.srq->set_stall_hook([this] { srq_pool_dry_.inc(); });
    if (cfg.srq_limit > 0) {
      pool.srq->set_limit_handler([this, hca_index] { on_srq_limit(hca_index); });
      pool.srq->arm_limit(cfg.srq_limit);
    }
  }
}

int NetChannel::rail_credits() const {
  const Config& cfg = host_.config();
  // With several VCIs the credit budget splits evenly over the VCI groups:
  // each group's rails get their share of the per-QP credits (per-QP RQ
  // mode) or of the shared SRQ arena (the pool stays one per HCA, only the
  // sender-side credit derivation divides).  The World constructor rejects
  // splits that would round to zero.
  if (!cfg.use_srq) return cfg.eager_credits / std::max(1, cfg.vci.count);
  // Re-derive per-rail credits from the shared pool so one peer's rails can
  // never oversubscribe the arena on their own; concurrent senders beyond
  // that are absorbed by RNR backpressure (stall + replenish), not errors.
  const int per_rail =
      std::max(1, cfg.srq_pool_slots) / std::max(1, cfg.rails() * std::max(1, cfg.vci.count));
  return std::min(cfg.eager_credits, std::max(1, per_rail));
}

void NetChannel::open_to(int peer_rank) {
  ensure_net_resources();
  if (peer_rank < 0) {
    throw std::out_of_range("NetChannel " + std::to_string(host_.rank()) +
                            ": negative peer rank " + std::to_string(peer_rank));
  }
  const auto i = static_cast<std::size_t>(peer_rank);
  if (i >= peers_.size()) peers_.resize(i + 1);
  // Materialize the peer entry (rails wire in establish).
  if (!peers_[i]) peers_[i] = std::make_unique<Peer>();
}

ib::QueuePair& NetChannel::open_rail(int peer_rank, int hca_index, int port) {
  const Config& cfg = host_.config();
  Peer& c = peer(peer_rank);
  ib::SharedReceiveQueue* srq =
      cfg.use_srq ? pools_.at(static_cast<std::size_t>(hca_index)).srq : nullptr;
  ib::QueuePair& qp =
      hcas_.at(static_cast<std::size_t>(hca_index))->create_qp(port, scq_, rcq_, srq);
  c.rails.push_back(Rail{.qp = &qp, .hca_index = hca_index, .credits = rail_credits()});
  // Error-CQE → rail routing, only ever consulted under fault injection;
  // skip the map nodes entirely otherwise.
  if (fault_enabled_) {
    qp_rail_[qp.num()] = {peer_rank, static_cast<int>(c.rails.size()) - 1};
  }
  qps_created_.inc();
  return qp;
}

void NetChannel::prepost_rail(ib::QueuePair& qp) {
  const Config& cfg = host_.config();
  if (cfg.use_srq) return;  // pooled WQEs were posted once per HCA
  for (int i = 0; i < rail_credits(); ++i) {
    auto slot = std::make_unique<RecvSlot>();
    slot->buf = std::make_unique_for_overwrite<std::byte[]>(slot_bytes_);
    // Receive buffers only need registration in the domain of the HCA the
    // QP lives on.
    slot->lkey = qp.port().hca().mem().register_memory(slot->buf.get(), slot_bytes_).lkey;
    slot->qp = &qp;
    post_slot(*slot);
    eager_pool_bytes_.add(slot_bytes_);
    recv_slots_.push_back(std::move(slot));
  }
}

void NetChannel::post_slot(RecvSlot& slot) {
  slot.qp->post_recv({.wr_id = reinterpret_cast<std::uint64_t>(&slot),
                      .dst = slot.buf.get(),
                      .length = static_cast<std::uint32_t>(slot_bytes_),
                      .lkey = slot.lkey});
}

void NetChannel::establish(NetChannel& a, NetChannel& b) {
  const Config& cfg = a.host_.config();
  a.open_to(b.host_.rank());
  b.open_to(a.host_.rank());
  a.peer(b.host_.rank()).remote = &b;
  b.peer(a.host_.rank()).remote = &a;
  // VCI group 0 always wires with the connection; with lazy_connect the
  // remaining groups wire on first use (ensure_vci).  Eager wiring brings up
  // every group here.
  const int groups = cfg.lazy_connect ? 1 : std::max(1, cfg.vci.count);
  for (int v = 0; v < groups; ++v) wire_vci_group(a, b);
}

void NetChannel::ensure_vci(int peer_rank, int vci) {
  Peer& c = peer(peer_rank);
  while (static_cast<int>(c.lanes.size()) <= vci) wire_vci_group(*this, *c.remote);
}

void NetChannel::wire_vci_group(NetChannel& a, NetChannel& b) {
  const Config& cfg = a.host_.config();
  Peer& pa = a.peer(b.host_.rank());
  Peer& pb = b.peer(a.host_.rank());
  pa.lanes.emplace_back();
  pb.lanes.emplace_back();
  ib::FaultPlan* plan = a.fault_enabled_ ? a.hcas_.front()->fabric().fault_plan() : nullptr;

  for (int h = 0; h < cfg.hcas_per_node; ++h) {
    for (int p = 0; p < cfg.ports_per_hca; ++p) {
      for (int q = 0; q < cfg.qps_per_port; ++q) {
        ib::QueuePair& qa = a.open_rail(b.host_.rank(), h, p);
        ib::QueuePair& qb = b.open_rail(a.host_.rank(), h, p);
        ib::Fabric::connect(qa, qb);
        a.rail_up_.inc();
        b.rail_up_.inc();
        a.prepost_rail(qa);
        b.prepost_rail(qb);
        if (plan != nullptr) {
          // Lazy wiring can land inside a link-down window: a QP created
          // behind a dead port starts in the error state (its rail parks and
          // probes for recovery like any mid-run failure).
          const int ra = static_cast<int>(pa.rails.size()) - 1;
          const int rb = static_cast<int>(pb.rails.size()) - 1;
          if (plan->port_down(a.hcas_.at(static_cast<std::size_t>(h)), p)) {
            qa.transition_to_error();
            a.mark_rail_down(b.host_.rank(), ra);
          }
          if (plan->port_down(b.hcas_.at(static_cast<std::size_t>(h)), p)) {
            qb.transition_to_error();
            b.mark_rail_down(a.host_.rank(), rb);
          }
        }
      }
    }
  }
}

NetChannel::Peer& NetChannel::peer(int rank) {
  if (!accepts(rank)) {
    throw std::logic_error("NetChannel " + std::to_string(host_.rank()) +
                           ": no connection to rank " + std::to_string(rank));
  }
  return *peers_[static_cast<std::size_t>(rank)];
}

const NetChannel::Peer& NetChannel::peer(int rank) const {
  return const_cast<NetChannel*>(this)->peer(rank);
}

bool NetChannel::accepts(int peer_rank) const {
  const auto i = static_cast<std::size_t>(peer_rank);
  return peer_rank >= 0 && i < peers_.size() && peers_[i] != nullptr;
}

int NetChannel::nrails(int peer_rank) const {
  static_cast<void>(peer(peer_rank));  // preserve the no-connection diagnostic
  return host_.config().rails();
}

RailCursor& NetChannel::cursor(int peer_rank, int vci) {
  ensure_vci(peer_rank, vci);
  return peer(peer_rank).lanes[static_cast<std::size_t>(vci)].cursor;
}

std::vector<int> NetChannel::live_rails(int peer_rank, int vci) const {
  const Peer& c = peer(peer_rank);
  const int n = host_.config().rails();
  const int base = vci * n;
  std::vector<int> out;
  for (int i = base; i < base + n; ++i) {
    if (c.rails[static_cast<std::size_t>(i)].up) out.push_back(i);
  }
  return out;
}

int NetChannel::remap_live(const Peer& c, int rail) const {
  // Failover remaps only within the rail's own VCI slice: rails of other
  // VCIs are other channels' resources (and at vci.count = 1 the slice is
  // the whole vector, reproducing the legacy wrap exactly).
  const int n = host_.config().rails();
  const int base = (rail / n) * n;
  for (int i = 0; i < n; ++i) {
    const int cand = base + (rail - base + i) % n;
    if (c.rails[static_cast<std::size_t>(cand)].up) return cand;
  }
  return rail;
}

void NetChannel::wait_any_rail_up(int peer_rank, int vci) {
  Peer& c = peer(peer_rank);
  const int n = host_.config().rails();
  const std::size_t base = static_cast<std::size_t>(vci) * static_cast<std::size_t>(n);
  host_.process().wait_until(host_.progress(), [&c, base, n] {
    for (int i = 0; i < n; ++i) {
      if (c.rails[base + static_cast<std::size_t>(i)].up) return true;
    }
    return false;
  });
}

// ------------------------------------------------------------- eager sends

int NetChannel::acquire_bounce_and_credit(Peer& c, int rail) {
  Rail& r = c.rails.at(static_cast<std::size_t>(rail));
  if (r.credits <= 0 || free_bounce_.empty()) credit_stalls_.inc();
  host_.process().wait_until(host_.progress(), [&] { return r.credits > 0 && !free_bounce_.empty(); });
  // Reserve both resources NOW: between this call and the eventual
  // post_eager the process charges CPU time, during which an event-context
  // control send could otherwise steal the last credit and trigger RNR.
  --r.credits;
  int b = free_bounce_.back();
  free_bounce_.pop_back();
  return b;
}

void NetChannel::post_eager(Peer& c, int peer_rank, int rail, int bounce, const MsgHeader& hdr,
                            const void* payload, std::int64_t bytes) {
  Rail& r = c.rails.at(static_cast<std::size_t>(rail));
  std::byte* wire = bounce_data(bounce);
  write_header(wire, hdr);
  if (bytes > 0) std::memcpy(wire + kHeaderBytes, payload, static_cast<std::size_t>(bytes));

  // The caller has already reserved the credit (acquire_bounce_and_credit
  // or send_ctl); post_eager only performs the copy and the post.
  SendCtx* ctx = track_ctx({.kind = SendCtx::Kind::Bounce, .peer = peer_rank, .rail = rail,
                            .bounce = bounce,
                            .bytes = static_cast<std::int64_t>(kHeaderBytes) + bytes});
  if (r.credits < 0) throw std::logic_error("post_eager: credit underflow");
  r.qp->post_send({.wr_id = reinterpret_cast<std::uint64_t>(ctx),
                   .opcode = ib::Opcode::Send,
                   .src = wire,
                   .length = static_cast<std::uint32_t>(kHeaderBytes + bytes),
                   .lkey = bounce_lkey_[r.hca_index]});
}

int NetChannel::eager_rail(Peer& c, CommKind kind, std::int64_t bytes, const Request& req) {
  const Config& cfg = host_.config();
  const int vci = req->vci;
  const int width = cfg.rails();  // rails per VCI: the schedulable slice
  const int base = vci * width;
  // Multi-lane collective transfer: pinned to its lane's rail, bypassing the
  // policy (and leaving the policy's cursor undisturbed).
  if (req->lane >= 0) return base + req->lane % width;
  const Schedule s = choose_schedule(cfg.policy, kind, bytes, width, cfg.stripe_threshold,
                                     c.lanes[static_cast<std::size_t>(vci)].cursor);
  return base + (s.stripe ? 0 : s.rail);  // eager messages never stripe
}

MsgHeader NetChannel::eager_header(int peer_rank, CommKind kind, std::int64_t bytes, int tag,
                                   int ctx, int vci) {
  MsgHeader hdr;
  hdr.type = MsgType::Eager;
  hdr.kind = static_cast<std::uint8_t>(kind);
  hdr.vci = static_cast<std::uint8_t>(vci);
  hdr.src_rank = host_.rank();
  hdr.tag = tag;
  hdr.ctx = ctx;
  hdr.seq = host_.matcher().next_send_seq(peer_rank, ctx, vci);
  hdr.size = static_cast<std::uint64_t>(bytes);
  return hdr;
}

void NetChannel::send(int peer_rank, CommKind kind, const void* buf, std::int64_t bytes, int tag,
                      int ctx, const Request& req) {
  const int vci = req->vci;
  ensure_vci(peer_rank, vci);
  Peer& c = peer(peer_rank);
  int rail = eager_rail(c, kind, bytes, req);
  if (fault_enabled_) {
    // Failover: never start an eager send on a rail known to be down.  The
    // schedule above keeps its cursor arithmetic (so fault-free behaviour is
    // untouched); the dead-rail remap happens after the fact.
    wait_any_rail_up(peer_rank, vci);
    rail = remap_live(c, rail);
  }

  int bounce = acquire_bounce_and_credit(c, rail);
  host_.process().compute(host_.config().post_cpu() +
                          host_.memcpy_time(static_cast<std::int64_t>(kHeaderBytes) + bytes));
  post_eager(c, peer_rank, rail, bounce, eager_header(peer_rank, kind, bytes, tag, ctx, vci), buf,
             bytes);

  eager_sent_.inc();
  bytes_sent_.add(static_cast<std::uint64_t>(bytes));

  // Eager sends are buffered: the user buffer is reusable immediately.
  req->done = true;
  req->completed_at = host_.simulator().now();
}

bool NetChannel::try_send(int peer_rank, CommKind kind, const void* buf, std::int64_t bytes,
                          int tag, int ctx, const Request& req) {
  // Event-context twin of send(): used to flush sends queued behind a lazy
  // handshake.  It must not block, so instead of waiting on credits it
  // reports failure and leaves the message queued (a later CQE re-flushes).
  const int vci = req->vci;
  ensure_vci(peer_rank, vci);
  Peer& c = peer(peer_rank);
  const Config& cfg = host_.config();
  RailCursor& cur = c.lanes[static_cast<std::size_t>(vci)].cursor;
  const RailCursor saved = cur;
  int rail = eager_rail(c, kind, bytes, req);
  if (fault_enabled_) {
    if (live_rails(peer_rank, vci).empty()) {
      cur = saved;
      return false;
    }
    rail = remap_live(c, rail);
  }
  Rail& r = c.rails.at(static_cast<std::size_t>(rail));
  if (r.credits <= 0 || free_bounce_.empty()) {
    credit_stalls_.inc();
    cur = saved;
    return false;
  }
  --r.credits;
  const int bounce = free_bounce_.back();
  free_bounce_.pop_back();
  // Sequence numbers are claimed here, at dispatch, so queued sends to one
  // peer keep MPI ordering no matter when their CPU events run.
  const MsgHeader hdr = eager_header(peer_rank, kind, bytes, tag, ctx, vci);

  host_.schedule_cpu_vci(
      vci, cfg.post_cpu() + host_.memcpy_time(static_cast<std::int64_t>(kHeaderBytes) + bytes),
      sim::boxed([this, peer_rank, rail, bounce, hdr, buf, bytes, req] {
        post_eager(peer(peer_rank), peer_rank, rail, bounce, hdr, buf, bytes);
        eager_sent_.inc();
        bytes_sent_.add(static_cast<std::uint64_t>(bytes));
        host_.complete_request(req);
      }));
  return true;
}

// ---------------------------------------------------------------- controls

void NetChannel::send_ctl_blocking(int peer_rank, int rail, const MsgHeader& hdr,
                                   const CtsRkeys* rkeys) {
  ensure_vci(peer_rank, hdr.vci);
  Peer& c = peer(peer_rank);
  if (fault_enabled_) {
    wait_any_rail_up(peer_rank, hdr.vci);
    rail = remap_live(c, rail);
  }
  int bounce = acquire_bounce_and_credit(c, rail);
  host_.process().compute(host_.config().post_cpu());
  post_eager(c, peer_rank, rail, bounce, hdr, rkeys,
             rkeys != nullptr ? static_cast<std::int64_t>(sizeof(CtsRkeys)) : 0);
}

int NetChannel::probe_ctl_rail(int peer_rank, int rail) const {
  // Event-context probe for the non-blocking RTS path: returns a rail that
  // can take a control message right now, or -1 (leave the send queued).
  const Peer& c = peer(peer_rank);
  if (free_bounce_.empty()) return -1;
  if (fault_enabled_) {
    bool any_up = false;
    for (const Rail& r : c.rails) any_up = any_up || r.up;
    if (!any_up) return -1;
    rail = remap_live(c, rail);
  }
  if (c.rails.at(static_cast<std::size_t>(rail)).credits <= 0) return -1;
  return rail;
}

void NetChannel::post_ctl_evt(int peer_rank, int rail, const MsgHeader& hdr,
                              const CtsRkeys* rkeys) {
  // Event-context twin of send_ctl_blocking(); the caller has validated the
  // rail with probe_ctl_rail, so the reservation here cannot fail.
  Peer& c = peer(peer_rank);
  --c.rails.at(static_cast<std::size_t>(rail)).credits;
  const int bounce = free_bounce_.back();
  free_bounce_.pop_back();
  const bool with_rkeys = rkeys != nullptr;
  const CtsRkeys rk = with_rkeys ? *rkeys : CtsRkeys{};
  host_.schedule_cpu_vci(hdr.vci, host_.config().post_cpu(),
                         sim::boxed([this, peer_rank, rail, bounce, hdr, with_rkeys, rk] {
    post_eager(peer(peer_rank), peer_rank, rail, bounce, hdr, with_rkeys ? &rk : nullptr,
               with_rkeys ? static_cast<std::int64_t>(sizeof(CtsRkeys)) : 0);
  }));
}

void NetChannel::send_ctl(int peer_rank, const MsgHeader& hdr, const CtsRkeys& rkeys) {
  const int vci = hdr.vci;
  ensure_vci(peer_rank, vci);
  Peer& c = peer(peer_rank);
  VciLane& lane = c.lanes[static_cast<std::size_t>(vci)];
  // Pick the first rail with a credit in the message's VCI slice, scanning
  // from the lane's data cursor without advancing it.
  const int n = host_.config().rails();
  const int base = vci * n;
  int rail = -1;
  for (int i = 0; i < n; ++i) {
    int cand = base + (lane.cursor.next + i) % n;
    if (c.rails[static_cast<std::size_t>(cand)].credits > 0 &&
        (!fault_enabled_ || c.rails[static_cast<std::size_t>(cand)].up)) {
      rail = cand;
      break;
    }
  }
  if (rail < 0 || free_bounce_.empty()) {
    lane.pending_ctl.emplace_back(hdr, rkeys);
    return;
  }
  --c.rails.at(static_cast<std::size_t>(rail)).credits;  // reserve
  int bounce = free_bounce_.back();
  free_bounce_.pop_back();
  // CTS always carries the receiver rkeys; a ReadRts RTS carries the
  // *sender's* rkeys the same way (pending-queue entries reuse the pair).
  const bool carries_rkeys =
      hdr.type == MsgType::Cts ||
      (hdr.type == MsgType::Rts && hdr.proto == static_cast<std::uint8_t>(RndvProto::ReadRts));
  const std::int64_t payload_bytes = carries_rkeys ? sizeof(CtsRkeys) : 0;
  post_eager(c, peer_rank, rail, bounce, hdr, &rkeys, payload_bytes);
  ctl_sent_.inc();
}

void NetChannel::flush_pending_ctl(int peer_rank) {
  Peer& c = peer(peer_rank);
  for (VciLane& lane : c.lanes) {
    auto& pending = lane.pending_ctl;
    while (!pending.empty()) {
      auto [hdr, rkeys] = pending.front();
      const std::size_t before = pending.size();
      pending.pop_front();
      send_ctl(peer_rank, hdr, rkeys);
      if (pending.size() >= before) break;  // this lane is still stuck
    }
  }
}

// ------------------------------------------------------- rendezvous writes

void NetChannel::post_write_impl(Peer& c, int peer_rank, const RndvStripe& st, bool deferred) {
  Rail& r = c.rails.at(static_cast<std::size_t>(st.rail));
  SendCtx* sctx = track_ctx(
      {.kind = SendCtx::Kind::RndvWrite, .peer = peer_rank, .rail = st.rail, .stripe = st});
  ib::SendWr wr;
  wr.wr_id = reinterpret_cast<std::uint64_t>(sctx);
  wr.opcode = ib::Opcode::RdmaWrite;
  wr.src = st.src;
  wr.length = static_cast<std::uint32_t>(st.len);
  wr.lkey = st.len > 0 ? st.lkeys[static_cast<std::size_t>(r.hca_index)] : 0;
  wr.remote_addr = st.raddr;
  wr.rkey = st.rkeys.rkey[r.hca_index];
  if (deferred) {
    r.qp->post_send_deferred(wr);
  } else {
    r.qp->post_send(wr);
  }
}

void NetChannel::post_write(int peer_rank, const RndvStripe& st) {
  post_write_impl(peer(peer_rank), peer_rank, st, /*deferred=*/false);
}

void NetChannel::post_write_batch(int peer_rank, const std::vector<RndvStripe>& sts) {
  Peer& c = peer(peer_rank);
  for (const RndvStripe& st : sts) post_write_impl(c, peer_rank, st, /*deferred=*/true);
  // One doorbell per involved rail, in stripe order (a rail appearing twice
  // still rings once — the whole point of list posting).
  for (const RndvStripe& st : sts) {
    c.rails.at(static_cast<std::size_t>(st.rail)).qp->ring_doorbell();
  }
}

// -------------------------------------------------------- rendezvous reads

void NetChannel::post_read_impl(Peer& c, int peer_rank, const RndvStripe& st, bool deferred) {
  Rail& r = c.rails.at(static_cast<std::size_t>(st.rail));
  SendCtx* sctx = track_ctx(
      {.kind = SendCtx::Kind::RndvRead, .peer = peer_rank, .rail = st.rail, .stripe = st});
  ib::SendWr wr;
  wr.wr_id = reinterpret_cast<std::uint64_t>(sctx);
  wr.opcode = ib::Opcode::RdmaRead;
  // Read convention (mirrors ibv_send_wr): src/lkey name the LOCAL
  // destination slice, remote_addr/rkey the remote source.
  wr.src = st.src;
  wr.length = static_cast<std::uint32_t>(st.len);
  wr.lkey = st.len > 0 ? st.lkeys[static_cast<std::size_t>(r.hca_index)] : 0;
  wr.remote_addr = st.raddr;
  wr.rkey = st.len > 0 ? st.rkeys.rkey[r.hca_index] : 0;
  if (deferred) {
    r.qp->post_send_deferred(wr);
  } else {
    r.qp->post_send(wr);
  }
}

void NetChannel::post_read(int peer_rank, const RndvStripe& st) {
  post_read_impl(peer(peer_rank), peer_rank, st, /*deferred=*/false);
}

void NetChannel::post_read_batch(int peer_rank, const std::vector<RndvStripe>& sts) {
  Peer& c = peer(peer_rank);
  for (const RndvStripe& st : sts) post_read_impl(c, peer_rank, st, /*deferred=*/true);
  for (const RndvStripe& st : sts) {
    c.rails.at(static_cast<std::size_t>(st.rail)).qp->ring_doorbell();
  }
}

// ---------------------------------------------------- rendezvous write-imm

void NetChannel::post_write_imm(int peer_rank, const RndvStripe& st, std::uint32_t imm) {
  Peer& c = peer(peer_rank);
  // The immediate consumes a receive WQE at the responder, so the post takes
  // an eager credit like any channel-semantics message.  Scan the stripe's
  // VCI slice from its planned rail; with no credit anywhere the post parks
  // until a CQE or a rail recovery returns one.
  const int n = host_.config().rails();
  const int base = (st.rail / n) * n;
  int rail = -1;
  for (int i = 0; i < n; ++i) {
    const int cand = base + (st.rail - base + i) % n;
    const Rail& r = c.rails[static_cast<std::size_t>(cand)];
    if (r.credits > 0 && (!fault_enabled_ || r.up)) {
      rail = cand;
      break;
    }
  }
  if (rail < 0) {
    pending_imm_.push_back({peer_rank, st, imm});
    return;
  }
  Rail& r = c.rails.at(static_cast<std::size_t>(rail));
  --r.credits;  // reserve; returns with this WQE's CQE
  RndvStripe actual = st;
  actual.rail = rail;
  SendCtx* sctx = track_ctx(
      {.kind = SendCtx::Kind::RndvImm, .peer = peer_rank, .rail = rail, .stripe = actual});
  ib::SendWr wr;
  wr.wr_id = reinterpret_cast<std::uint64_t>(sctx);
  wr.opcode = ib::Opcode::RdmaWriteWithImm;
  wr.src = st.src;
  wr.length = static_cast<std::uint32_t>(st.len);
  wr.lkey = st.len > 0 ? st.lkeys[static_cast<std::size_t>(r.hca_index)] : 0;
  wr.remote_addr = st.raddr;
  wr.rkey = st.len > 0 ? st.rkeys.rkey[r.hca_index] : 0;
  wr.imm_data = imm;
  r.qp->post_send(wr);
}

void NetChannel::flush_pending_imm() {
  std::vector<PendingImm> work;
  work.swap(pending_imm_);
  for (const PendingImm& p : work) post_write_imm(p.peer, p.st, p.imm);
}

// ------------------------------------------------------------ send contexts

NetChannel::SendCtx* NetChannel::track_ctx(const SendCtx& ctx) {
  if (free_ctx_.empty()) {
    live_ctx_.push_back(std::make_unique<SendCtx>(ctx));
  } else {
    live_ctx_.push_back(std::move(free_ctx_.back()));
    free_ctx_.pop_back();
    *live_ctx_.back() = ctx;
  }
  SendCtx* p = live_ctx_.back().get();
  p->live_slot = static_cast<int>(live_ctx_.size()) - 1;
  return p;
}

void NetChannel::retire_ctx(SendCtx* ctx) {
  // Swap-remove: the last context takes over the retired one's slot.
  const auto slot = static_cast<std::size_t>(ctx->live_slot);
  free_ctx_.push_back(std::move(live_ctx_[slot]));
  if (slot + 1 != live_ctx_.size()) {
    live_ctx_[slot] = std::move(live_ctx_.back());
    live_ctx_[slot]->live_slot = static_cast<int>(slot);
  }
  live_ctx_.pop_back();
}

// ------------------------------------------------------------ inbound path

void NetChannel::on_send_cqe(const ib::Wc& wc) {
  auto* sctx = reinterpret_cast<SendCtx*>(wc.wr_id);
  sctx->failed = wc.status != ib::WcStatus::Success;
  // Polling and processing a completion costs host CPU, serialized with all
  // other protocol work of this VCI — per-stripe CQEs are a real per-stripe
  // tax ("receipt of multiple acknowledgments", paper §4.3).  The rail index
  // identifies the owning VCI (rails are VCI-major), so each VCI's CQ slice
  // is polled and processed by its own progress server.
  host_.schedule_cpu_vci(sctx->rail / host_.config().rails(), host_.config().cqe_sw,
                         [this, sctx] {
    const bool failed = fault_enabled_ && sctx->failed;
    Peer& c = peer(sctx->peer);
    if (failed) {
      send_errors_.inc();
      mark_rail_down(sctx->peer, sctx->rail);
    }
    switch (sctx->kind) {
      case SendCtx::Kind::Bounce: {
        // The credit always returns (flushed WQEs consumed no receiver slot,
        // and a dropped message's slot survives for the replay).
        ++c.rails.at(static_cast<std::size_t>(sctx->rail)).credits;
        if (failed) {
          // The bounce buffer still holds the wire image: replay it on a
          // live rail rather than recycling it.
          eager_retries_.inc();
          retry_eager(sctx->peer, sctx->rail / host_.config().rails(), sctx->bounce, sctx->bytes,
                      sctx->attempts + 1);
        } else {
          free_bounce_.push_back(sctx->bounce);
        }
        if (fault_enabled_ && !pending_retry_.empty()) flush_pending_retries();
        if (!pending_imm_.empty()) flush_pending_imm();
        flush_pending_ctl(sctx->peer);
        host_.on_eager_resources_freed(sctx->peer);
        host_.progress().notify_all();
        break;
      }
      case SendCtx::Kind::RndvWrite:
        if (failed) {
          host_.on_rndv_write_failed(sctx->peer, sctx->stripe);
        } else {
          host_.on_rndv_write_done(sctx->peer, sctx->stripe.req_id);
        }
        break;
      case SendCtx::Kind::RndvRead:
        if (failed) {
          host_.on_rndv_read_failed(sctx->peer, sctx->stripe);
        } else {
          host_.on_rndv_read_done(sctx->peer, sctx->stripe.req_id);
        }
        break;
      case SendCtx::Kind::RndvImm: {
        // The immediate consumed a receive slot at the responder; its credit
        // returns here like any channel-semantics send, unblocking queued
        // control messages and parked imm posts.
        ++c.rails.at(static_cast<std::size_t>(sctx->rail)).credits;
        if (!pending_imm_.empty()) flush_pending_imm();
        flush_pending_ctl(sctx->peer);
        host_.progress().notify_all();
        if (failed) {
          host_.on_rndv_write_failed(sctx->peer, sctx->stripe);
        } else {
          host_.on_rndv_write_done(sctx->peer, sctx->stripe.req_id);
        }
        break;
      }
    }
    retire_ctx(sctx);
  });
}

void NetChannel::on_recv_cqe(const ib::Wc& wc) {
  // SRQ mode: wr_id names the local HCA's pool.  Per-QP RQ mode: the slot.
  HcaPool* pool = pools_.empty() ? nullptr : &pools_[static_cast<std::size_t>(wc.wr_id)];
  auto* slot = pool != nullptr ? nullptr : reinterpret_cast<RecvSlot*>(wc.wr_id);
  if (wc.status != ib::WcStatus::Success) {
    // Only a per-QP RQ flushes: an SRQ's WQEs outlive a dying QP.  The flushed
    // slot holds no message; park it on its rail until the rail recovers.
    recv_flushes_.inc();
    auto it = qp_rail_.find(wc.qp_num);
    if (slot == nullptr || it == qp_rail_.end()) {
      throw std::logic_error("NetChannel: flush CQE from unknown QP");
    }
    const auto [peer_rank, rail] = it->second;
    peer(peer_rank).rails.at(static_cast<std::size_t>(rail)).parked.push_back(slot);
    mark_rail_down(peer_rank, rail);
    return;
  }
  if (wc.has_imm) {
    // Write-with-imm rendezvous completion: the payload landed directly in
    // the matched user buffer, this WQE was only consumed for the immediate
    // — there is no header to parse and no buffer to release.
    host_.on_rndv_imm(wc.imm_data);
  } else {
    const std::byte* data = pool != nullptr ? pool->srq->buffer(wc.buf) : slot->buf.get();
    MsgHeader hdr = read_header(data);
    const std::byte* payload = data + kHeaderBytes;

    switch (hdr.type) {
      case MsgType::Eager:
      case MsgType::Rts: {
        Payload copy;
        if (hdr.type == MsgType::Eager) {
          copy = Payload::copy(payload, hdr.size);
        } else if (hdr.proto == static_cast<std::uint8_t>(RndvProto::ReadRts)) {
          // A ReadRts RTS carries the sender-side rkeys; thread them through
          // the matcher so accept() can post the reads.
          copy = Payload::copy(payload, sizeof(CtsRkeys));
        }
        host_.ingress(hdr.src_rank, hdr, std::move(copy));
        break;
      }
      case MsgType::Cts: {
        CtsRkeys rkeys;
        std::memcpy(&rkeys, payload, sizeof(rkeys));
        host_.on_ctl(hdr, rkeys);
        break;
      }
      case MsgType::Fin:
      case MsgType::Done: {
        host_.on_ctl(hdr, CtsRkeys{});
        break;
      }
    }
  }

  if (pool == nullptr) {
    // Recycle the receive slot immediately (MVAPICH reposts vbufs eagerly;
    // the sender's credit only returns with its CQE, which is always later).
    post_slot(*slot);
    return;
  }
  // The message is read: its buffer goes back before any WQE is reposted.
  if (wc.buf != ib::kNoBuf) pool->srq->release(wc.buf);
  if (host_.config().srq_limit > 0) {
    // Drained pooled WQE: hold it for the batched low-watermark repost
    // (verbs srq_limit) instead of reposting per CQE.
    ++pool->drained;
    if (pool->want_replenish) try_replenish(static_cast<int>(wc.wr_id));
    return;
  }
  pool->srq->post();
}

void NetChannel::on_srq_limit(int hca_index) {
  pools_.at(static_cast<std::size_t>(hca_index)).want_replenish = true;
  try_replenish(hca_index);
}

void NetChannel::try_replenish(int hca_index) {
  HcaPool& pool = pools_.at(static_cast<std::size_t>(hca_index));
  if (!pool.want_replenish || pool.drained == 0) return;
  pool.want_replenish = false;
  const int batch = std::exchange(pool.drained, 0);
  for (int i = 0; i < batch; ++i) pool.srq->post();
  srq_replenishes_.inc();
  const int limit = host_.config().srq_limit;
  pool.srq->arm_limit(limit);
  // Stay hungry if the batch could not refill past the watermark — the next
  // drained CQE must repost without waiting for a limit event that may never
  // fire (no pops happen while every remaining message sits stalled).
  if (pool.srq->pending() < static_cast<std::size_t>(limit)) pool.want_replenish = true;
}

// ---------------------------------------------------------------- failover

namespace {
/// Bound on consecutive still-down recovery probes; a link that flaps for
/// longer than polls × rail_recovery is treated as permanently dead.
constexpr int kMaxRecoveryPolls = 1000;
}  // namespace

void NetChannel::mark_rail_down(int peer_rank, int rail) {
  Rail& r = peer(peer_rank).rails.at(static_cast<std::size_t>(rail));
  if (r.up) {
    r.up = false;
    rail_down_.inc();
  }
  schedule_recovery(peer_rank, rail);
}

void NetChannel::schedule_recovery(int peer_rank, int rail) {
  Rail& r = peer(peer_rank).rails.at(static_cast<std::size_t>(rail));
  if (r.recovery_scheduled) return;
  r.recovery_scheduled = true;
  sim::Simulator& sim = host_.simulator();
  sim.at(sim.now() + host_.config().fault.rail_recovery,
         [this, peer_rank, rail] { try_recover_rail(peer_rank, rail); });
}

void NetChannel::try_recover_rail(int peer_rank, int rail) {
  Rail& r = peer(peer_rank).rails.at(static_cast<std::size_t>(rail));
  r.recovery_scheduled = false;
  if (r.qp->state() != ib::QpState::Ready) {
    // Link still down (the FaultPlan resets the QP pair when it comes back).
    if (++r.recovery_polls <= kMaxRecoveryPolls) schedule_recovery(peer_rank, rail);
    return;
  }
  r.recovery_polls = 0;
  if (r.up) return;
  r.up = true;
  rail_recovered_.inc();
  for (RecvSlot* slot : r.parked) post_slot(*slot);
  r.parked.clear();
  // Messages that stalled on a dry pool while this QP was in error are
  // parked inside the SRQ; the recovered QP will not see another post unless
  // someone kicks the stall queue.
  for (HcaPool& pool : pools_) pool.srq->kick();
  flush_pending_retries();
  if (!pending_imm_.empty()) flush_pending_imm();
  flush_pending_ctl(peer_rank);
  host_.on_eager_resources_freed(peer_rank);
  host_.progress().notify_all();
}

void NetChannel::retry_eager(int peer_rank, int vci, int bounce, std::int64_t wire_bytes,
                             int attempts) {
  if (attempts > host_.config().fault.eager_retry_limit) {
    throw std::runtime_error("NetChannel: eager retry limit exceeded to rank " +
                             std::to_string(peer_rank));
  }
  Peer& c = peer(peer_rank);
  const int n = host_.config().rails();
  const int base = vci * n;
  const int start = c.lanes[static_cast<std::size_t>(vci)].cursor.next;
  int rail = -1;
  for (int i = 0; i < n; ++i) {
    const int cand = base + (start + i) % n;
    const Rail& r = c.rails[static_cast<std::size_t>(cand)];
    if (r.up && r.credits > 0) {
      rail = cand;
      break;
    }
  }
  if (rail < 0) {
    // No live rail with credit: park until one recovers or a credit returns.
    pending_retry_.push_back({peer_rank, vci, bounce, wire_bytes, attempts});
    return;
  }
  --c.rails.at(static_cast<std::size_t>(rail)).credits;
  post_bounce_raw(c, peer_rank, rail, bounce, wire_bytes, attempts);
}

void NetChannel::flush_pending_retries() {
  std::vector<PendingRetry> work;
  work.swap(pending_retry_);
  for (const PendingRetry& p : work) retry_eager(p.peer, p.vci, p.bounce, p.bytes, p.attempts);
}

void NetChannel::post_bounce_raw(Peer& c, int peer_rank, int rail, int bounce,
                                 std::int64_t wire_bytes, int attempts) {
  Rail& r = c.rails.at(static_cast<std::size_t>(rail));
  SendCtx* ctx = track_ctx({.kind = SendCtx::Kind::Bounce, .peer = peer_rank, .rail = rail,
                            .bounce = bounce, .bytes = wire_bytes, .attempts = attempts});
  r.qp->post_send({.wr_id = reinterpret_cast<std::uint64_t>(ctx),
                   .opcode = ib::Opcode::Send,
                   .src = bounce_data(bounce),
                   .length = static_cast<std::uint32_t>(wire_bytes),
                   .lkey = bounce_lkey_[r.hca_index]});
}

}  // namespace ib12x::mvx
