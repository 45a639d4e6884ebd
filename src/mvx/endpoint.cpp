#include "mvx/endpoint.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "mvx/coll/engine.hpp"
#include "mvx/conn_manager.hpp"
#include "mvx/matcher.hpp"
#include "mvx/net_channel.hpp"
#include "mvx/rendezvous.hpp"
#include "mvx/shm_channel.hpp"
#include "mvx/telemetry.hpp"

namespace ib12x::mvx {

namespace {

/// The sender-side rkeys a ReadRts RTS carries as its payload; zeros for the
/// write protocols, whose RTS has none.
CtsRkeys read_rkeys(const Payload& payload) {
  CtsRkeys rkeys;
  if (payload.size() >= sizeof(rkeys)) std::memcpy(&rkeys, payload.data(), sizeof(rkeys));
  return rkeys;
}

}  // namespace

Endpoint::Endpoint(sim::Simulator& sim, int rank, int node, std::vector<ib::Hca*> node_hcas,
                   const Config& cfg, TelemetryRegistry& tel)
    : sim_(sim),
      rank_(rank),
      node_(node),
      cfg_(cfg),
      tel_(tel),
      vci_cpu_(static_cast<std::size_t>(cfg.vci.count)),
      vci_lock_contentions_(tel.counter("vci.lock_contentions")),
      vci_wakeups_(tel.counter("vci.progress_wakeups")) {
  matcher_ = std::make_unique<Matcher>(tel_);
  conn_ = std::make_unique<ConnManager>(*this);
  conn_->set_flush_fn([this](int peer) { flush_queued(peer); });
  net_ = std::make_unique<NetChannel>(*this, std::move(node_hcas));
  shm_ = std::make_unique<ShmChannel>(*this);
  rndv_ = std::make_unique<Rendezvous>(*this, *net_);
  coll_engine_ = std::make_unique<coll::CollEngine>(*this);

  if (cfg_.vci.threads > 1) vci_locked_.assign(static_cast<std::size_t>(cfg_.vci.count), 0);
  for (int v = 0; v < cfg_.vci.count; ++v) {
    vci_sends_.push_back(&tel_.counter("vci.sends.v" + std::to_string(v)));
  }
}

Endpoint::~Endpoint() = default;

void Endpoint::connect_net(Endpoint& a, Endpoint& b) {
  if (a.node_ == b.node_) throw std::logic_error("connect_net: same node — use connect_shm");
  NetChannel::establish(*a.net_, *b.net_);
}

void Endpoint::connect_shm(Endpoint& a, Endpoint& b) {
  if (a.node_ != b.node_) throw std::logic_error("connect_shm: different nodes");
  ShmChannel::connect(*a.shm_, *b.shm_);
}

void Endpoint::schedule_cpu_vci(int vci, sim::Time cost, sim::Event fn) {
  vci_wakeups_.inc();
  auto r = vci_cpu_.at(static_cast<std::size_t>(vci)).reserve(sim_.now(), sim_.now(), cost);
  sim_.at(r.finish, std::move(fn));
}

void Endpoint::register_thread(sim::Process* p, int tid) {
  if (tid >= static_cast<int>(thread_procs_.size())) {
    thread_procs_.resize(static_cast<std::size_t>(tid) + 1, nullptr);
  }
  thread_procs_[static_cast<std::size_t>(tid)] = p;
}

int Endpoint::current_thread() const {
  sim::Process* cur = sim::Process::current();
  if (cur != nullptr) {
    for (std::size_t i = 0; i < thread_procs_.size(); ++i) {
      if (thread_procs_[i] == cur) return static_cast<int>(i);
    }
  }
  return 0;
}

int Endpoint::vci_for(int ctx) const {
  const int n = cfg_.vci.count;
  if (n <= 1) return 0;
  switch (cfg_.vci.mapping) {
    case Config::VciConfig::Mapping::Shared:
      return 0;
    case Config::VciConfig::Mapping::PerComm:
      // Each communicator owns two contexts (pt2pt = base, coll = base + 1);
      // both map to the same VCI so one communicator is one channel.
      return (ctx / 2) % n;
    case Config::VciConfig::Mapping::RoundRobin:
      break;
  }
  return current_thread() % n;
}

void Endpoint::lock_vci(int vci) {
  if (vci_locked_.empty()) return;  // single-threaded rank: no lock modeled
  std::uint8_t& held = vci_locked_.at(static_cast<std::size_t>(vci));
  if (held != 0) {
    vci_lock_contentions_.inc();
    process().wait_until(progress_, [&held] { return held == 0; });
  }
  held = 1;
  process().compute(cfg_.vci.lock_cpu);
}

void Endpoint::unlock_vci(int vci) {
  if (vci_locked_.empty()) return;
  vci_locked_.at(static_cast<std::size_t>(vci)) = 0;
  progress_.notify_all();
}

sim::Time Endpoint::memcpy_time(std::int64_t bytes) const {
  return sim::transfer_time(bytes, cfg_.memcpy_gbps);
}

// --------------------------------------------------------------- public API

Request Endpoint::start_send(CommKind kind, const void* buf, std::int64_t bytes, int dst,
                             int tag, int ctx, int lane) {
  if (bytes < 0) throw std::invalid_argument("start_send: negative size");
  if (dst == rank_) throw std::invalid_argument("start_send: self-sends go through sendrecv_self");
  Request req = new_request();
  req->is_send = true;
  req->send_buf = buf;
  req->bytes = bytes;
  req->peer = dst;
  req->tag = tag;
  req->ctx = ctx;
  req->kind = static_cast<std::uint8_t>(kind);
  req->lane = lane;
  req->vci = vci_for(ctx);
  vci_sends_.at(static_cast<std::size_t>(req->vci))->inc();

  if (cfg_.lazy_connect && (!conn_->ready(dst) || conn_->has_queued(dst))) {
    // First contact (or a flush still in progress, which queued sends must
    // not overtake): start the handshake and park the send.  initiate() is
    // idempotent, so re-queueing behind an in-flight flush costs nothing.
    conn_->initiate(dst);
    conn_->enqueue(dst, QueuedSend{kind, buf, bytes, tag, ctx, req});
    return req;
  }

  // The issue path below is one VCI's critical section: threads sharing a
  // VCI serialize here (lock + serialized doorbells), threads on dedicated
  // VCIs proceed independently.  No-op in single-threaded ranks.
  lock_vci(req->vci);
  // Route to the shm channel when it reaches the peer, else to the net
  // channel, which splits at the rendezvous threshold between the eager
  // protocol and the RTS/CTS/FIN state machine.
  if (shm_->accepts(dst)) {
    shm_->send(dst, kind, buf, bytes, tag, ctx, req);
  } else if (net_->accepts(dst)) {
    if (bytes < cfg_.rndv_threshold) {
      net_->send(dst, kind, buf, bytes, tag, ctx, req);
    } else {
      rndv_->send_rts(dst, kind, buf, bytes, tag, ctx, req);
    }
  } else {
    unlock_vci(req->vci);
    throw std::logic_error("Endpoint " + std::to_string(rank_) + ": no connection to rank " +
                           std::to_string(dst));
  }
  unlock_vci(req->vci);
  return req;
}

Request Endpoint::start_recv(void* buf, std::int64_t capacity, int src, int tag, int ctx) {
  if (capacity < 0) throw std::invalid_argument("start_recv: negative capacity");
  Request req = new_request();
  req->recv_buf = buf;
  req->bytes = capacity;
  req->peer = src;
  req->tag = tag;
  req->ctx = ctx;

  if (cfg_.lazy_connect && src >= 0 && src != rank_) {
    // A directed receive names its sender: start that handshake now so the
    // rails exist by the time the (possibly simultaneous) send needs them.
    // Wildcard receives cannot pre-connect anybody.
    conn_->initiate(src);
  }

  // The receive issue path shares the issuing thread's VCI critical section
  // (the matcher and posted queues are rank-wide structures an MPI library
  // guards in its per-VCI critical sections).  No-op when single-threaded.
  const int issue_vci = vci_for(ctx);
  lock_vci(issue_vci);
  // Unexpected-queue scan first (arrival order).
  if (auto msg = matcher_->claim_unexpected(src, tag, ctx)) {
    const MsgHeader& hdr = msg->hdr;
    if (hdr.type == MsgType::Eager) {
      if (static_cast<std::int64_t>(hdr.size) > capacity) {
        throw std::runtime_error("start_recv: message truncation (unexpected eager)");
      }
      process().compute(cfg_.match_cpu + memcpy_time(static_cast<std::int64_t>(hdr.size)));
      if (hdr.size > 0) std::memcpy(buf, msg->payload.data(), hdr.size);
      req->status = {hdr.src_rank, hdr.tag, static_cast<std::int64_t>(hdr.size)};
      req->done = true;
      req->completed_at = sim_.now();
    } else {  // Rts
      if (static_cast<std::int64_t>(hdr.size) > capacity) {
        throw std::runtime_error("start_recv: message truncation (unexpected rendezvous)");
      }
      process().compute(cfg_.match_cpu);
      rndv_->accept(hdr, req, read_rkeys(msg->payload));
    }
    unlock_vci(issue_vci);
    return req;
  }

  matcher_->post(req, src, tag, ctx);
  unlock_vci(issue_vci);
  return req;
}

void Endpoint::wait(const Request& r) {
  process().wait_until(progress_, [&] { return r->done; });
}

bool Endpoint::iprobe(int src, int tag, int ctx, Status* st) {
  return matcher_->iprobe(src, tag, ctx, st);
}

void Endpoint::probe(int src, int tag, int ctx, Status* st) {
  // The predicate runs in event context while this fiber is suspended, so it
  // must not write the caller's Status; fill it once the fiber runs again.
  process().wait_until(progress_, [&] { return iprobe(src, tag, ctx, nullptr); });
  iprobe(src, tag, ctx, st);
}

// --------------------------------------------------- inbound glue (events)

void Endpoint::ingress(int peer, const MsgHeader& hdr, Payload payload) {
  for (Matcher::Inbound& m : matcher_->sequence(peer, hdr, std::move(payload))) {
    Request req = matcher_->match_posted(m.hdr);
    if (req == nullptr) {
      matcher_->store_unexpected(std::move(m));
      progress_.notify_all();  // wake blocking probes
      continue;
    }
    if (m.hdr.type == MsgType::Eager) {
      if (static_cast<std::int64_t>(m.hdr.size) > req->bytes) {
        throw std::runtime_error("recv: message truncation (eager)");
      }
      complete_recv(req, m.hdr, m.payload.data(),
                    cfg_.match_cpu + memcpy_time(static_cast<std::int64_t>(m.hdr.size)));
    } else {  // Rts
      if (static_cast<std::int64_t>(m.hdr.size) > req->bytes) {
        throw std::runtime_error("recv: message truncation (rendezvous)");
      }
      const std::uint32_t slot = parked_ctl_.put({m.hdr, read_rkeys(m.payload), req});
      schedule_cpu_vci(m.hdr.vci, cfg_.match_cpu, [this, slot] {
        const ParkedCtl rts = parked_ctl_.take(slot);
        rndv_->accept(rts.hdr, rts.req, rts.rkeys);
      });
    }
  }
}

void Endpoint::on_ctl(const MsgHeader& hdr, const CtsRkeys& rkeys) {
  if (hdr.type == MsgType::Cts) {
    // CTS handling consumes host CPU before the stripes are posted.
    const std::uint32_t slot = parked_ctl_.put({hdr, rkeys, nullptr});
    schedule_cpu_vci(hdr.vci, cfg_.ctl_cpu, [this, slot] {
      const ParkedCtl cts = parked_ctl_.take(slot);
      rndv_->on_cts(cts.hdr, cts.rkeys);
    });
  } else if (hdr.type == MsgType::Done) {
    rndv_->on_done(hdr);
  } else {  // Fin
    rndv_->on_fin(hdr);
  }
}

void Endpoint::on_rndv_write_done(int peer, std::uint64_t req_id) {
  rndv_->on_write_done(peer, req_id);
}

void Endpoint::on_rndv_write_failed(int peer, const RndvStripe& st) {
  rndv_->on_write_failed(peer, st);
}

void Endpoint::on_rndv_read_done(int peer, std::uint64_t req_id) {
  rndv_->on_read_done(peer, req_id);
}

void Endpoint::on_rndv_read_failed(int peer, const RndvStripe& st) {
  rndv_->on_read_failed(peer, st);
}

void Endpoint::on_rndv_imm(std::uint32_t imm_data) { rndv_->on_imm(imm_data); }

void Endpoint::flush_queued(int peer) {
  while (conn_->has_queued(peer)) {
    QueuedSend& qs = conn_->front(peer);
    bool sent;
    if (shm_->accepts(peer)) {
      shm_->send_evt(peer, qs.kind, qs.buf, qs.bytes, qs.tag, qs.ctx, qs.req);
      sent = true;
    } else if (qs.bytes < cfg_.rndv_threshold) {
      sent = net_->try_send(peer, qs.kind, qs.buf, qs.bytes, qs.tag, qs.ctx, qs.req);
    } else {
      sent = rndv_->try_send_rts(peer, qs.kind, qs.buf, qs.bytes, qs.tag, qs.ctx, qs.req);
    }
    if (!sent) return;  // resources dry — the freeing CQE re-flushes
    conn_->pop_front(peer);
  }
}

void Endpoint::on_eager_resources_freed(int /*peer*/) {
  if (!cfg_.lazy_connect || conn_->queued_total() == 0) return;
  // The bounce pool and (in SRQ mode) the eager slot arena are shared across
  // peers, so the freed resource can unblock any queued peer — not just the
  // one whose CQE fired.
  for (int p : conn_->queued_peers()) {
    if (conn_->ready(p)) flush_queued(p);
  }
}

void Endpoint::complete_request(const Request& req) {
  req->done = true;
  req->completed_at = sim_.now();
  progress_.notify_all();
}

void Endpoint::complete_recv(const Request& req, const MsgHeader& hdr, const std::byte* payload,
                             sim::Time extra_delay) {
  if (hdr.size > 0) std::memcpy(req->recv_buf, payload, hdr.size);
  req->status = {hdr.src_rank, hdr.tag, static_cast<std::int64_t>(hdr.size)};
  // The copy out of the bounce buffer runs on the message's VCI progress CPU.
  schedule_cpu_vci(hdr.vci, extra_delay, [this, req] { complete_request(req); });
}

}  // namespace ib12x::mvx
