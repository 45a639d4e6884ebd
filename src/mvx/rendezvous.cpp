#include "mvx/rendezvous.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mvx/endpoint.hpp"
#include "mvx/matcher.hpp"
#include "mvx/net_channel.hpp"
#include "sim/log.hpp"

namespace ib12x::mvx {

namespace {

/// Stripe-write req_ids carry the chunk index in the top 16 bits so the
/// completion path can retire chunks individually; chunk 0's writes carry
/// the bare cookie (cookies are sequential and never reach 2^48).
constexpr std::uint64_t kCookieMask = (std::uint64_t{1} << 48) - 1;

std::uint64_t chunk_req_id(std::uint64_t cookie, std::uint32_t chunk) {
  return cookie | (static_cast<std::uint64_t>(chunk) << 48);
}

/// Bytes per CTS chunk: rndv_pipeline_chunk, or the whole message for 0.
std::int64_t chunk_bytes(const Config& cfg, std::int64_t total) {
  return cfg.rndv_pipeline_chunk > 0 ? cfg.rndv_pipeline_chunk : total;
}

std::uint32_t chunk_count(const Config& cfg, std::int64_t total) {
  if (total <= 0) return 1;  // zero-byte rendezvous still needs one CTS
  const std::int64_t c = chunk_bytes(cfg, total);
  return static_cast<std::uint32_t>((total + c - 1) / c);
}

/// WriteImm's 32-bit immediate: (vci << 28) | receiver cookie.
constexpr std::uint32_t kImmCookieMask = (std::uint32_t{1} << 28) - 1;

std::uint32_t imm_word(int vci, std::uint64_t receiver_cookie) {
  if (receiver_cookie > kImmCookieMask) {
    throw std::logic_error("Rendezvous: receiver cookie exceeds imm capacity");
  }
  return (static_cast<std::uint32_t>(vci) << 28) | static_cast<std::uint32_t>(receiver_cookie);
}

int imm_vci(std::uint32_t imm) { return static_cast<int>(imm >> 28); }

}  // namespace

Rendezvous::Rendezvous(Endpoint& ep, NetChannel& net)
    : ep_(ep),
      net_(net),
      rts_sent_(ep.telemetry().counter("rndv.rts_sent")),
      bytes_sent_(ep.telemetry().counter("rndv.bytes_sent")),
      stripes_posted_(ep.telemetry().counter("rndv.stripes_posted")),
      reg_hits_(ep.telemetry().counter("rndv.reg_cache_hits")),
      reg_misses_(ep.telemetry().counter("rndv.reg_cache_misses")),
      cts_chunks_(ep.telemetry().counter("rndv.cts_chunks")),
      pipeline_depth_(ep.telemetry().counter("rndv.pipeline_depth")),
      dup_ctl_dropped_(ep.telemetry().counter("rndv.dup_ctl_dropped")),
      restriped_(ep.telemetry().counter("fault.rndv_restriped")),
      read_stripes_(ep.telemetry().counter("rndv.read_stripes")),
      imm_sent_(ep.telemetry().counter("rndv.imm_sent")),
      imm_folded_(ep.telemetry().counter("rndv.imm_folded")),
      done_sent_(ep.telemetry().counter("rndv.done_sent")) {
  const Config& cfg = ep.config();
  PinCache::Options opts;
  opts.hit_cpu = cfg.reg_cache_hit;
  opts.miss_cpu = cfg.reg_cache_miss;
  opts.page_cpu = cfg.reg_page_cpu;
  pin_cache_ = std::make_unique<PinCache>(net.hcas(), opts, reg_hits_, reg_misses_);
}

Rendezvous::~Rendezvous() = default;

// ----------------------------------------------------------------- cookies

std::uint64_t Rendezvous::new_cookie(const Request& req) {
  std::uint64_t id = next_cookie_++;
  outstanding_[id] = req;
  return id;
}

Request Rendezvous::take_cookie(std::uint64_t id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    throw std::logic_error("Rendezvous: unknown request cookie " + std::to_string(id));
  }
  Request r = it->second;
  outstanding_.erase(it);
  return r;
}

Request Rendezvous::peek_cookie(std::uint64_t id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    throw std::logic_error("Rendezvous: unknown request cookie " + std::to_string(id));
  }
  return it->second;
}

// ---------------------------------------------------------- send state

sim::Time Rendezvous::prepare_read_rts(MsgHeader& hdr, const Request& req, std::int64_t bytes,
                                       SendState& ss, CtsRkeys& rkeys) {
  // The RTS itself carries everything the receiver needs to pull: the pinned
  // source address (raddr) and the per-HCA rkeys (payload).
  sim::Time cost = 0;
  if (bytes > 0) {
    PinCache::Region* reg = pin_cache_->acquire(req->send_buf, bytes, &cost);
    ss.pins.push_back(reg);
    for (std::size_t h = 0; h < net_.hcas().size(); ++h) rkeys.rkey[h] = reg->mr[h].rkey;
    hdr.raddr = reinterpret_cast<std::uint64_t>(req->send_buf);
  }
  return cost;
}

Rendezvous::SendState& Rendezvous::send_state(std::uint64_t cookie) {
  auto it = sends_.find(cookie);
  if (it == sends_.end()) {
    throw std::logic_error("Rendezvous: no send state for cookie " + std::to_string(cookie));
  }
  return it->second;
}

void Rendezvous::end_send(std::uint64_t cookie) {
  for (PinCache::Region* r : send_state(cookie).pins) pin_cache_->release(r);
  sends_.erase(cookie);
}

void Rendezvous::end_recv(std::uint64_t rcookie) {
  for (PinCache::Region* r : recvs_.at(rcookie).pins) pin_cache_->release(r);
  recvs_.erase(rcookie);
}

// ---------------------------------------------------------------- protocol

int Rendezvous::rts_rail(int peer, CommKind kind, int vci) {
  const Config& cfg = ep_.config();
  // Control messages go where the VCI's data cursor points, read through a
  // copy so they never advance it; the data schedule is decided at CTS time
  // by the marker-driven policy.
  RailCursor copy = net_.cursor(peer, vci);
  const Schedule s =
      choose_schedule(Policy::RoundRobin, kind, 0, net_.nrails(peer), cfg.stripe_threshold, copy);
  return vci * net_.nrails(peer) + s.rail;
}

sim::Time Rendezvous::open_send(int peer, CommKind kind, std::int64_t bytes, int tag, int ctx,
                                const Request& req, MsgHeader& hdr, CtsRkeys& rkeys) {
  const Config& cfg = ep_.config();
  const int vci = req->vci;
  hdr.type = MsgType::Rts;
  hdr.kind = static_cast<std::uint8_t>(kind);
  hdr.vci = static_cast<std::uint8_t>(vci);
  hdr.src_rank = ep_.rank();
  hdr.tag = tag;
  hdr.ctx = ctx;
  hdr.seq = ep_.matcher().next_send_seq(peer, ctx, vci);
  hdr.size = static_cast<std::uint64_t>(bytes);
  hdr.sender_cookie = new_cookie(req);
  SendState& ss = sends_[hdr.sender_cookie];
  hdr.proto = static_cast<std::uint8_t>(cfg.rndv.protocol);
  if (cfg.rndv.protocol == Config::RndvConfig::Protocol::ReadRts) {
    return prepare_read_rts(hdr, req, bytes, ss, rkeys);
  }
  ss.chunk_writes.assign(chunk_count(cfg, bytes), -1);
  return 0;
}

void Rendezvous::send_rts(int peer, CommKind kind, const void* /*buf*/, std::int64_t bytes,
                          int tag, int ctx, const Request& req) {
  const int rail = rts_rail(peer, kind, req->vci);
  MsgHeader hdr;
  CtsRkeys rkeys;
  const sim::Time pin_cost = open_send(peer, kind, bytes, tag, ctx, req, hdr, rkeys);
  if (pin_cost > 0) ep_.process().compute(pin_cost);
  net_.send_ctl_blocking(peer, rail, hdr,
                         hdr.proto == static_cast<std::uint8_t>(RndvProto::ReadRts) ? &rkeys
                                                                                     : nullptr);
  rts_sent_.inc();
  bytes_sent_.add(static_cast<std::uint64_t>(bytes));
}

bool Rendezvous::try_send_rts(int peer, CommKind kind, const void* /*buf*/, std::int64_t bytes,
                              int tag, int ctx, const Request& req) {
  const int vci = req->vci;
  const int rail = net_.probe_ctl_rail(peer, rts_rail(peer, kind, vci));
  if (rail < 0) return false;

  MsgHeader hdr;
  CtsRkeys rkeys;
  // Event context: a ReadRts pin cost can't be charged inline, so it
  // occupies the VCI's CPU server ahead of the post event post_ctl_evt
  // schedules.
  const sim::Time pin_cost = open_send(peer, kind, bytes, tag, ctx, req, hdr, rkeys);
  if (pin_cost > 0) ep_.schedule_cpu_vci(vci, pin_cost, [] {});
  net_.post_ctl_evt(peer, rail, hdr,
                    hdr.proto == static_cast<std::uint8_t>(RndvProto::ReadRts) ? &rkeys : nullptr);
  rts_sent_.inc();
  bytes_sent_.add(static_cast<std::uint64_t>(bytes));
  return true;
}

void Rendezvous::accept(const MsgHeader& rts, const Request& req, const CtsRkeys& read_rkeys) {
  req->status = {rts.src_rank, rts.tag, static_cast<std::int64_t>(rts.size)};
  req->peer = rts.src_rank;

  const Config& cfg = ep_.config();
  const int peer = rts.src_rank;
  const std::int64_t total = static_cast<std::int64_t>(rts.size);

  if (rts.proto == static_cast<std::uint8_t>(RndvProto::ReadRts)) {
    // The sender chose the read protocol: its rkeys ride in the RTS payload
    // and the receiver pulls.  WriteRtsCts and WriteImm are receiver-
    // identical (pin + CTS); the imm-vs-FIN difference only shows at
    // completion time.
    accept_read(rts, req, read_rkeys);
    return;
  }

  // Pin the target buffer chunk by chunk, streaming one CTS as each chunk's
  // registration completes (a single chunk by default: one registration,
  // one CTS).  The schedule_cpu_vci calls serialize on this VCI's progress
  // server, so CTS k departs after the cumulative registration cost of
  // chunks 0..k — the sender's first write overlaps the pinning of
  // everything after chunk 0.
  const std::uint64_t rcookie = new_cookie(req);
  RecvState& rs = recvs_[rcookie];
  const std::int64_t csz = chunk_bytes(cfg, total);
  const std::uint32_t nchunks = chunk_count(cfg, total);
  const std::uint64_t base = reinterpret_cast<std::uint64_t>(req->recv_buf);
  for (std::uint32_t i = 0; i < nchunks; ++i) {
    const std::int64_t off = static_cast<std::int64_t>(i) * csz;
    const std::int64_t len = total > 0 ? std::min<std::int64_t>(csz, total - off) : 0;
    sim::Time cost = (i == 0 ? cfg.ctl_cpu : 0) + cfg.post_cpu();
    CtsRkeys rkeys;
    if (len > 0) {
      PinCache::Region* reg = pin_cache_->acquire(
          reinterpret_cast<const void*>(base + static_cast<std::uint64_t>(off)), len, &cost);
      rs.pins.push_back(reg);
      for (std::size_t h = 0; h < net_.hcas().size(); ++h) rkeys.rkey[h] = reg->mr[h].rkey;
    }

    MsgHeader cts;
    cts.type = MsgType::Cts;
    cts.vci = rts.vci;  // the reply stays on the message's VCI
    cts.src_rank = ep_.rank();
    cts.ctx = rts.ctx;
    cts.size = static_cast<std::uint64_t>(len);
    cts.sender_cookie = rts.sender_cookie;
    cts.receiver_cookie = rcookie;
    cts.raddr = base + static_cast<std::uint64_t>(off);
    cts.chunk = i;
    const std::uint32_t slot = parked_cts_.put({cts, rkeys});
    ep_.schedule_cpu_vci(rts.vci, cost, [this, peer, slot] {
      const ParkedCts p = parked_cts_.take(slot);
      net_.send_ctl(peer, p.hdr, p.rkeys);
    });
  }
}

// ---------------------------------------------------------- read rendezvous

void Rendezvous::accept_read(const MsgHeader& rts, const Request& req, const CtsRkeys& rkeys) {
  const Config& cfg = ep_.config();
  const int peer = rts.src_rank;
  const int vci = rts.vci;
  const std::int64_t total = static_cast<std::int64_t>(rts.size);
  const std::uint64_t rcookie = new_cookie(req);
  RecvState& rs = recvs_[rcookie];
  rs.sender_cookie = rts.sender_cookie;
  rs.peer = peer;
  rs.vci = vci;

  sim::Time cost = cfg.ctl_cpu;
  if (total <= 0) {
    // Zero-byte rendezvous: nothing to pull, straight to Done.
    ep_.schedule_cpu_vci(vci, cost, [this, rcookie] { finish_read(rcookie); });
    return;
  }

  PinCache::Region* reg = pin_cache_->acquire(req->recv_buf, total, &cost);
  rs.pins.push_back(reg);
  std::array<ib::LKey, kMaxHcas> lkeys{};
  for (int h = 0; h < kMaxHcas; ++h) lkeys[static_cast<std::size_t>(h)] = reg->mr[h].lkey;

  // The pull is cut in equal stripes over the candidate rails.
  std::vector<Stripe> stripes = mvx::plan_stripes(total, 0, candidate_rails(peer, vci),
                                                  cfg.min_stripe, net_.cursor(peer, vci));
  if (stripes.empty()) stripes.push_back({vci * net_.nrails(peer), 0, total});
  rs.pending = static_cast<int>(stripes.size());
  read_stripes_.add(stripes.size());

  // Reads ignore rndv_pipeline_chunk: the pull is one doorbell-batched
  // shot (sender-side pinning already happened before the RTS, so there is
  // no registration pipeline to overlap with).
  cost += cfg.wqe_build_cpu * static_cast<std::int64_t>(stripes.size()) + cfg.doorbell_cpu;

  const std::uint64_t base_raddr = rts.raddr;
  std::vector<RndvStripe> batch;
  batch.reserve(stripes.size());
  for (const Stripe& st : stripes) {
    RndvStripe wr;
    wr.rail = st.rail;
    // Read convention: src names the *local destination* slice, raddr/rkeys
    // the remote source (the sender's pinned buffer).
    wr.src = static_cast<const std::byte*>(req->recv_buf) + st.offset;
    wr.len = st.len;
    wr.raddr = base_raddr + static_cast<std::uint64_t>(st.offset);
    wr.req_id = rcookie;
    wr.lkeys = lkeys;
    wr.rkeys = rkeys;
    batch.push_back(wr);
  }
  ep_.schedule_cpu_vci(vci, cost, [this, peer, batch = std::move(batch)] {
    net_.post_read_batch(peer, batch);
  });
}

void Rendezvous::finish_read(std::uint64_t rcookie) {
  auto it = recvs_.find(rcookie);
  if (it == recvs_.end()) {
    throw std::logic_error("Rendezvous: finish_read for unknown cookie " +
                           std::to_string(rcookie));
  }
  const RecvState rp = std::move(it->second);
  recvs_.erase(it);
  for (PinCache::Region* r : rp.pins) pin_cache_->release(r);
  Request req = take_cookie(rcookie);
  IB12X_DEBUG(ep_.simulator().now(), "rank%d: read rendezvous %llu complete", ep_.rank(),
              (unsigned long long)rcookie);

  MsgHeader done;
  done.type = MsgType::Done;
  done.vci = static_cast<std::uint8_t>(rp.vci);
  done.src_rank = ep_.rank();
  done.sender_cookie = rp.sender_cookie;
  net_.send_ctl(rp.peer, done, CtsRkeys{});
  done_sent_.inc();
  ep_.complete_request(req);
}

void Rendezvous::on_read_done(int /*peer*/, std::uint64_t req_id) {
  auto it = recvs_.find(req_id);
  if (it == recvs_.end()) {
    // Reads are idempotent and only ever retried after an *error* CQE, so a
    // success completion for an unknown cookie is a protocol bug, not a dup.
    throw std::logic_error("Rendezvous: read CQE for unknown cookie " + std::to_string(req_id));
  }
  if (--it->second.pending == 0) finish_read(req_id);
}

void Rendezvous::on_read_failed(int peer, const RndvStripe& st) {
  restriped_.inc();
  RndvStripe retry = st;
  ++retry.attempts;
  if (retry.attempts > ep_.config().fault.stripe_retry_limit) {
    throw std::runtime_error("Rendezvous: read retry limit exceeded to rank " +
                             std::to_string(peer));
  }
  repost_read(peer, retry);
}

void Rendezvous::repost_read(int peer, const RndvStripe& st) {
  const Config& cfg = ep_.config();
  const int vci = st.rail / net_.nrails(peer);
  std::vector<int> live = net_.live_rails(peer, vci);
  if (live.empty()) {
    RndvStripe retry = st;
    ++retry.attempts;
    if (retry.attempts > cfg.fault.stripe_retry_limit) {
      throw std::runtime_error("Rendezvous: no rail recovered within the read retry budget");
    }
    sim::Simulator& sim = ep_.simulator();
    sim.at(sim.now() + cfg.fault.rail_recovery,
           sim::boxed([this, peer, retry] { repost_read(peer, retry); }));
    return;
  }

  std::vector<Stripe> parts =
      mvx::plan_stripes(st.len, 0, live, cfg.min_stripe, net_.cursor(peer, vci));
  if (parts.empty()) parts.push_back({live.front(), 0, st.len});

  // Same in-flight accounting rule as write failover: the failed read was
  // counted once; k replacement pulls add k-1.
  recvs_.at(st.req_id).pending += static_cast<int>(parts.size()) - 1;
  read_stripes_.add(parts.size());

  std::vector<RndvStripe> batch;
  batch.reserve(parts.size());
  for (const Stripe& p : parts) {
    RndvStripe wr = st;  // inherits req_id, lkeys, rkeys, attempts
    wr.rail = p.rail;
    wr.src = st.src + p.offset;
    wr.len = p.len;
    wr.raddr = st.raddr + static_cast<std::uint64_t>(p.offset);
    batch.push_back(wr);
  }
  ep_.schedule_cpu_vci(
      vci, cfg.wqe_build_cpu * static_cast<std::int64_t>(batch.size()) + cfg.doorbell_cpu,
      [this, peer, batch = std::move(batch)] { net_.post_read_batch(peer, batch); });
}

void Rendezvous::on_ctl(const MsgHeader& hdr, const CtsRkeys& rkeys) {
  if (hdr.type == MsgType::Cts) {
    // CTS handling consumes host CPU before the stripes are posted.
    const std::uint32_t slot = parked_cts_.put({hdr, rkeys});
    ep_.schedule_cpu_vci(hdr.vci, ep_.config().ctl_cpu, [this, slot] {
      const ParkedCts cts = parked_cts_.take(slot);
      on_cts(cts.hdr, cts.rkeys);
    });
  } else if (hdr.type == MsgType::Done) {
    on_done(hdr);
  } else {  // Fin
    on_fin(hdr);
  }
}

void Rendezvous::on_cts(const MsgHeader& hdr, const CtsRkeys& rkeys) {
  auto it = outstanding_.find(hdr.sender_cookie);
  if (it == outstanding_.end()) {
    if (net_.fault_enabled()) {
      // A replayed CTS (its first copy did arrive; the sender's CQE errored)
      // for a send that has since completed.
      dup_ctl_dropped_.inc();
      return;
    }
    throw std::logic_error("Rendezvous: unknown request cookie " +
                           std::to_string(hdr.sender_cookie));
  }
  Request req = it->second;
  IB12X_DEBUG(ep_.simulator().now(), "rank%d: CTS for cookie %llu size %llu chunk %u",
              ep_.rank(), (unsigned long long)hdr.sender_cookie, (unsigned long long)hdr.size,
              (unsigned)hdr.chunk);
  req->peer_cookie = hdr.receiver_cookie;
  start_chunk_writes(req->peer, req, send_state(hdr.sender_cookie), hdr, rkeys);
}

std::vector<int> Rendezvous::candidate_rails(int peer, int vci) {
  std::vector<int> rails;
  if (net_.fault_enabled()) rails = net_.live_rails(peer, vci);
  if (rails.empty()) {
    rails.resize(static_cast<std::size_t>(net_.nrails(peer)));
    std::iota(rails.begin(), rails.end(), vci * net_.nrails(peer));
  }
  return rails;
}

std::vector<Stripe> Rendezvous::plan_stripes(int peer, const Request& req,
                                             std::int64_t base_off, std::int64_t bytes) {
  const Config& cfg = ep_.config();
  const int vci = req->vci;
  const std::vector<int> rails = candidate_rails(peer, vci);
  const int n = static_cast<int>(rails.size());

  if (req->lane >= 0) {
    // Multi-lane collective transfer: one un-striped write on the lane's
    // rail, bypassing the policy and leaving its cursor undisturbed (the
    // lanes themselves are the striping).
    return {{rails[static_cast<std::size_t>(req->lane % n)], base_off, bytes}};
  }

  Schedule s = choose_schedule(cfg.policy, static_cast<CommKind>(req->kind), bytes, n,
                               cfg.stripe_threshold, net_.cursor(peer, vci));
  if (s.stripe && bytes > 0) {
    // Equal stripes over the candidate rails, never cut below min_stripe.
    // The split math lives in mvx::plan_stripes so the failover re-plan and
    // the property tests exercise the same code.
    return mvx::plan_stripes(bytes, base_off, rails, cfg.min_stripe, net_.cursor(peer, vci));
  }
  return {{rails[static_cast<std::size_t>(s.rail % n)], base_off, bytes}};
}

void Rendezvous::start_chunk_writes(int peer, const Request& req, SendState& ss,
                                    const MsgHeader& cts, const CtsRkeys& rkeys) {
  const Config& cfg = ep_.config();
  int& in_flight = ss.chunk_writes.at(cts.chunk);
  if (in_flight >= 0) {
    dup_ctl_dropped_.inc();  // replayed CTS for a chunk already in progress
    return;
  }
  cts_chunks_.inc();

  const std::int64_t off =
      static_cast<std::int64_t>(cts.chunk) * chunk_bytes(cfg, req->bytes);
  const std::int64_t len = static_cast<std::int64_t>(cts.size);

  // Pin the sender-side chunk (overlapped with the receiver pinning later
  // chunks).
  sim::Time cost = cfg.ctl_cpu;
  std::array<ib::LKey, kMaxHcas> lkeys{};
  if (len > 0) {
    PinCache::Region* reg = pin_cache_->acquire(
        static_cast<const std::byte*>(req->send_buf) + off, len, &cost);
    ss.pins.push_back(reg);
    for (int h = 0; h < kMaxHcas; ++h) lkeys[static_cast<std::size_t>(h)] = reg->mr[h].lkey;
  }

  const std::vector<Stripe> stripes = plan_stripes(peer, req, off, len);
  in_flight = static_cast<int>(stripes.size());
  ++ss.chunks_started;
  pipeline_depth_.track_max(ss.chunks_started - ss.chunks_landed);
  stripes_posted_.add(stripes.size());

  // WriteImm: a message that is one chunk of one stripe folds the immediate
  // into that data write (true three-step rendezvous); any other message
  // moves as plain writes followed by a zero-byte trailing imm.
  bool fold = false;
  if (cfg.rndv.protocol == Config::RndvConfig::Protocol::WriteImm && !ss.imm_armed) {
    ss.imm_armed = true;
    ss.imm = imm_word(req->vci, cts.receiver_cookie);
    fold = ss.chunk_writes.size() == 1 && stripes.size() == 1;
    ss.imm_folded = fold;
    ss.imm_posted = fold;
    if (fold) imm_folded_.inc();
  }

  // Descriptor posting is serialized on the VCI's CPU (WQE build + doorbell
  // per stripe: the stripes go to different QPs, each with its own
  // doorbell), queued behind any other protocol work this rank is doing.
  // This is one of the per-stripe costs that make striping lose to
  // round-robin for medium messages (paper §3.2).
  const std::uint64_t req_id = chunk_req_id(cts.sender_cookie, cts.chunk);
  const std::uint64_t msg_raddr = cts.raddr - static_cast<std::uint64_t>(off);
  const std::uint32_t imm = ss.imm;
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    const Stripe& st = stripes[i];
    RndvStripe wr;
    wr.rail = st.rail;
    wr.src = static_cast<const std::byte*>(req->send_buf) + st.offset;
    wr.len = st.len;
    wr.raddr = msg_raddr + static_cast<std::uint64_t>(st.offset);
    wr.req_id = req_id;
    wr.lkeys = lkeys;
    wr.rkeys = rkeys;
    const std::uint32_t slot = parked_stripes_.put(wr);
    ep_.schedule_cpu_vci(req->vci, (i == 0 ? cost : 0) + cfg.post_cpu(),
                         [this, peer, slot, fold, imm] {
      const RndvStripe wr = parked_stripes_.take(slot);
      // The stripe was built when it was scheduled; its send must still be
      // in flight when it is posted.
      (void)peek_cookie(wr.req_id & kCookieMask);
      if (fold) {
        net_.post_write_imm(peer, wr, imm);
      } else {
        net_.post_write(peer, wr);
      }
    });
  }
}

void Rendezvous::finish_send(int peer, std::uint64_t cookie, const Request& req) {
  // All stripes placed remotely (CQE implies remote visibility): tell the
  // receiver and complete the local send.  Under WriteImm the notification
  // already travelled with the immediate, so the FIN is elided.
  const bool elide_fin = send_state(cookie).imm_armed;
  end_send(cookie);
  if (!elide_fin) {
    MsgHeader fin;
    fin.type = MsgType::Fin;
    fin.vci = static_cast<std::uint8_t>(req->vci);
    fin.src_rank = ep_.rank();
    fin.receiver_cookie = req->peer_cookie;
    net_.send_ctl(peer, fin, CtsRkeys{});
  }
  outstanding_.erase(cookie);
  ep_.complete_request(req);
}

void Rendezvous::post_trailing_imm(int peer, std::uint64_t cookie, std::uint32_t imm) {
  // Zero-byte write-with-imm: consumes a receiver slot but carries no data;
  // post_write_imm scans the VCI slice for a live rail with a credit.
  const int vci = imm_vci(imm);
  imm_sent_.inc();
  ep_.schedule_cpu_vci(vci, ep_.config().post_cpu(), [this, peer, vci, cookie, imm] {
    RndvStripe wr;
    wr.rail = vci * net_.nrails(peer);
    wr.len = 0;
    wr.req_id = cookie;
    net_.post_write_imm(peer, wr, imm);
  });
}

void Rendezvous::on_write_done(int peer, std::uint64_t req_id) {
  const std::uint64_t cookie = req_id & kCookieMask;
  SendState& ss = send_state(cookie);
  const std::size_t chunks = ss.chunk_writes.size();
  // Once every chunk has landed the only write left is the trailing imm.
  if (ss.chunks_landed < chunks) {
    int& in_flight = ss.chunk_writes.at(req_id >> 48);
    if (in_flight <= 0) throw std::logic_error("Rendezvous: write CQE for an idle chunk");
    if (--in_flight != 0 || ++ss.chunks_landed < chunks) return;
    if (ss.imm_armed && !ss.imm_posted) {
      // WriteImm without a folded imm: all data writes landed, so the FIN
      // replacement (zero-byte trailing imm) goes out now; its CQE re-enters
      // here and finishes.
      ss.imm_posted = true;
      post_trailing_imm(peer, cookie, ss.imm);
      return;
    }
  }
  IB12X_DEBUG(ep_.simulator().now(), "rank%d: send %llu complete (%zu chunks)", ep_.rank(),
              (unsigned long long)cookie, chunks);
  finish_send(peer, cookie, peek_cookie(cookie));
}

void Rendezvous::on_write_failed(int peer, const RndvStripe& st) {
  restriped_.inc();
  RndvStripe retry = st;
  ++retry.attempts;
  if (retry.attempts > ep_.config().fault.stripe_retry_limit) {
    throw std::runtime_error("Rendezvous: stripe retry limit exceeded to rank " +
                             std::to_string(peer));
  }
  const SendState& ss = send_state(st.req_id & kCookieMask);
  if (ss.imm_armed && (ss.imm_folded || st.len == 0)) {
    // A failed imm-carrying write (folded data write, or the zero-byte
    // trailing imm) replays as an imm write: the receiver never saw the
    // immediate, and the data — if any — is idempotent to rewrite.  A dead
    // rail or empty credit pool is absorbed by post_write_imm's own scan
    // and pending queue.
    const Config& cfg = ep_.config();
    const std::uint32_t imm = ss.imm;
    ep_.schedule_cpu_vci(imm_vci(imm), cfg.wqe_build_cpu + cfg.doorbell_cpu,
                         sim::boxed([this, peer, retry, imm] {
                           net_.post_write_imm(peer, retry, imm);
                         }));
    return;
  }
  repost_stripe(peer, retry);
}

void Rendezvous::repost_stripe(int peer, const RndvStripe& st) {
  const Config& cfg = ep_.config();
  const int vci = st.rail / net_.nrails(peer);  // recover the slice from the flat rail
  std::vector<int> live = net_.live_rails(peer, vci);
  if (live.empty()) {
    // Total outage: wait one recovery interval and try again (bounded by the
    // per-stripe attempt budget).
    RndvStripe retry = st;
    ++retry.attempts;
    if (retry.attempts > cfg.fault.stripe_retry_limit) {
      throw std::runtime_error("Rendezvous: no rail recovered within the stripe retry budget");
    }
    sim::Simulator& sim = ep_.simulator();
    sim.at(sim.now() + cfg.fault.rail_recovery,
           sim::boxed([this, peer, retry] { repost_stripe(peer, retry); }));
    return;
  }

  std::vector<Stripe> parts =
      mvx::plan_stripes(st.len, 0, live, cfg.min_stripe, net_.cursor(peer, vci));
  if (parts.empty()) parts.push_back({live.front(), 0, st.len});  // zero-byte stripe

  // The failed stripe was already counted once in the in-flight bookkeeping;
  // splitting it over k live rails adds k-1 writes.  Account them before any
  // completion can retire the chunk.
  send_state(st.req_id & kCookieMask).chunk_writes.at(st.req_id >> 48) +=
      static_cast<int>(parts.size()) - 1;
  stripes_posted_.add(parts.size());

  std::vector<RndvStripe> batch;
  batch.reserve(parts.size());
  for (const Stripe& p : parts) {
    RndvStripe wr = st;  // inherits req_id, lkeys, rkeys, attempts
    wr.rail = p.rail;
    wr.src = st.src + p.offset;
    wr.len = p.len;
    wr.raddr = st.raddr + static_cast<std::uint64_t>(p.offset);
    batch.push_back(wr);
  }
  ep_.schedule_cpu_vci(
      vci, cfg.wqe_build_cpu * static_cast<std::int64_t>(batch.size()) + cfg.doorbell_cpu,
      [this, peer, batch = std::move(batch)] { net_.post_write_batch(peer, batch); });
}

void Rendezvous::on_fin(const MsgHeader& hdr) {
  auto oit = outstanding_.find(hdr.receiver_cookie);
  if (oit == outstanding_.end()) {
    if (net_.fault_enabled()) {
      dup_ctl_dropped_.inc();  // replayed FIN for an already-finished receive
      return;
    }
    throw std::logic_error("Rendezvous: unknown request cookie " +
                           std::to_string(hdr.receiver_cookie));
  }
  Request req = oit->second;
  outstanding_.erase(oit);
  IB12X_DEBUG(ep_.simulator().now(), "rank%d: FIN for cookie %llu", ep_.rank(),
              (unsigned long long)hdr.receiver_cookie);
  end_recv(hdr.receiver_cookie);
  ep_.schedule_cpu_vci(hdr.vci, ep_.config().ctl_cpu,
                       [this, req] { ep_.complete_request(req); });
}

void Rendezvous::on_done(const MsgHeader& hdr) {
  // Sender side of ReadRts: the receiver finished pulling.  Mirrors on_fin,
  // but keyed by the *sender* cookie and releasing the sender-side pin.
  auto oit = outstanding_.find(hdr.sender_cookie);
  if (oit == outstanding_.end()) {
    if (net_.fault_enabled()) {
      dup_ctl_dropped_.inc();  // replayed Done for an already-finished send
      return;
    }
    throw std::logic_error("Rendezvous: unknown request cookie " +
                           std::to_string(hdr.sender_cookie));
  }
  Request req = oit->second;
  outstanding_.erase(oit);
  IB12X_DEBUG(ep_.simulator().now(), "rank%d: Done for cookie %llu", ep_.rank(),
              (unsigned long long)hdr.sender_cookie);
  end_send(hdr.sender_cookie);
  ep_.schedule_cpu_vci(hdr.vci, ep_.config().ctl_cpu,
                       [this, req] { ep_.complete_request(req); });
}

void Rendezvous::on_imm(std::uint32_t imm_data) {
  // WriteImm receiver completion: the FIN is elided, so everything needed to
  // finish — the VCI for CPU routing and the receiver cookie — is decoded
  // from the immediate itself, never from CTS-echoed header fields (which do
  // not exist on this path).  Releasing the pins here is what keeps the
  // PinCache balanced without a FIN.
  const int vci = imm_vci(imm_data);
  const std::uint64_t rcookie = imm_data & kImmCookieMask;
  auto oit = outstanding_.find(rcookie);
  if (oit == outstanding_.end()) {
    if (net_.fault_enabled()) {
      dup_ctl_dropped_.inc();  // replayed imm (its first copy did land)
      return;
    }
    throw std::logic_error("Rendezvous: unknown request cookie " + std::to_string(rcookie));
  }
  Request req = oit->second;
  outstanding_.erase(oit);
  IB12X_DEBUG(ep_.simulator().now(), "rank%d: imm completion for cookie %llu vci %d",
              ep_.rank(), (unsigned long long)rcookie, vci);
  end_recv(rcookie);
  ep_.schedule_cpu_vci(vci, ep_.config().ctl_cpu,
                       [this, req] { ep_.complete_request(req); });
}

}  // namespace ib12x::mvx
