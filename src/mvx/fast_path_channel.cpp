#include "mvx/fast_path_channel.hpp"

#include <cstring>

#include "mvx/matcher.hpp"
#include "mvx/net_channel.hpp"

namespace ib12x::mvx {

FastPathChannel::FastPathChannel(ChannelHost& host, NetChannel& net)
    : Channel(host),
      net_(net),
      sent_(host.telemetry().counter("fastpath.sent")),
      bytes_sent_(host.telemetry().counter("fastpath.bytes_sent")) {}

void FastPathChannel::connect(FastPathChannel& a, FastPathChannel& b) {
  auto setup = [](FastPathChannel& me, FastPathChannel& other) {
    const Config& cfg = me.host_.config();
    if (!cfg.use_rdma_fast_path) return;
    Peer& mine = me.peers_[other.host_.rank()];
    mine.remote = &other;
    mine.slot_bytes = kHeaderBytes + static_cast<std::size_t>(cfg.fast_path_max);
    mine.recv_ring.resize(mine.slot_bytes * static_cast<std::size_t>(cfg.fast_path_slots));
    mine.send_stage.resize(mine.slot_bytes * static_cast<std::size_t>(cfg.fast_path_slots));
    // The ring is written over rail 0, so registration in HCA 0's domain
    // suffices.
    ib::Hca* hca0 = me.net_.hcas().front();
    ib::MemoryRegion rmr = hca0->mem().register_memory(mine.recv_ring.data(),
                                                       mine.recv_ring.size());
    mine.stage_lkey =
        hca0->mem().register_memory(mine.send_stage.data(), mine.send_stage.size()).lkey;
    mine.credits = cfg.fast_path_slots;
    // Tell the other side where to write.
    Peer& theirs = other.peers_[me.host_.rank()];
    theirs.raddr = rmr.addr;
    theirs.rkey = rmr.rkey;
  };
  setup(a, b);
  setup(b, a);
}

bool FastPathChannel::accepts(int peer, std::int64_t bytes) const {
  const Config& cfg = host_.config();
  if (!cfg.use_rdma_fast_path || bytes > cfg.fast_path_max) return false;
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second.credits > 0;
}

void FastPathChannel::send(int peer, CommKind kind, const void* buf, std::int64_t bytes, int tag,
                           int ctx, const Request& req) {
  Peer& c = peers_.at(peer);
  const Config& cfg = host_.config();
  const int slot = c.head;
  c.head = (c.head + 1) % cfg.fast_path_slots;
  --c.credits;

  MsgHeader hdr;
  hdr.type = MsgType::Eager;
  hdr.kind = static_cast<std::uint8_t>(kind);
  hdr.src_rank = host_.rank();
  hdr.tag = tag;
  hdr.ctx = ctx;
  // The fast path is mutually exclusive with VCIs (enforced by World's config
  // validation), so its traffic always rides sequence space 0.
  hdr.seq = host_.matcher().next_send_seq(peer, ctx, 0);
  hdr.size = static_cast<std::uint64_t>(bytes);

  std::byte* stage = c.send_stage.data() + static_cast<std::size_t>(slot) * c.slot_bytes;
  write_header(stage, hdr);
  if (bytes > 0) std::memcpy(stage + kHeaderBytes, buf, static_cast<std::size_t>(bytes));
  host_.process().compute(cfg.post_cpu() +
                          host_.memcpy_time(static_cast<std::int64_t>(kHeaderBytes) + bytes));

  // The receiver's poll loop notices the tail flag one poll period after the
  // data lands.
  FastPathChannel* remote = c.remote;
  const int me = host_.rank();
  sim::Simulator& sim = host_.simulator();
  const sim::Time poll = cfg.poll_delay;
  net_.post_fp_write(peer, stage, static_cast<std::uint32_t>(kHeaderBytes + bytes), c.stage_lkey,
                     c.raddr + static_cast<std::uint64_t>(slot) * c.slot_bytes, c.rkey,
                     [remote, me, slot, &sim, poll] {
                       sim.after(poll, [remote, me, slot] { remote->arrival(me, slot); });
                     });

  sent_.inc();
  bytes_sent_.add(static_cast<std::uint64_t>(bytes));
  req->done = true;  // buffered: the payload is staged
  req->completed_at = sim.now();
}

void FastPathChannel::send_evt(int peer, CommKind kind, const void* buf, std::int64_t bytes,
                               int tag, int ctx, const Request& req) {
  Peer& c = peers_.at(peer);
  const Config& cfg = host_.config();
  const int slot = c.head;
  c.head = (c.head + 1) % cfg.fast_path_slots;
  --c.credits;

  MsgHeader hdr;
  hdr.type = MsgType::Eager;
  hdr.kind = static_cast<std::uint8_t>(kind);
  hdr.src_rank = host_.rank();
  hdr.tag = tag;
  hdr.ctx = ctx;
  // Claimed at dispatch so a flushed queue keeps MPI ordering (see
  // NetChannel::try_send).  Fast path is VCI-exclusive: sequence space 0.
  hdr.seq = host_.matcher().next_send_seq(peer, ctx, 0);
  hdr.size = static_cast<std::uint64_t>(bytes);

  std::byte* stage = c.send_stage.data() + static_cast<std::size_t>(slot) * c.slot_bytes;
  write_header(stage, hdr);
  if (bytes > 0) std::memcpy(stage + kHeaderBytes, buf, static_cast<std::size_t>(bytes));

  // The fast path excludes VCIs, so its protocol work runs on VCI 0's server.
  host_.schedule_cpu_vci(
      0, cfg.post_cpu() + host_.memcpy_time(static_cast<std::int64_t>(kHeaderBytes) + bytes),
      [this, peer, slot, stage, bytes, req] {
        Peer& cc = peers_.at(peer);
        FastPathChannel* remote = cc.remote;
        const int me = host_.rank();
        sim::Simulator& sim = host_.simulator();
        const sim::Time poll = host_.config().poll_delay;
        net_.post_fp_write(peer, stage, static_cast<std::uint32_t>(kHeaderBytes + bytes),
                           cc.stage_lkey,
                           cc.raddr + static_cast<std::uint64_t>(slot) * cc.slot_bytes, cc.rkey,
                           [remote, me, slot, &sim, poll] {
                             sim.after(poll, [remote, me, slot] { remote->arrival(me, slot); });
                           });
        sent_.inc();
        bytes_sent_.add(static_cast<std::uint64_t>(bytes));
        host_.complete_request(req);
      });
}

void FastPathChannel::arrival(int src, int slot) {
  Peer& c = peers_.at(src);
  const std::byte* base = c.recv_ring.data() + static_cast<std::size_t>(slot) * c.slot_bytes;
  MsgHeader hdr = read_header(base);
  std::vector<std::byte> payload;
  if (hdr.size > 0) {
    payload.assign(base + kHeaderBytes, base + kHeaderBytes + hdr.size);
  }
  host_.ingress(src, hdr, std::move(payload));
  // The payload is copied out; the slot is free.  Credit return is
  // piggybacked on reverse traffic in MVAPICH — modelled as free after the
  // drain's CPU cost.
  FastPathChannel* remote = c.remote;
  const int me = host_.rank();
  host_.schedule_cpu_vci(0, host_.config().ctl_cpu, [remote, me] { remote->credit_return(me); });
}

void FastPathChannel::credit_return(int peer) {
  ++peers_.at(peer).credits;
  host_.progress().notify_all();
}

}  // namespace ib12x::mvx
