#include "mvx/shm_channel.hpp"

#include <memory>
#include <utility>

#include "mvx/matcher.hpp"

namespace ib12x::mvx {

namespace {

/// One message in flight through the shared segment.  Header + payload
/// exceed the kernel's 48-byte in-place event storage, so they travel in one
/// heap block that the events own and hand on by pointer.
struct Delivery {
  ShmChannel* remote;
  int src;
  MsgHeader hdr;
  Payload payload;
};

}  // namespace

ShmChannel::ShmChannel(ChannelHost& host)
    : host_(host),
      sent_(host.telemetry().counter("shm.sent")),
      bytes_sent_(host.telemetry().counter("shm.bytes_sent")) {}

void ShmChannel::connect(ShmChannel& a, ShmChannel& b) {
  Peer& pa = a.peers_[b.host_.rank()];
  pa.remote = &b;
  pa.pipe = sim::BandwidthServer("shm", a.host_.config().shm_gbps);
  Peer& pb = b.peers_[a.host_.rank()];
  pb.remote = &a;
  pb.pipe = sim::BandwidthServer("shm", b.host_.config().shm_gbps);
}

bool ShmChannel::accepts(int peer) const {
  return peers_.count(peer) != 0;
}

void ShmChannel::send(int peer, CommKind kind, const void* buf, std::int64_t bytes, int tag,
                      int ctx, const Request& req) {
  Peer& c = peers_.at(peer);
  const Config& cfg = host_.config();
  sim::Simulator& sim = host_.simulator();

  MsgHeader hdr;
  hdr.type = MsgType::Eager;
  hdr.kind = static_cast<std::uint8_t>(kind);
  hdr.vci = static_cast<std::uint8_t>(req->vci);
  hdr.src_rank = host_.rank();
  hdr.tag = tag;
  hdr.ctx = ctx;
  hdr.seq = host_.matcher().next_send_seq(peer, ctx, req->vci);
  hdr.size = static_cast<std::uint64_t>(bytes);

  // Copy into the (modelled) shared segment; the sender's CPU does this.
  Payload payload = Payload::copy(buf, static_cast<std::size_t>(bytes));
  host_.process().compute(cfg.post_cpu() + host_.memcpy_time(bytes));

  auto res = c.pipe.reserve_bytes(sim.now(), sim.now(),
                                  static_cast<std::int64_t>(kHeaderBytes) + bytes);
  const sim::Time deliver_at = res.finish + cfg.shm_latency;
  auto d = std::make_unique<Delivery>(
      Delivery{c.remote, host_.rank(), hdr, std::move(payload)});
  sim.at(deliver_at, [d = std::move(d)] {
    d->remote->deliver(d->src, d->hdr, std::move(d->payload));
  });

  sent_.inc();
  bytes_sent_.add(static_cast<std::uint64_t>(bytes));
  req->done = true;
  req->completed_at = sim.now();
}

void ShmChannel::send_evt(int peer, CommKind kind, const void* buf, std::int64_t bytes, int tag,
                          int ctx, const Request& req) {
  const Config& cfg = host_.config();

  MsgHeader hdr;
  hdr.type = MsgType::Eager;
  hdr.kind = static_cast<std::uint8_t>(kind);
  hdr.vci = static_cast<std::uint8_t>(req->vci);
  hdr.src_rank = host_.rank();
  hdr.tag = tag;
  hdr.ctx = ctx;
  // Claimed at dispatch so a flushed queue keeps MPI ordering (see
  // NetChannel::try_send).
  hdr.seq = host_.matcher().next_send_seq(peer, ctx, req->vci);
  hdr.size = static_cast<std::uint64_t>(bytes);

  // The copy is made now; the delivery block (header and payload) moves
  // into the CPU event and from there into the arrival event, so the
  // message costs one allocation.  Its peer channel is resolved when the
  // CPU event runs.
  auto d = std::make_unique<Delivery>(Delivery{
      nullptr, host_.rank(), hdr, Payload::copy(buf, static_cast<std::size_t>(bytes))});

  host_.schedule_cpu_vci(
      req->vci, cfg.post_cpu() + host_.memcpy_time(bytes),
      [this, peer, req, d = std::move(d)]() mutable {
        Peer& c = peers_.at(peer);
        sim::Simulator& sim = host_.simulator();
        const auto bytes = static_cast<std::int64_t>(d->hdr.size);
        auto res = c.pipe.reserve_bytes(sim.now(), sim.now(),
                                        static_cast<std::int64_t>(kHeaderBytes) + bytes);
        const sim::Time deliver_at = res.finish + host_.config().shm_latency;
        d->remote = c.remote;
        sim.at(deliver_at, [d = std::move(d)] {
          d->remote->deliver(d->src, d->hdr, std::move(d->payload));
        });
        sent_.inc();
        bytes_sent_.add(static_cast<std::uint64_t>(bytes));
        host_.complete_request(req);
      });
}

void ShmChannel::deliver(int src, MsgHeader hdr, Payload payload) {
  host_.ingress(src, hdr, std::move(payload));
}

}  // namespace ib12x::mvx
