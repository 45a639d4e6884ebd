// The intra-node shared-memory channel: peers on the same node bypass the
// HCA entirely.  Each direction is a bandwidth server (the modelled shared
// segment) plus a fixed hand-off latency; delivery re-enters the common
// ingress path, so ordering and matching behave exactly like net traffic.
#pragma once

#include <map>

#include "mvx/channel.hpp"
#include "mvx/telemetry.hpp"
#include "sim/server.hpp"

namespace ib12x::mvx {

class ShmChannel final : public Channel {
 public:
  explicit ShmChannel(ChannelHost& host);

  /// Connects two channels on the same node (both directions).
  static void connect(ShmChannel& a, ShmChannel& b);

  [[nodiscard]] bool accepts(int peer, std::int64_t bytes) const override;

  void send(int peer, CommKind kind, const void* buf, std::int64_t bytes, int tag, int ctx,
            const Request& req) override;

  /// Event-context twin of send(), for flushing sends queued behind a lazy
  /// handshake: the copy cost is charged through schedule_cpu_vci instead of the
  /// (unavailable) process fiber.  The pipe never refuses, so unlike the net
  /// channel's try_send this cannot fail.
  void send_evt(int peer, CommKind kind, const void* buf, std::int64_t bytes, int tag, int ctx,
                const Request& req);

 private:
  struct Peer {
    ShmChannel* remote = nullptr;
    sim::BandwidthServer pipe;  ///< this → peer direction
  };

  /// Delivery on the receiving side (invoked by the sender's event).
  void deliver(int src, MsgHeader hdr, Payload payload);

  std::map<int, Peer> peers_;
  Counter& sent_;
  Counter& bytes_sent_;
};

}  // namespace ib12x::mvx
