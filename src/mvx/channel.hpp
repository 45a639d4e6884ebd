// The channel layer of the decomposed ADI endpoint (paper fig. 2).
//
// Two transports move bytes to peers: ShmChannel within a node and
// NetChannel (rails, credits, eager protocol, rendezvous data movement)
// between nodes.  The endpoint is a thin facade that routes each send to
// the shm channel when it reaches the peer and to the net channel
// otherwise, and glues inbound arrivals back into the matcher and the
// rendezvous protocol.
//
// Channels never see the Endpoint class itself — only the narrow
// ChannelHost surface below — so each transport is independently testable
// and the facade's callers (Communicator / Collectives) never see them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "ib/types.hpp"
#include "mvx/config.hpp"
#include "mvx/payload.hpp"
#include "mvx/request.hpp"
#include "mvx/wire.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace ib12x::mvx {

class Matcher;
class TelemetryRegistry;

/// One rendezvous RDMA-write stripe; lkeys/rkeys are per HCA domain and the
/// net channel resolves them through the rail's HCA index.  Lives at
/// namespace scope (not inside NetChannel) because the failover hand-back —
/// ChannelHost::on_rndv_write_failed — must carry the full descriptor so the
/// Rendezvous module can re-plan and re-post it.
struct RndvStripe {
  int rail = 0;
  const std::byte* src = nullptr;
  std::int64_t len = 0;
  std::uint64_t raddr = 0;
  std::uint64_t req_id = 0;  ///< reported back via ChannelHost::on_rndv_write_done
  std::array<ib::LKey, kMaxHcas> lkeys{};
  CtsRkeys rkeys;
  int attempts = 0;  ///< failover re-posts of this stripe so far
};

/// What a channel (or protocol module) may ask of its owning endpoint.
class ChannelHost {
 public:
  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual const Config& config() const = 0;
  [[nodiscard]] virtual sim::Simulator& simulator() const = 0;
  [[nodiscard]] virtual sim::Process& process() const = 0;
  virtual Matcher& matcher() = 0;
  virtual TelemetryRegistry& telemetry() = 0;
  /// The progress waitable blocking calls park on; channels notify it when
  /// resources (credits, bounce buffers) free up.
  virtual sim::Waitable& progress() = 0;

  /// Serializes event-context protocol work of VCI `vci` (stripe posting,
  /// CQE handling, control processing, receive copies) on that VCI's
  /// progress server: `fn` runs once the server has spent `cost` on it,
  /// queued behind the VCI's earlier work.  Independent VCIs run in parallel.
  /// `fn` is a kernel event, so its capture must fit the event's 48-byte
  /// in-place storage: capture ids and pointers, and box (sim::boxed) only a
  /// capture that cannot shrink, such as one holding a MsgHeader.
  virtual void schedule_cpu_vci(int vci, sim::Time cost, sim::Event fn) = 0;
  [[nodiscard]] virtual sim::Time memcpy_time(std::int64_t bytes) const = 0;

  /// Entry point for every sequenced inbound message (Eager/Rts): ordering,
  /// matching, and protocol dispatch.  Event context.
  virtual void ingress(int peer, const MsgHeader& hdr, Payload payload) = 0;
  /// Rendezvous control arrival (Cts/Fin) from the net channel.
  virtual void on_ctl(const MsgHeader& hdr, const CtsRkeys& rkeys) = 0;
  /// A rendezvous stripe write finished on the wire (requester CQE).
  virtual void on_rndv_write_done(int peer, std::uint64_t req_id) = 0;
  /// A rendezvous stripe write failed (error CQE under fault injection) and
  /// needs re-planning over the surviving rails.
  virtual void on_rndv_write_failed(int peer, const RndvStripe& st) = 0;
  /// A rendezvous RDMA-read stripe finished (read-rendezvous; the receiver
  /// is the requester).
  virtual void on_rndv_read_done(int peer, std::uint64_t req_id) = 0;
  /// A rendezvous RDMA-read stripe failed (error CQE under fault injection).
  /// Same contract as on_rndv_write_failed, receiver-side.
  virtual void on_rndv_read_failed(int peer, const RndvStripe& st) = 0;
  /// A write-with-immediate landed on this (receiving) rank: the imm word
  /// carries the packed {vci, receiver cookie} that completes the rendezvous
  /// without a FIN.  Event context.
  virtual void on_rndv_imm(std::uint32_t imm_data) = 0;

  /// A send-side eager resource (bounce buffer, credit, rail) returned to
  /// the pool: sends queued behind resource exhaustion may flush.  The pool
  /// is shared across peers, so an implementation must consider every
  /// queued peer, not just `peer`.  Event context.
  virtual void on_eager_resources_freed(int peer) = 0;

  /// Marks `req` complete and wakes waiters.
  virtual void complete_request(const Request& req) = 0;

 protected:
  ~ChannelHost() = default;
};

}  // namespace ib12x::mvx
