// Lazy connection manager: the one way ranks get wired.
//
// MVAPICH-era MPI wired every pair of ranks at MPI_Init: O(ranks²) QPs and
// eager slots across the job, which is exactly the memory wall §2.1 of the
// paper's lineage attacks with SRQ.  This manager instead establishes a
// peer's QPs and rails on first contact — first send or first directed
// receive — through a modelled out-of-band handshake (UD/CM exchange in real
// MVAPICH) of `Config::conn_setup_latency`.  World::connect_all() wires
// every pair up front through the same World::wire_pair, leaving every
// manager Ready with no handshake started.
//
// Per peer the state machine is Unconnected → Connecting → Ready and every
// transition is idempotent: simultaneous connects (both sides initiate in
// the same window) resolve because the actual wiring (World::wire_pair,
// reached through the endpoint's World) wires both endpoints of the pair at
// once and marks both sides Ready; the loser's handshake completion then
// just flushes.
//
// Sends posted while Connecting are queued FIFO per peer and flushed — in
// order, via the channels' event-context send paths — when the peer turns
// Ready (Endpoint::flush_queued).
#pragma once

#include <cstdint>
#include <vector>

#include "mvx/policy.hpp"
#include "mvx/request.hpp"
#include "mvx/telemetry.hpp"
#include "sim/fifo.hpp"

namespace ib12x::mvx {

class Endpoint;

/// One send captured while its peer's handshake is in flight (or parked
/// behind exhausted eager resources).  `buf` stays owned by the MPI caller:
/// eager completion semantics fire only when the send actually dispatches.
struct QueuedSend {
  CommKind kind{};
  const void* buf = nullptr;
  std::int64_t bytes = 0;
  int tag = 0;
  int ctx = 0;
  Request req;
};

class ConnManager {
 public:
  enum class State : std::uint8_t { Unconnected, Connecting, Ready };

  explicit ConnManager(Endpoint& ep);

  ConnManager(const ConnManager&) = delete;
  ConnManager& operator=(const ConnManager&) = delete;

  [[nodiscard]] State state(int peer) const;
  [[nodiscard]] bool ready(int peer) const { return state(peer) == State::Ready; }
  [[nodiscard]] bool has_queued(int peer) const { return queued(peer) != 0; }
  [[nodiscard]] std::size_t queued(int peer) const;
  /// Sends queued towards all peers together.
  [[nodiscard]] std::size_t queued_total() const { return queued_total_; }
  /// Peers with at least one queued send, ascending (deterministic flush
  /// order when a shared resource frees up).
  [[nodiscard]] std::vector<int> queued_peers() const;

  /// Starts the handshake to `peer` unless one is already running or done.
  /// Callable from either process or event context.
  void initiate(int peer);

  /// Transition to Ready (idempotent), flushing the peer's queue.  Called by
  /// World::wire_pair for both sides of a freshly wired pair — including the
  /// passive side, which may never have initiated anything.
  void mark_ready(int peer);

  void enqueue(int peer, QueuedSend qs);
  [[nodiscard]] QueuedSend& front(int peer);
  void pop_front(int peer);

 private:
  void complete_handshake(int peer);

  struct PeerConn {
    State st = State::Unconnected;
    sim::Fifo<QueuedSend> q;
  };

  /// The peer's entry, created (Unconnected, nothing queued) on first use.
  PeerConn& conn(int peer);
  /// The peer's entry, or nullptr for a peer never touched.
  [[nodiscard]] const PeerConn* find(int peer) const;

  Endpoint& ep_;
  /// Indexed by peer rank; grows to the highest rank touched.
  std::vector<PeerConn> peers_;
  std::size_t queued_total_ = 0;
  int inflight_ = 0;

  Counter& established_;
  Counter& inflight_hwm_;
};

}  // namespace ib12x::mvx
