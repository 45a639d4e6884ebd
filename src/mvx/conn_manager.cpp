#include "mvx/conn_manager.hpp"

#include <stdexcept>
#include <string>

#include "mvx/endpoint.hpp"
#include "mvx/world.hpp"

namespace ib12x::mvx {

ConnManager::ConnManager(Endpoint& ep)
    : ep_(ep),
      established_(ep.telemetry().counter("conn.established")),
      inflight_hwm_(ep.telemetry().counter("conn.handshakes_inflight")) {}

ConnManager::PeerConn& ConnManager::conn(int peer) {
  if (peer < 0) throw std::out_of_range("ConnManager: negative peer rank " + std::to_string(peer));
  const auto i = static_cast<std::size_t>(peer);
  if (i >= peers_.size()) peers_.resize(i + 1);
  return peers_[i];
}

const ConnManager::PeerConn* ConnManager::find(int peer) const {
  const auto i = static_cast<std::size_t>(peer);
  return peer >= 0 && i < peers_.size() ? &peers_[i] : nullptr;
}

ConnManager::State ConnManager::state(int peer) const {
  const PeerConn* pc = find(peer);
  return pc == nullptr ? State::Unconnected : pc->st;
}

std::size_t ConnManager::queued(int peer) const {
  const PeerConn* pc = find(peer);
  return pc == nullptr ? 0 : pc->q.size();
}

std::vector<int> ConnManager::queued_peers() const {
  std::vector<int> out;
  for (std::size_t rank = 0; rank < peers_.size(); ++rank) {
    if (!peers_[rank].q.empty()) out.push_back(static_cast<int>(rank));
  }
  return out;
}

void ConnManager::initiate(int peer) {
  PeerConn& pc = conn(peer);
  if (pc.st != State::Unconnected) return;
  pc.st = State::Connecting;
  ++inflight_;
  inflight_hwm_.track_max(static_cast<std::uint64_t>(inflight_));
  sim::Simulator& sim = ep_.simulator();
  sim.at(sim.now() + ep_.config().conn_setup_latency,
         [this, peer] { complete_handshake(peer); });
}

void ConnManager::complete_handshake(int peer) {
  --inflight_;
  if (state(peer) == State::Ready) {
    // Simultaneous connect: the peer's handshake landed first and its
    // wire_pair already built this pair (and marked us Ready).  Nothing to
    // wire — just make sure anything queued meanwhile drains.
    ep_.flush_queued(peer);
    return;
  }
  // wire_pair wires both endpoints of the pair and calls mark_ready on both
  // managers (which flushes this side's queue).
  ep_.world().wire_pair(ep_.rank(), peer);
}

void ConnManager::mark_ready(int peer) {
  PeerConn& pc = conn(peer);
  if (pc.st == State::Ready) return;
  pc.st = State::Ready;
  established_.inc();
  ep_.flush_queued(peer);
}

void ConnManager::enqueue(int peer, QueuedSend qs) {
  conn(peer).q.push_back(std::move(qs));
  ++queued_total_;
}

QueuedSend& ConnManager::front(int peer) {
  if (queued(peer) == 0) throw std::logic_error("ConnManager: front() on empty queue");
  return peers_[static_cast<std::size_t>(peer)].q.front();
}

void ConnManager::pop_front(int peer) {
  if (queued(peer) == 0) throw std::logic_error("ConnManager: pop_front() on empty queue");
  peers_[static_cast<std::size_t>(peer)].q.pop_front();
  --queued_total_;
}

}  // namespace ib12x::mvx
