#include "ib/fault.hpp"

#include <algorithm>

#include "ib/hca.hpp"

namespace ib12x::ib {

void FaultPlan::add_link_event(sim::Time at, Hca* hca, int port_idx, bool up) {
  events_.push_back(LinkEvent{at, hca, port_idx, up});
}

void FaultPlan::arm(sim::Simulator& sim) {
  for (const LinkEvent& ev : events_) {
    sim.at(ev.at, [this, ev] { apply(ev); });
  }
}

MsgFault FaultPlan::draw_msg_fault() {
  if (params_.msg_error_rate <= 0.0) return MsgFault::None;
  if (rng_.next_double() >= params_.msg_error_rate) return MsgFault::None;
  ++injected_errors_;
  return rng_.next_double() < params_.ack_drop_fraction ? MsgFault::AckDrop : MsgFault::Drop;
}

bool FaultPlan::port_down(const Hca* hca, int port_idx) const {
  return std::find(down_.begin(), down_.end(), std::pair<const Hca*, int>{hca, port_idx}) !=
         down_.end();
}

void FaultPlan::apply(const LinkEvent& ev) {
  const std::pair<const Hca*, int> key{ev.hca, ev.port};
  if (ev.up) {
    auto it = std::find(down_.begin(), down_.end(), key);
    if (it == down_.end()) return;  // spurious up event
    down_.erase(it);
    ++link_transitions_;
    // Re-arm each QP pair, but only once both endpoints' ports are up — a
    // half-recovered link stays unusable until the far side returns too.
    for (QueuePair* qp : ev.hca->port_qps(ev.port)) {
      QueuePair* peer = qp->peer();
      if (peer == nullptr) continue;
      if (port_down(&peer->port().hca(), peer->port().index())) continue;
      qp->reset();
      peer->reset();
    }
    return;
  }
  if (port_down(ev.hca, ev.port)) return;  // already down
  down_.push_back(key);
  ++link_transitions_;
  // Both directions of every RC pair crossing the dead link flush: the local
  // QP because its port died, the peer because its retries will exhaust.
  for (QueuePair* qp : ev.hca->port_qps(ev.port)) {
    qp->transition_to_error();
    QueuePair* peer = qp->peer();
    if (peer != nullptr) peer->transition_to_error();
  }
}

}  // namespace ib12x::ib
