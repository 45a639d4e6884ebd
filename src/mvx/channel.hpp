// The channel layer of the decomposed ADI endpoint (paper fig. 2).
//
// Two transports move bytes to peers: ShmChannel within a node and
// NetChannel (rails, credits, eager protocol, rendezvous data movement)
// between nodes.  The endpoint is a thin facade that routes each send to
// the shm channel when it reaches the peer and to the net channel
// otherwise, and glues inbound arrivals back into the matcher.
//
// The channels, the Rendezvous module and the ConnManager each hold their
// owning Endpoint by reference and call it directly (rank, config, VCI
// progress servers, ingress, request completion); the net channel's CQE
// demultiplexer hands rendezvous completions and control arrivals straight
// to the Rendezvous module.  The facade's callers (Communicator /
// Collectives) never see the channels.
#pragma once

#include <array>
#include <cstdint>

#include "ib/types.hpp"
#include "mvx/wire.hpp"

namespace ib12x::mvx {

/// One rendezvous RDMA stripe; lkeys/rkeys are per HCA domain and the net
/// channel resolves them through the rail's HCA index.  The net channel
/// keeps the posted descriptor with its WQE, so an error CQE can hand the
/// whole stripe back to Rendezvous for re-planning and re-posting.
struct RndvStripe {
  int rail = 0;
  const std::byte* src = nullptr;
  std::int64_t len = 0;
  std::uint64_t raddr = 0;
  std::uint64_t req_id = 0;  ///< reported back to Rendezvous::on_write_done / on_read_done
  std::array<ib::LKey, kMaxHcas> lkeys{};
  CtsRkeys rkeys;
  int attempts = 0;  ///< failover re-posts of this stripe so far
};

}  // namespace ib12x::mvx
