// MPI request objects.  A Request is a shared handle; the substrate holds
// its own reference while a transfer is in flight, so user code may drop the
// handle of an isend it never waits on (the standard allows completion to be
// inferred from other events).
#pragma once

#include <cstdint>
#include <memory>

#include "sim/time.hpp"

namespace ib12x::mvx {

struct Status {
  int source = -1;
  int tag = -1;
  std::int64_t bytes = 0;
};

struct RequestState {
  bool done = false;
  bool is_send = false;
  Status status;          ///< filled on receive completion
  sim::Time completed_at = 0;

  // -- internal bookkeeping (rendezvous) --
  const void* send_buf = nullptr;
  void* recv_buf = nullptr;
  std::int64_t bytes = 0;
  int peer = -1;
  int tag = -1;
  int ctx = 0;
  std::uint8_t kind = 0;        ///< CommKind, recorded by the marker at start
  int lane = -1;                ///< multi-lane rail pin (lane % nrails); -1 = policy decides
  int vci = 0;                  ///< virtual communication interface carrying this message
  std::uint64_t peer_cookie = 0;///< the other side's request cookie
};

using Request = std::shared_ptr<RequestState>;

inline Request make_request() { return std::make_shared<RequestState>(); }

}  // namespace ib12x::mvx
