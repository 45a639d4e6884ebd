// Collective entry points.
//
// Every collective — blocking or non-blocking — is compiled into a
// CollSchedule by the registered builder that coll::select picks
// (mvx/coll/select.cpp) and handed to the endpoint's CollEngine.  The
// blocking variants are build-then-wait wrappers; the i-variants return the
// engine's Request, which completes when the whole schedule has executed.
// All internal transfers still carry the Collective communication-marker
// kind — the distinction the EPC policy keys on.
//
// The wrappers keep the exact call-time semantics of the old inline
// algorithms: argument validation, p == 1 fast paths, and the synchronous
// seed copies (recvbuf <- sendbuf for allreduce/scan, the self block for
// allgather/alltoall/alltoallv/allgatherv) all happen before the schedule
// is built.
#include <cstring>
#include <stdexcept>
#include <vector>

#include "mvx/coll/builders.hpp"
#include "mvx/coll/engine.hpp"
#include "mvx/comm.hpp"

namespace ib12x::mvx {

namespace {

Request done_request() {
  Request r = make_request();
  r->done = true;
  return r;
}

}  // namespace

coll::BuildCtx Communicator::base_ctx() const {
  coll::BuildCtx c;
  c.p = size();
  c.me = my_index_;
  c.group = &group_;
  c.ctx = ctx_base_ + 1;
  c.cfg = &ep_->config();
  c.nrails = ep_->config().rails();
  return c;
}

Request Communicator::launch_coll(coll::CollKind kind, coll::BuildCtx& c,
                                  std::int64_t total_bytes, std::size_t count) {
  // Wrap-boundary safety: the slot this collective will use is a pure
  // function of the per-comm sequence number, so every rank computes the
  // same tags without agreement traffic.  If the slot is still held by a
  // schedule launched 2^16 collectives ago, wait it out locally — tag
  // values never depend on release order, so ranks cannot disagree.
  if (tag_ring_->next_busy()) {
    ep_->process().wait_until(ep_->progress(), [&] { return !tag_ring_->next_busy(); });
  }
  c.tags = tag_ring_->reserve();

  const coll::AlgoEntry& algo =
      coll::select(kind, ep_->config().coll, c.p, total_bytes, count, c.nrails);
  coll::CollEngine& engine = ep_->coll_engine();
  coll::CollSchedule s = engine.take_schedule(c.ctx);
  algo.build(s, c);
  s.on_complete = [ring = tag_ring_, slot = c.tags.slot] { ring->release(slot); };
  return engine.launch(std::move(s));
}

// ---- non-blocking collectives -------------------------------------------

Request Communicator::ibarrier() {
  if (size() == 1) return done_request();
  coll::BuildCtx c = base_ctx();
  return launch_coll(coll::CollKind::Barrier, c, 0, 0);
}

Request Communicator::ibcast(void* buf, std::size_t count, Datatype dt, int root) {
  if (size() == 1) return done_request();
  coll::BuildCtx c = base_ctx();
  c.recvbuf = buf;
  c.count = count;
  c.dt = dt;
  c.root = root;
  return launch_coll(coll::CollKind::Bcast, c, static_cast<std::int64_t>(count * dt.size), count);
}

Request Communicator::ireduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
                              Op op, int root) {
  const std::size_t bytes = count * dt.size;
  if (size() == 1) {
    if (recvbuf != sendbuf) std::memcpy(recvbuf, sendbuf, bytes);
    return done_request();
  }
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;
  c.count = count;
  c.dt = dt;
  c.redop = op;
  c.root = root;
  return launch_coll(coll::CollKind::Reduce, c, static_cast<std::int64_t>(bytes), count);
}

Request Communicator::iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                                 Datatype dt, Op op) {
  const std::size_t bytes = count * dt.size;
  if (recvbuf != sendbuf) std::memcpy(recvbuf, sendbuf, bytes);
  if (size() == 1) return done_request();
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;  // pre-seeded with this rank's contribution
  c.count = count;
  c.dt = dt;
  c.redop = op;
  return launch_coll(coll::CollKind::Allreduce, c, static_cast<std::int64_t>(bytes), count);
}

Request Communicator::iallgather(const void* sendbuf, void* recvbuf, std::size_t count,
                                 Datatype dt) {
  const std::size_t bytes = count * dt.size;
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + static_cast<std::size_t>(my_index_) * bytes, sendbuf, bytes);
  if (size() == 1) return done_request();
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;
  c.count = count;
  c.dt = dt;
  return launch_coll(coll::CollKind::Allgather, c, static_cast<std::int64_t>(bytes), count);
}

Request Communicator::ialltoall(const void* sendbuf, void* recvbuf, std::size_t count,
                                Datatype dt) {
  const std::size_t bytes = count * dt.size;
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + static_cast<std::size_t>(my_index_) * bytes,
              in + static_cast<std::size_t>(my_index_) * bytes, bytes);
  if (size() == 1) return done_request();
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;
  c.count = count;
  c.dt = dt;
  return launch_coll(coll::CollKind::Alltoall, c, static_cast<std::int64_t>(bytes), count);
}

// ---- blocking collectives (build schedule, then wait) -------------------

void Communicator::barrier() {
  Request r = ibarrier();
  ep_->wait(r);
}

void Communicator::bcast(void* buf, std::size_t count, Datatype dt, int root) {
  Request r = ibcast(buf, count, dt, root);
  ep_->wait(r);
}

void Communicator::reduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
                          Op op, int root) {
  Request r = ireduce(sendbuf, recvbuf, count, dt, op, root);
  ep_->wait(r);
}

void Communicator::allreduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
                             Op op) {
  Request r = iallreduce(sendbuf, recvbuf, count, dt, op);
  ep_->wait(r);
}

void Communicator::gather(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
                          int root) {
  const std::size_t bytes = count * dt.size;
  if (size() == 1) {
    std::memcpy(recvbuf, sendbuf, bytes);
    return;
  }
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;
  c.count = count;
  c.dt = dt;
  c.root = root;
  Request r = launch_coll(coll::CollKind::Gather, c, static_cast<std::int64_t>(bytes), count);
  ep_->wait(r);
}

void Communicator::scatter(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
                           int root) {
  const std::size_t bytes = count * dt.size;
  if (size() == 1) {
    std::memcpy(recvbuf, sendbuf, bytes);
    return;
  }
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;
  c.count = count;
  c.dt = dt;
  c.root = root;
  Request r = launch_coll(coll::CollKind::Scatter, c, static_cast<std::int64_t>(bytes), count);
  ep_->wait(r);
}

void Communicator::allgather(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt) {
  Request r = iallgather(sendbuf, recvbuf, count, dt);
  ep_->wait(r);
}

void Communicator::alltoall(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt) {
  Request r = ialltoall(sendbuf, recvbuf, count, dt);
  ep_->wait(r);
}

void Communicator::alltoallv(const void* sendbuf, const std::vector<std::int64_t>& scounts,
                             const std::vector<std::int64_t>& sdispls, void* recvbuf,
                             const std::vector<std::int64_t>& rcounts,
                             const std::vector<std::int64_t>& rdispls, Datatype dt) {
  const int p = size();
  if (static_cast<int>(scounts.size()) != p || static_cast<int>(rcounts.size()) != p) {
    throw std::invalid_argument("alltoallv: counts arrays must have comm-size entries");
  }
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  const std::size_t es = dt.size;
  std::memcpy(out + static_cast<std::size_t>(rdispls[static_cast<std::size_t>(my_index_)]) * es,
              in + static_cast<std::size_t>(sdispls[static_cast<std::size_t>(my_index_)]) * es,
              static_cast<std::size_t>(scounts[static_cast<std::size_t>(my_index_)]) * es);
  if (p == 1) return;
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;
  c.dt = dt;
  c.scounts = &scounts;
  c.sdispls = &sdispls;
  c.rcounts = &rcounts;
  c.rdispls = &rdispls;
  Request r = launch_coll(coll::CollKind::Alltoallv, c, 0, 0);
  ep_->wait(r);
}

void Communicator::reduce_scatter_block(const void* sendbuf, void* recvbuf, std::size_t count,
                                        Datatype dt, Op op) {
  const std::size_t block = count * dt.size;
  if (size() == 1) {
    std::memcpy(recvbuf, sendbuf, block);
    return;
  }
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;
  c.count = count;
  c.dt = dt;
  c.redop = op;
  Request r = launch_coll(coll::CollKind::ReduceScatterBlock, c, static_cast<std::int64_t>(block),
                          count);
  ep_->wait(r);
}

void Communicator::scan(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
                        Op op) {
  const std::size_t bytes = count * dt.size;
  if (recvbuf != sendbuf) std::memcpy(recvbuf, sendbuf, bytes);
  if (size() == 1) return;
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;  // pre-seeded with this rank's contribution
  c.count = count;
  c.dt = dt;
  c.redop = op;
  Request r = launch_coll(coll::CollKind::Scan, c, static_cast<std::int64_t>(bytes), count);
  ep_->wait(r);
}

void Communicator::allgatherv(const void* sendbuf, std::size_t sendcount, void* recvbuf,
                              const std::vector<std::int64_t>& counts,
                              const std::vector<std::int64_t>& displs, Datatype dt) {
  const int p = size();
  if (static_cast<int>(counts.size()) != p) {
    throw std::invalid_argument("allgatherv: counts must have comm-size entries");
  }
  if (static_cast<std::int64_t>(sendcount) != counts[static_cast<std::size_t>(my_index_)]) {
    throw std::invalid_argument("allgatherv: sendcount disagrees with counts[rank]");
  }
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + static_cast<std::size_t>(displs[static_cast<std::size_t>(my_index_)]) * dt.size,
              sendbuf, sendcount * dt.size);
  if (p == 1) return;
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;
  c.count = sendcount;
  c.dt = dt;
  c.rcounts = &counts;
  c.rdispls = &displs;
  Request r = launch_coll(coll::CollKind::Allgatherv, c, 0, 0);
  ep_->wait(r);
}

void Communicator::gatherv(const void* sendbuf, std::size_t sendcount, void* recvbuf,
                           const std::vector<std::int64_t>& counts,
                           const std::vector<std::int64_t>& displs, Datatype dt, int root) {
  const int p = size();
  if (my_index_ == root && static_cast<int>(counts.size()) != p) {
    throw std::invalid_argument("gatherv: counts must have comm-size entries");
  }
  if (p == 1) {
    auto* out = static_cast<std::byte*>(recvbuf);
    std::memcpy(out + static_cast<std::size_t>(displs[0]) * dt.size, sendbuf,
                static_cast<std::size_t>(counts[0]) * dt.size);
    return;
  }
  coll::BuildCtx c = base_ctx();
  c.sendbuf = sendbuf;
  c.recvbuf = recvbuf;
  c.count = sendcount;
  c.dt = dt;
  c.root = root;
  c.rcounts = &counts;
  c.rdispls = &displs;
  Request r = launch_coll(coll::CollKind::Gatherv, c, 0, 0);
  ep_->wait(r);
}

}  // namespace ib12x::mvx
