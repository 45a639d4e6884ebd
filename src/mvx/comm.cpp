#include "mvx/comm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "mvx/world.hpp"

namespace ib12x::mvx {

Communicator::Communicator(World* world, Endpoint* ep, std::vector<int> group, int my_index,
                           int ctx_base)
    : world_(world), ep_(ep), group_(std::move(group)), my_index_(my_index),
      ctx_base_(ctx_base) {}

sim::Time Communicator::now() const { return ep_->simulator().now(); }

void Communicator::compute(sim::Time t) { ep_->process().compute(t); }

// ------------------------------------------------------------ point-to-point

bool Communicator::try_self_recv(void* buf, std::size_t bytes, int tag, int ctx, Status* st) {
  for (auto it = self_q_.begin(); it != self_q_.end(); ++it) {
    if (it->ctx != ctx) continue;
    if (tag != ANY_TAG && it->tag != tag) continue;
    if (it->data.size() > bytes) throw std::runtime_error("recv: self-message truncation");
    if (!it->data.empty()) std::memcpy(buf, it->data.data(), it->data.size());
    if (st != nullptr) *st = {my_index_, it->tag, static_cast<std::int64_t>(it->data.size())};
    self_q_.erase(it);
    return true;
  }
  return false;
}

Request Communicator::isend_kind(CommKind kind, const void* buf, std::size_t bytes, int dst,
                                 int tag, int ctx) {
  if (dst < 0 || dst >= size()) throw std::invalid_argument("send: bad destination rank");
  if (dst == my_index_) {
    // Local loopback: store a copy; a matching recv drains it.
    SelfMsg m;
    m.tag = tag;
    m.ctx = ctx;
    m.data = world_->payloads().copy(buf, bytes);
    compute(sim::transfer_time(static_cast<std::int64_t>(bytes), ep_->config().memcpy_gbps));
    self_q_.push_back(std::move(m));
    Request r = ep_->new_request();
    r->is_send = true;
    r->done = true;
    return r;
  }
  return ep_->start_send(kind, buf, static_cast<std::int64_t>(bytes), world_rank(dst), tag, ctx);
}

Request Communicator::irecv_ctx(void* buf, std::size_t bytes, int src, int tag, int ctx) {
  if (src != ANY_SOURCE && (src < 0 || src >= size())) {
    throw std::invalid_argument("recv: bad source rank");
  }
  if (src == my_index_) {
    Request r = ep_->new_request();
    Status st;
    if (!try_self_recv(buf, bytes, tag, ctx, &st)) {
      throw std::runtime_error("recv from self with no matching self-send (would deadlock)");
    }
    r->status = st;
    r->done = true;
    return r;
  }
  const int world_src = src == ANY_SOURCE ? ANY_SOURCE : world_rank(src);
  return ep_->start_recv(buf, static_cast<std::int64_t>(bytes), world_src, tag, ctx);
}

void Communicator::send(const void* buf, std::size_t count, Datatype dt, int dst, int tag) {
  Request r = isend_kind(CommKind::Blocking, buf, count * dt.size, dst, tag, ctx_base_);
  ep_->wait(r);
}

void Communicator::recv(void* buf, std::size_t count, Datatype dt, int src, int tag, Status* st) {
  Request r = irecv_ctx(buf, count * dt.size, src, tag, ctx_base_);
  ep_->wait(r);
  if (st != nullptr) *st = r->status;
}

Request Communicator::isend(const void* buf, std::size_t count, Datatype dt, int dst, int tag) {
  return isend_kind(CommKind::Nonblocking, buf, count * dt.size, dst, tag, ctx_base_);
}

Request Communicator::irecv(void* buf, std::size_t count, Datatype dt, int src, int tag) {
  return irecv_ctx(buf, count * dt.size, src, tag, ctx_base_);
}

void Communicator::wait(const Request& r, Status* st) {
  ep_->wait(r);
  if (st != nullptr) *st = r->status;
}

void Communicator::waitall(std::vector<Request>& reqs) {
  for (auto& r : reqs) ep_->wait(r);
}

int Communicator::waitany(const std::vector<Request>& reqs) {
  bool any = false;
  for (const Request& r : reqs) {
    if (r != nullptr) any = true;
  }
  if (!any) return -1;
  auto first_done = [&reqs] {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i] != nullptr && reqs[i]->done) return static_cast<int>(i);
    }
    return -1;
  };
  // The predicate only reads; the index is taken once the fiber runs again.
  ep_->process().wait_until(ep_->progress(), [&] { return first_done() >= 0; });
  return first_done();
}

std::vector<int> Communicator::waitsome(const std::vector<Request>& reqs) {
  std::vector<int> done;
  bool any = false;
  for (const Request& r : reqs) {
    if (r != nullptr) any = true;
  }
  if (!any) return done;
  ep_->process().wait_until(ep_->progress(), [&reqs] {
    for (const Request& r : reqs) {
      if (r != nullptr && r->done) return true;
    }
    return false;
  });
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i] != nullptr && reqs[i]->done) done.push_back(static_cast<int>(i));
  }
  return done;
}

bool Communicator::test(const Request& r) { return ep_->test(r); }

void Communicator::sendrecv(const void* sbuf, std::size_t scount, Datatype sdt, int dst, int stag,
                            void* rbuf, std::size_t rcount, Datatype rdt, int src, int rtag,
                            Status* st) {
  Request rr = irecv_ctx(rbuf, rcount * rdt.size, src, rtag, ctx_base_);
  Request sr = isend_kind(CommKind::Nonblocking, sbuf, scount * sdt.size, dst, stag, ctx_base_);
  ep_->wait(sr);
  ep_->wait(rr);
  if (st != nullptr) *st = rr->status;
}

bool Communicator::iprobe(int src, int tag, Status* st) {
  const int world_src = src == ANY_SOURCE ? ANY_SOURCE : world_rank(src);
  return ep_->iprobe(world_src, tag, ctx_base_, st);
}

void Communicator::probe(int src, int tag, Status* st) {
  const int world_src = src == ANY_SOURCE ? ANY_SOURCE : world_rank(src);
  ep_->probe(world_src, tag, ctx_base_, st);
}

// ----------------------------------------------------- communicator mgmt

Communicator Communicator::dup() {
  // Agree on a fresh context pair: all members take the max of their local
  // counters, which the allreduce also synchronizes.
  std::int64_t mine = world_->peek_next_ctx();
  std::int64_t agreed = 0;
  allreduce(&mine, &agreed, 1, INT64, Op::Max);
  world_->bump_ctx(static_cast<int>(agreed) + 2);
  return Communicator(world_, ep_, group_, my_index_, static_cast<int>(agreed));
}

Communicator Communicator::split(int color, int key) {
  struct Entry {
    std::int64_t color, key, old_rank, world;
  };
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  Entry mine{color, key, my_index_, world_rank(my_index_)};
  allgather(&mine, all.data(), sizeof(Entry), BYTE);

  std::int64_t next = world_->peek_next_ctx();
  std::int64_t agreed = 0;
  allreduce(&next, &agreed, 1, INT64, Op::Max);
  // Colors get distinct contexts: color c uses agreed + 2*c.
  std::int64_t max_color = 0;
  for (const Entry& e : all) max_color = std::max(max_color, e.color);
  world_->bump_ctx(static_cast<int>(agreed + 2 * (max_color + 1)));

  std::vector<Entry> members;
  for (const Entry& e : all) {
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.old_rank < b.old_rank;
  });
  std::vector<int> group;
  int my_new = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group.push_back(static_cast<int>(members[i].world));
    if (members[i].old_rank == my_index_) my_new = static_cast<int>(i);
  }
  return Communicator(world_, ep_, std::move(group), my_new,
                      static_cast<int>(agreed + 2 * color));
}

}  // namespace ib12x::mvx
