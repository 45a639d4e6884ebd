#include "mvx/coll/engine.hpp"

#include <algorithm>
#include <cstring>

#include "mvx/endpoint.hpp"
#include "mvx/telemetry.hpp"
#include "sim/process.hpp"

namespace ib12x::mvx::coll {

struct CollEngine::Exec {
  CollSchedule sched;
  Request user;

  struct Round {
    int deps_left = 0;
    bool issued = false;
    std::vector<Request> pending;  ///< posted transfers of this round
    /// pending[0 .. next_pending) are known complete (completion is
    /// monotone, so no later check needs to look at them again).
    std::size_t next_pending = 0;

    /// True once every posted transfer of this issued round has completed.
    /// Reads only, so it may serve a wait predicate.
    [[nodiscard]] bool transfers_done() const {
      for (std::size_t i = next_pending; i < pending.size(); ++i) {
        if (!pending[i]->done) return false;
      }
      return true;
    }
  };
  std::vector<Round> rounds;
  std::vector<std::vector<int>> dependents;
  int left = 0;  ///< rounds not yet done
  /// The rounds that can move, ascending: issued rounds not yet done, and
  /// rounds not issued whose dependencies are all done.  Every other round
  /// is done, or waits on a round in here.
  std::vector<int> frontier;
};

CollEngine::CollEngine(Endpoint& ep)
    : ep_(ep),
      schedules_(ep.telemetry().counter("coll.schedules")),
      rounds_done_(ep.telemetry().counter("coll.rounds")),
      ops_issued_(ep.telemetry().counter("coll.ops")) {}

CollEngine::~CollEngine() = default;

void CollEngine::issue_round(Exec& e, int r) {
  Exec::Round& round = e.rounds[static_cast<std::size_t>(r)];
  round.issued = true;
  // Ops run in listed order: local ops inline (on the current fiber, which
  // charges any Cpu op to whoever is driving progress), transfers posted.
  for (const CollOp& op : e.sched.rounds()[static_cast<std::size_t>(r)].ops) {
    ops_issued_.inc();
    switch (op.kind) {
      case CollOp::Kind::Isend:
        round.pending.push_back(ep_.start_send(CommKind::Collective, op.src, op.bytes, op.peer,
                                               op.tag, e.sched.ctx, op.lane));
        break;
      case CollOp::Kind::Irecv:
        round.pending.push_back(ep_.start_recv(op.dst, op.bytes, op.peer, op.tag, e.sched.ctx));
        break;
      case CollOp::Kind::ReduceLocal:
        reduce_apply(op.redop, op.dt, op.dst, op.src, op.count);
        break;
      case CollOp::Kind::Copy:
        if (op.bytes > 0) std::memcpy(op.dst, op.src, static_cast<std::size_t>(op.bytes));
        break;
      case CollOp::Kind::Cpu:
        if (op.cpu > 0) ep_.process().compute(op.cpu);
        break;
    }
  }
}

bool CollEngine::step(Exec& e) {
  // Drive to a local fixpoint: completing a round can unblock others, and a
  // freshly issued all-local round completes immediately.  Each pass visits
  // the frontier in index order, which is the order a scan of every round
  // would act in: the rounds it skips are done, or wait on a lower-indexed
  // round, and a round that completes only unblocks higher-indexed ones
  // (deps always point back), which join the frontier ahead of the cursor.
  bool moved = true;
  while (moved) {
    moved = false;
    std::size_t i = 0;
    while (i < e.frontier.size()) {
      const int r = e.frontier[i];
      Exec::Round& round = e.rounds[static_cast<std::size_t>(r)];
      if (!round.issued) {
        issue_round(e, r);
        moved = true;
      }
      while (round.next_pending < round.pending.size() &&
             round.pending[round.next_pending]->done) {
        ++round.next_pending;
      }
      if (round.next_pending != round.pending.size()) {
        ++i;
        continue;
      }
      round.pending.clear();
      e.frontier.erase(e.frontier.begin() + static_cast<std::ptrdiff_t>(i));
      --e.left;
      rounds_done_.inc();
      for (int d : e.dependents[static_cast<std::size_t>(r)]) {
        if (--e.rounds[static_cast<std::size_t>(d)].deps_left == 0) {
          e.frontier.insert(std::upper_bound(e.frontier.begin() + static_cast<std::ptrdiff_t>(i),
                                             e.frontier.end(), d),
                            d);
        }
      }
      moved = true;
    }
  }
  return e.left == 0;
}

void CollEngine::finish(Exec& e) {
  if (e.sched.on_complete) e.sched.on_complete();
  ep_.complete_request(e.user);
}

Request CollEngine::launch(CollSchedule sched) {
  schedules_.inc();
  auto e = std::make_unique<Exec>();
  e->sched = std::move(sched);
  e->user = make_request();

  const auto& rounds = e->sched.rounds();
  const int n = static_cast<int>(rounds.size());
  e->rounds.resize(static_cast<std::size_t>(n));
  e->dependents.resize(static_cast<std::size_t>(n));
  e->left = n;
  for (int r = 0; r < n; ++r) {
    e->rounds[static_cast<std::size_t>(r)].deps_left =
        static_cast<int>(rounds[static_cast<std::size_t>(r)].deps.size());
    if (rounds[static_cast<std::size_t>(r)].deps.empty()) e->frontier.push_back(r);
    for (int d : rounds[static_cast<std::size_t>(r)].deps) {
      e->dependents[static_cast<std::size_t>(d)].push_back(r);
    }
  }

  // First pass runs on the caller: a blocking collective's initial posts and
  // pack charges land on the rank's own fiber, as the inline code's did.
  if (step(*e)) {
    finish(*e);
    return e->user;
  }
  Request user = e->user;
  active_.push_back(std::move(e));
  return user;
}

bool CollEngine::poll_ready() const {
  // Would step() move any exec?  Only frontier rounds can make it.
  for (const auto& e : active_) {
    for (int r : e->frontier) {
      const Exec::Round& round = e->rounds[static_cast<std::size_t>(r)];
      if (!round.issued || round.transfers_done()) return true;
    }
  }
  return false;
}

void CollEngine::run_ready() {
  // Index loop: step() can block mid-issue (credits), during which the rank
  // fiber may launch() and append — the new exec is picked up next pass.
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i] != nullptr && step(*active_[i])) {
      finish(*active_[i]);
      active_[i] = nullptr;
    }
  }
  active_.erase(std::remove(active_.begin(), active_.end(), nullptr), active_.end());
}

void CollEngine::progress_main(sim::Process& p) {
  for (;;) {
    p.wait_until(ep_.progress(),
                 [&] { return (shutdown_ && active_.empty()) || poll_ready(); });
    if (shutdown_ && active_.empty()) return;
    run_ready();
  }
}

void CollEngine::request_shutdown() {
  shutdown_ = true;
  ep_.progress().notify_all();
}

}  // namespace ib12x::mvx::coll
