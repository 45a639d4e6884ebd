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

  /// One round's execution state.  Its posted transfers sit in
  /// pending[begin .. end), a slice sized at launch from the round's Isend
  /// and Irecv ops; pending[begin .. next) are known complete (completion
  /// is monotone, so no later check needs to look at them again).
  struct Round {
    int deps_left = 0;
    bool issued = false;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t next = 0;
  };
  std::vector<Round> rounds;
  /// Every transfer of the schedule, round by round.
  std::vector<Request> pending;
  /// The rounds that depend on round r, ascending:
  /// dependents[dep_start[r] .. dep_start[r + 1]).
  std::vector<int> dep_start;
  std::vector<int> dependents;
  int left = 0;  ///< rounds not yet done
  /// The rounds that can move, ascending: issued rounds not yet done, and
  /// rounds not issued whose dependencies are all done.  Every other round
  /// is done, or waits on a round in here.
  std::vector<int> frontier;

  /// True once every posted transfer of issued round `r` has completed.
  /// Reads only, so it may serve a wait predicate.
  [[nodiscard]] bool transfers_done(const Round& r) const {
    for (std::size_t i = r.next; i < r.end; ++i) {
      if (!pending[i]->done) return false;
    }
    return true;
  }
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
  for (const CollOp& op : e.sched.ops(r)) {
    ops_issued_.inc();
    switch (op.kind) {
      case CollOp::Kind::Isend:
        e.pending[round.end++] = ep_.start_send(CommKind::Collective, op.src, op.bytes, op.peer,
                                                op.tag, e.sched.ctx, op.lane);
        break;
      case CollOp::Kind::Irecv:
        e.pending[round.end++] = ep_.start_recv(op.dst, op.bytes, op.peer, op.tag, e.sched.ctx);
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
      while (round.next < round.end && e.pending[round.next]->done) ++round.next;
      if (round.next != round.end) {
        ++i;
        continue;
      }
      for (std::size_t k = round.begin; k < round.end; ++k) e.pending[k].reset();
      e.frontier.erase(e.frontier.begin() + static_cast<std::ptrdiff_t>(i));
      --e.left;
      rounds_done_.inc();
      for (int k = e.dep_start[static_cast<std::size_t>(r)];
           k < e.dep_start[static_cast<std::size_t>(r) + 1]; ++k) {
        const int d = e.dependents[static_cast<std::size_t>(k)];
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

void CollEngine::finish(std::unique_ptr<Exec> e) {
  if (e->sched.on_complete) e->sched.on_complete();
  ep_.complete_request(e->user);
  e->user.reset();
  // Returns the scratch blocks to the rank's pool at the moment a destroyed
  // schedule used to, so the pin-down cache sees the same reuse.
  e->sched.clear();
  spare_schedules_.push_back(std::move(e->sched));
  spare_execs_.push_back(std::move(e));
}

CollSchedule CollEngine::take_schedule(int ctx) {
  CollSchedule s;
  if (!spare_schedules_.empty()) {
    s = std::move(spare_schedules_.back());
    spare_schedules_.pop_back();
  }
  s.ctx = ctx;
  s.set_scratch_pool(&scratch_pool_);
  return s;
}

Request CollEngine::launch(CollSchedule&& sched) {
  schedules_.inc();
  std::unique_ptr<Exec> e;
  if (spare_execs_.empty()) {
    e = std::make_unique<Exec>();
  } else {
    e = std::move(spare_execs_.back());
    spare_execs_.pop_back();
  }
  e->sched = std::move(sched);
  e->user = ep_.new_request();

  const CollSchedule& s = e->sched;
  const int n = static_cast<int>(s.round_count());
  const auto un = static_cast<std::size_t>(n);
  e->rounds.assign(un, Exec::Round{});
  e->dep_start.assign(un + 1, 0);
  e->frontier.clear();
  e->left = n;
  std::size_t slots = 0;
  for (int r = 0; r < n; ++r) {
    Exec::Round& round = e->rounds[static_cast<std::size_t>(r)];
    round.deps_left = static_cast<int>(s.deps(r).size());
    round.begin = round.end = round.next = slots;
    for (const CollOp& op : s.ops(r)) {
      if (op.kind == CollOp::Kind::Isend || op.kind == CollOp::Kind::Irecv) ++slots;
    }
    if (s.deps(r).empty()) e->frontier.push_back(r);
    for (int d : s.deps(r)) ++e->dep_start[static_cast<std::size_t>(d)];
  }
  e->pending.resize(slots);  // all null: a finished round drops its requests
  // Counting sort: after the running sum dep_start[d] is one past d's block;
  // filling backwards moves it to the block's start and keeps each block
  // ascending.
  for (std::size_t r = 1; r <= un; ++r) e->dep_start[r] += e->dep_start[r - 1];
  e->dependents.resize(static_cast<std::size_t>(e->dep_start[un]));
  for (int r = n - 1; r >= 0; --r) {
    for (int d : s.deps(r)) {
      e->dependents[static_cast<std::size_t>(--e->dep_start[static_cast<std::size_t>(d)])] = r;
    }
  }

  // First pass runs on the caller: a blocking collective's initial posts and
  // pack charges land on the rank's own fiber, as the inline code's did.
  Request user = e->user;
  if (step(*e)) {
    finish(std::move(e));
  } else {
    active_.push_back(std::move(e));
  }
  return user;
}

bool CollEngine::poll_ready() const {
  // Would step() move any exec?  Only frontier rounds can make it.
  for (const auto& e : active_) {
    for (int r : e->frontier) {
      const Exec::Round& round = e->rounds[static_cast<std::size_t>(r)];
      if (!round.issued || e->transfers_done(round)) return true;
    }
  }
  return false;
}

void CollEngine::run_ready() {
  // Index loop: step() can block mid-issue (credits), during which the rank
  // fiber may launch() and append — the new exec is picked up next pass.
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i] != nullptr && step(*active_[i])) finish(std::move(active_[i]));
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
