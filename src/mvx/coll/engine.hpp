// Progress-driven executor for collective schedules.
//
// One CollEngine hangs off each Endpoint.  launch() issues every round of a
// schedule whose dependencies are already met — on the *calling* fiber, so a
// blocking collective charges its first posts to the rank exactly like the
// old inline code — and registers the remainder.  From then on a dedicated
// per-rank progress fiber (World::run spawns one alongside each rank,
// modelling an asynchronous progress thread) advances the schedule: whenever
// the endpoint's progress waitable fires it completes rounds whose transfers
// finished, issues newly unblocked rounds, and finally completes the user's
// Request.  That fiber is what makes collectives *non-blocking*: the rank's
// own fiber can sit in compute() while its iallreduce keeps moving.
//
// Execution is deterministic: execs are scanned in creation order and rounds
// act in index order (each exec keeps a sorted frontier of the rounds that
// can move, so finished and blocked rounds cost nothing), and all posts
// happen from fiber context in a fixed order, so runs remain
// bit-reproducible.
//
// Nothing here allocates per collective once a rank is warmed up: finished
// schedules and execs go back to per-engine spares with their storage, and
// take_schedule() hands the next builder a cleared one.
#pragma once

#include <memory>
#include <vector>

#include "mvx/coll/schedule.hpp"
#include "mvx/request.hpp"

namespace ib12x::sim {
class Process;
}

namespace ib12x::mvx {
class Counter;
class Endpoint;
}

namespace ib12x::mvx::coll {

class CollEngine {
 public:
  explicit CollEngine(Endpoint& ep);
  ~CollEngine();

  CollEngine(const CollEngine&) = delete;
  CollEngine& operator=(const CollEngine&) = delete;

  /// An empty schedule on context `ctx` with the rank's scratch pool
  /// attached, reusing the storage of a finished one when there is one.
  /// Fill it and launch() it.
  CollSchedule take_schedule(int ctx);

  /// Starts executing `sched`: runs all currently-ready rounds on the
  /// calling fiber, then hands the rest to the progress fiber.  The returned
  /// Request completes (waitable with Endpoint::wait / Communicator::wait)
  /// when every round has.  The schedule's storage is kept for a later
  /// take_schedule().
  Request launch(CollSchedule&& sched);

  /// Body of the per-rank progress fiber (runs until request_shutdown() and
  /// all in-flight schedules have drained).
  void progress_main(sim::Process& p);

  /// Re-arms the engine for a new World::run invocation.
  void begin_run() { shutdown_ = false; }

  /// Asks progress_main to exit once no schedules remain in flight.
  void request_shutdown();

  /// Number of schedules currently in flight.
  [[nodiscard]] int in_flight() const { return static_cast<int>(active_.size()); }

 private:
  struct Exec;

  void issue_round(Exec& e, int r);
  /// Issues/completes every ready round of `e` until nothing moves; true
  /// when the whole schedule has finished.
  bool step(Exec& e);
  /// Completes the user request of a finished exec and keeps its storage
  /// (schedule, round state) for later collectives.
  void finish(std::unique_ptr<Exec> e);
  /// The progress fiber's wait predicate: true when step() would move some
  /// exec.  A pure read, cheap enough to run on every progress notify: it
  /// looks only at each exec's frontier (rounds issuable or in flight) and
  /// at their transfers not yet seen complete, never at finished rounds.
  [[nodiscard]] bool poll_ready() const;
  void run_ready();

  Endpoint& ep_;
  /// The rank's scratch recycling pool, attached to every schedule
  /// take_schedule() hands out (see ScratchPool).  Declared first so that
  /// schedules still in flight at teardown return their blocks to it.
  ScratchPool scratch_pool_;
  std::vector<std::unique_ptr<Exec>> active_;
  std::vector<std::unique_ptr<Exec>> spare_execs_;  ///< finished, storage kept
  std::vector<CollSchedule> spare_schedules_;       ///< cleared, storage kept
  bool shutdown_ = false;

  Counter& schedules_;
  Counter& rounds_done_;
  Counter& ops_issued_;
};

}  // namespace ib12x::mvx::coll
