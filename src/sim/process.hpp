// Simulated processes (MPI ranks) on top of the event kernel.
//
// Each Process runs user code on a stackful fiber (sim/fiber.hpp); control is
// handed between the driver (the event loop) and the process by plain
// user-space context switches, so a suspend/resume round trip costs two
// swapcontext calls and nothing else — no mutexes, no condvars, no kernel
// entries.  Exactly one piece of model code runs at a time, so model state
// needs no locking and runs are bit-reproducible.
//
// Inside the process body, virtual time advances only through explicit calls:
//   compute(d)          — charge d picoseconds of CPU work
//   wait(w)             — block until Waitable w is notified
//   wait_until(w, pred) — block until a notify of w finds pred() true
//   yield()             — let all events scheduled for the current instant run
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ib12x::sim {

class Process;

/// A wake-up channel.  Processes block on it; event handlers notify it.
/// There is no memory: a notify with no waiters is a no-op, so callers must
/// always wait in a predicate loop (Process::wait_until does this).
///
/// Each waiter is stored with its predicate.  notify_all evaluates the
/// predicates where it is called — in event context, or on the notifying
/// fiber — and resumes only the waiters whose predicate holds, so a notify
/// that changes nothing a waiter cares about costs no context switch.  A
/// predicate must therefore be a pure read of model state: it runs while its
/// own fiber is suspended, and may run any number of times per wake-up.  A
/// plain wait() has no predicate and is woken by every notify.
class Waitable {
 public:
  Waitable() = default;
  Waitable(const Waitable&) = delete;
  Waitable& operator=(const Waitable&) = delete;
  /// Detaches any processes still blocked here (they are torn down later).
  ~Waitable();

  /// Schedules every blocked waiter whose predicate holds (or that has none)
  /// to resume at the current simulation time, in registration order; the
  /// others stay registered in place.  Never switches fibers itself.
  void notify_all();

  /// Processes currently registered (blocked) on this waitable.
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

 private:
  friend class Process;
  struct Waiter {
    Process* proc;
    bool (*ready)(void*);  ///< nullptr for a plain wait()
    void* pred;            ///< the predicate object on the waiter's fiber stack
  };
  void remove(const Process* p);

  std::vector<Waiter> waiters_;  ///< registration order; storage is reused
};

class Process {
 public:
  using Body = std::function<void(Process&)>;

  Process(Simulator& sim, int id, std::string name, Body body);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Schedules the first activation at absolute time `when`.
  void start(Time when = 0);

  /// The process whose fiber is currently executing, or nullptr from
  /// event/driver context.  Exactly one fiber runs at a time, so a static
  /// pointer suffices; code that can run on behalf of more than one fiber
  /// (e.g. the endpoint's send path, used by both the rank's main process
  /// and its collective-progress process) uses this to charge CPU to the
  /// right one.
  [[nodiscard]] static Process* current() { return current_; }

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool finished() const { return state_ == State::Finished; }
  [[nodiscard]] bool blocked() const { return state_ == State::Blocked; }
  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] Time now() const { return sim_.now(); }

  /// Re-raises any exception the body terminated with.
  void rethrow_if_failed();

  // ---- callable only from within the process body ----

  /// Charges `d` of virtual CPU time to this process.
  void compute(Time d);

  /// Suspends until all events at the current instant have run.
  void yield();

  /// Suspends until `w` is notified.
  void wait(Waitable& w) { block_on(w, nullptr, nullptr); }

  /// Suspends until `pred()` holds.  `pred` must be a pure read (see
  /// Waitable): notify_all evaluates it without resuming this fiber, and
  /// the fiber re-checks it on resumption, since another fiber resumed at
  /// the same instant may have changed the state again.
  template <typename Pred>
  void wait_until(Waitable& w, Pred pred) {
    while (!pred()) {
      block_on(w, [](void* p) { return static_cast<bool>((*static_cast<Pred*>(p))()); },
               &pred);
    }
  }

 private:
  friend class Waitable;
  enum class State { Created, Runnable, Running, Blocked, Finished };

  /// Thrown through the body's stack when the runtime tears down a process
  /// that never finished.
  struct Killed {};

  void fiber_main();
  void block_on(Waitable& w, bool (*ready)(void*), void* pred);
  /// Called by Waitable::notify_all on a blocked waiter: schedules it to
  /// resume at the current time.
  void wake();
  void resume();             // driver side: switch into the fiber until it suspends
  void suspend_to_driver();  // process side: switch back to the event loop

  Simulator& sim_;
  int id_;
  std::string name_;
  Body body_;

  bool kill_requested_ = false;
  State state_ = State::Created;
  Waitable* blocked_on_ = nullptr;  ///< where this process is registered, if anywhere
  std::exception_ptr error_;
  Fiber fiber_;

  static Process* current_;
};

/// Owns a set of processes and drives them to completion.
class ProcessSet {
 public:
  explicit ProcessSet(Simulator& sim) : sim_(sim) {}

  Process& add(std::string name, Process::Body body);

  /// Starts every process at time `when`, runs the event loop until all
  /// finish, and rethrows the first process failure.  Throws std::runtime_error
  /// naming the blocked processes if the system deadlocks.
  void run_all(Time when = 0);

  [[nodiscard]] std::size_t size() const { return procs_.size(); }
  [[nodiscard]] Process& at(std::size_t i) { return *procs_[i]; }

 private:
  Simulator& sim_;
  std::vector<std::unique_ptr<Process>> procs_;
};

}  // namespace ib12x::sim
