#include "sim/process.hpp"

#include <stdexcept>
#include <utility>

namespace ib12x::sim {

Waitable::~Waitable() {
  for (const Waiter& w : waiters_) w.proc->blocked_on_ = nullptr;
}

void Waitable::notify_all() {
  // Compacts in place, keeping registration order.  Nothing here can touch
  // the list again: predicates are pure reads, and wake() only schedules an
  // event (the woken fiber re-registers, if at all, when that event runs).
  std::size_t kept = 0;
  for (const Waiter& w : waiters_) {
    if (w.ready == nullptr || w.ready(w.pred)) {
      w.proc->wake();
    } else {
      waiters_[kept++] = w;
    }
  }
  waiters_.resize(kept);
}

void Waitable::remove(const Process* p) {
  std::erase_if(waiters_, [p](const Waiter& w) { return w.proc == p; });
}

Process::Process(Simulator& sim, int id, std::string name, Body body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)),
      fiber_([this] { fiber_main(); }) {}

Process::~Process() {
  if (state_ != State::Finished) {
    // Tear down a stuck/blocked process: resume it with the kill flag set;
    // its next suspend point throws Killed and unwinds the fiber stack —
    // and with it the predicate its waiter entry points at, so the entry
    // goes first.
    if (blocked_on_ != nullptr) blocked_on_->remove(this);
    blocked_on_ = nullptr;
    kill_requested_ = true;
    resume();
  }
}

void Process::start(Time when) {
  if (state_ != State::Created) throw std::logic_error("Process::start: already started");
  state_ = State::Runnable;
  sim_.at(when, [this] { resume(); });
}

void Process::rethrow_if_failed() {
  if (error_) std::rethrow_exception(error_);
}

void Process::fiber_main() {
  if (!kill_requested_) {
    try {
      body_(*this);
    } catch (const Killed&) {
      // torn down by the runtime; nothing to record
    } catch (...) {
      error_ = std::current_exception();
    }
  }
  state_ = State::Finished;
  // Falling off the end returns control to the driver (Fiber::run_body).
}

Process* Process::current_ = nullptr;

void Process::resume() {
  state_ = State::Running;
  sim_.note_fiber_switches(2);  // in and back out
  Process* prev = current_;  // always nullptr: fibers resume only from the driver
  current_ = this;
  fiber_.resume();
  current_ = prev;
}

void Process::suspend_to_driver() {
  fiber_.yield();
  if (kill_requested_) throw Killed{};
}

void Process::compute(Time d) {
  if (d < 0) throw std::logic_error("Process::compute: negative duration");
  state_ = State::Runnable;
  sim_.after(d, [this] { resume(); });
  suspend_to_driver();
}

void Process::yield() { compute(0); }

void Process::block_on(Waitable& w, bool (*ready)(void*), void* pred) {
  state_ = State::Blocked;
  blocked_on_ = &w;
  w.waiters_.push_back({this, ready, pred});
  suspend_to_driver();
}

void Process::wake() {
  state_ = State::Runnable;
  blocked_on_ = nullptr;
  sim_.after(0, [this] { resume(); });
}

Process& ProcessSet::add(std::string name, Process::Body body) {
  int id = static_cast<int>(procs_.size());
  procs_.push_back(std::make_unique<Process>(sim_, id, std::move(name), std::move(body)));
  return *procs_.back();
}

void ProcessSet::run_all(Time when) {
  for (auto& p : procs_) p->start(when);
  sim_.run();
  bool all_done = true;
  std::string stuck;
  for (auto& p : procs_) {
    if (!p->finished()) {
      all_done = false;
      if (!stuck.empty()) stuck += ", ";
      stuck += p->name();
    }
  }
  for (auto& p : procs_) p->rethrow_if_failed();
  if (!all_done) {
    throw std::runtime_error("ProcessSet: deadlock — event queue empty but processes blocked: " + stuck);
  }
}

}  // namespace ib12x::sim
