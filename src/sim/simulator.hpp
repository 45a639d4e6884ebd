// The simulation kernel: a virtual clock plus the deterministic event queue.
//
// Model code is single-threaded: exactly one piece of it runs at a time
// (either an event handler, or one simulated process — see process.hpp —
// which runs on a fiber and hands control back to the event loop at every
// suspension point), all on one OS thread.  No locking is needed around the
// queue or the clock.  Application arithmetic alone may run on host worker
// threads (host_pool.hpp): it schedules no events and reads no model state.
//
// Besides virtual time the kernel tracks its own wall-clock throughput
// (events/sec, fiber switches/sec, kernel allocations) so the simulation
// substrate's speed is observable through the telemetry registry and the
// BENCH_kernel.json trajectory.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ib12x::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `when`.  Scheduling in the past is a
  /// model bug and throws.  The event is taken by rvalue reference, so a
  /// callable built at the call site moves once, straight into its queue slot.
  void at(Time when, Event&& fn) {
    if (when < now_) {
      throw std::logic_error("Simulator::at: scheduling in the past (when=" +
                             std::to_string(when) + " now=" + std::to_string(now_) + ")");
    }
    queue_.push(when, std::move(fn));
  }

  /// Schedules `fn` `delay` picoseconds from now.
  void after(Time delay, Event&& fn) { at(now_ + delay, std::move(fn)); }

  /// Runs the earliest pending event, advancing the clock to its timestamp.
  /// Returns false if the queue was empty.
  bool step() {
    if (queue_.empty()) return false;
    Time when = 0;
    Event fn = queue_.pop(when);
    now_ = when;
    ++processed_;
    fn();
    return true;
  }

  /// Runs events until the queue drains.
  void run() {
    const auto wall_start = std::chrono::steady_clock::now();
    while (step()) {
    }
    run_wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  }

  /// Runs events with timestamps <= `deadline`; leaves later events queued
  /// and advances the clock to exactly `deadline`.
  void run_until(Time deadline) {
    const auto wall_start = std::chrono::steady_clock::now();
    for (;;) {
      Time when = 0;
      Event fn;
      // One ordering query per iteration: the queue checks the deadline as
      // part of the pop instead of answering next_time() and pop separately.
      if (!queue_.pop_at_or_before(deadline, when, fn)) break;
      now_ = when;
      ++processed_;
      fn();
    }
    if (now_ < deadline) {
      now_ = deadline;
      queue_.advance_to(deadline);  // keep same-instant pushes on the fast lane
    }
    run_wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::uint64_t events_scheduled() const { return queue_.pushed(); }
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }

  // ---- kernel self-telemetry ----

  /// Pushes that took the same-instant FIFO lane / the time-ordered heap.
  [[nodiscard]] std::uint64_t lane_events() const { return queue_.lane_pushed(); }
  [[nodiscard]] std::uint64_t heap_events() const { return queue_.heap_pushed(); }
  /// Allocations the event queue performed (storage growth only).
  [[nodiscard]] std::uint64_t kernel_allocs() const { return queue_.alloc_events(); }
  [[nodiscard]] double allocs_per_event() const {
    return processed_ == 0 ? 0.0
                           : static_cast<double>(queue_.alloc_events()) /
                                 static_cast<double>(processed_);
  }

  /// Fiber context switches (counted by Process::resume; 2 per round trip).
  [[nodiscard]] std::uint64_t fiber_switches() const { return fiber_switches_; }
  void note_fiber_switches(std::uint64_t n) { fiber_switches_ += n; }

  /// Wall-clock seconds spent inside run()/run_until() event loops.
  [[nodiscard]] double run_wall_seconds() const {
    return static_cast<double>(run_wall_ns_) / 1e9;
  }
  [[nodiscard]] double events_per_wall_sec() const {
    return run_wall_ns_ == 0 ? 0.0
                             : static_cast<double>(processed_) * 1e9 /
                                   static_cast<double>(run_wall_ns_);
  }
  [[nodiscard]] double switches_per_wall_sec() const {
    return run_wall_ns_ == 0 ? 0.0
                             : static_cast<double>(fiber_switches_) * 1e9 /
                                   static_cast<double>(run_wall_ns_);
  }

 private:
  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t fiber_switches_ = 0;
  std::int64_t run_wall_ns_ = 0;
};

}  // namespace ib12x::sim
