// Deterministic event queue: events fire in (time, insertion-sequence) order,
// so two events scheduled for the same instant always run in the order they
// were scheduled, independent of queue internals.
//
// Layout is built for throughput:
//   - Events live in a slot slab; a 4-ary heap orders 24-byte POD entries
//     whose (time, seq) rank is packed into one 128-bit key, so a sift step
//     is a single integer compare and never touches a callable.
//   - Events scheduled for the *current* instant (CQE demux, credit returns,
//     process wakeups — the dominant case) bypass the heap entirely through a
//     same-instant FIFO ring (the "lane").
//   - Slab slots and ring storage are recycled, so a warmed-up queue performs
//     zero allocations per event (alloc_events() counts the exceptions).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace ib12x::sim {

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `when`.  `when` may equal the current
  /// time (the event runs after already-queued events for that instant).
  void push(Time when, Event&& fn) {
    assert(when >= 0 && "simulated time is non-negative (key packing relies on it)");
    const std::uint64_t seq = next_seq_++;
    if (when == lane_time_) {
      lane_emplace(seq, std::move(fn));
      ++lane_pushed_;
      return;
    }
    const std::uint32_t slot = acquire_slot(std::move(fn));
    if (heap_.size() == heap_.capacity()) ++allocs_;
    heap_.push_back(HeapEntry{static_cast<std::uint64_t>(when), seq, slot});
    sift_up(heap_.size() - 1);
    ++heap_pushed_;
  }

  [[nodiscard]] bool empty() const { return lane_count_ == 0 && heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return lane_count_ + heap_.size(); }

  /// Earliest pending event time; only valid when !empty().
  [[nodiscard]] Time next_time() const {
    if (lane_count_ == 0) return static_cast<Time>(heap_.front().when_u);
    if (heap_.empty()) return lane_time_;
    return std::min(lane_time_, static_cast<Time>(heap_.front().when_u));
  }

  /// Removes and returns the earliest event, storing its time in `when`.
  /// Precondition: !empty().
  Event pop(Time& when) {
    if (lane_count_ == 0 || heap_before_lane()) return pop_heap_entry(when);
    return pop_lane_entry(when);
  }

  /// Single-ordering-query variant for Simulator::run_until: pops the
  /// earliest event only if its timestamp is <= `deadline`.
  bool pop_at_or_before(Time deadline, Time& when, Event& out) {
    if (lane_count_ != 0 && !heap_before_lane()) {
      if (lane_time_ > deadline) return false;
      out = pop_lane_entry(when);
      return true;
    }
    if (heap_.empty() || static_cast<Time>(heap_.front().when_u) > deadline) return false;
    out = pop_heap_entry(when);
    return true;
  }

  /// Tells the queue the clock moved to `t` without popping (run_until hit a
  /// deadline beyond the last event), so same-instant pushes at `t` can take
  /// the FIFO lane.  Requires the lane to be drained, which run-to-deadline
  /// guarantees (lane events never postdate the instant they were pushed).
  void advance_to(Time t) {
    if (lane_count_ == 0) lane_time_ = t;
  }

  /// Total number of events ever pushed (monotone counter, for stats).
  [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }
  /// Pushes that took the same-instant FIFO lane vs. the time-ordered heap.
  [[nodiscard]] std::uint64_t lane_pushed() const { return lane_pushed_; }
  [[nodiscard]] std::uint64_t heap_pushed() const { return heap_pushed_; }
  /// Allocations the queue has performed (storage growth only; a warmed-up
  /// queue recycles slots and pushes events allocation-free).
  [[nodiscard]] std::uint64_t alloc_events() const { return allocs_; }

 private:
  /// (time, seq) packed high/low into one 128-bit integer: lexicographic
  /// order becomes a single unsigned compare.  Sound because simulated time
  /// is non-negative (asserted in push) and seq is monotone.
  using Key = unsigned __int128;
  static Key make_key(Time when, std::uint64_t seq) {
    return (static_cast<Key>(static_cast<std::uint64_t>(when)) << 64) | seq;
  }

  struct HeapEntry {
    // (when, seq) stored as two words — 24-byte entries, not the 32 bytes an
    // aligned __int128 member would force — and compared as one packed key.
    std::uint64_t when_u;
    std::uint64_t seq;
    std::uint32_t slot;
    [[nodiscard]] Key key() const { return (static_cast<Key>(when_u) << 64) | seq; }
  };
  struct LaneEntry {
    std::uint64_t seq = 0;
    Event fn;
  };

  /// True when the heap's top sorts before the lane's front in global
  /// (time, seq) order.  Only meaningful while the lane is non-empty, i.e.
  /// while the current instant is lane_time_; a heap event ties only at that
  /// same instant, and then the smaller sequence number wins.
  [[nodiscard]] bool heap_before_lane() const {
    if (heap_.empty()) return false;
    return heap_.front().key() < make_key(lane_time_, lane_[lane_head_].seq);
  }

  // Min-heap over HeapEntry::key, 4-ary: children of i are 4i+1..4i+4.  The
  // wider fan-out halves the levels a pop touches vs. a binary heap, and the
  // packed keys make each level a handful of branch-predictable compares.
  // Any min-heap pops in identical (time, seq) order — the comparator is a
  // total order — so the arity is invisible to determinism.

  void sift_up(std::size_t i) {
    const HeapEntry e = heap_[i];
    const Key k = e.key();
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (heap_[parent].key() <= k) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Re-seats `e` (the former last element) starting from the root after the
  /// minimum was removed.
  void sift_down_root(const HeapEntry e) {
    const std::size_t n = heap_.size();
    const Key k = e.key();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + 4, n);
      std::size_t min_child = first;
      Key min_key = heap_[first].key();
      for (std::size_t c = first + 1; c < last; ++c) {
        const Key ck = heap_[c].key();
        if (ck < min_key) { min_child = c; min_key = ck; }
      }
      if (k <= min_key) break;
      heap_[i] = heap_[min_child];
      i = min_child;
    }
    heap_[i] = e;
  }

  std::uint32_t acquire_slot(Event&& fn) {
    if (!free_slots_.empty()) {
      const std::uint32_t s = free_slots_.back();
      free_slots_.pop_back();
      slots_[s] = std::move(fn);
      return s;
    }
    if (slots_.size() == slots_.capacity()) ++allocs_;
    slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  Event pop_heap_entry(Time& when) {
    const HeapEntry top = heap_.front();
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down_root(tail);
    when = static_cast<Time>(top.when_u);
    lane_time_ = when;  // this is now the current instant
    Event fn = std::move(slots_[top.slot]);
    if (free_slots_.size() == free_slots_.capacity()) ++allocs_;
    free_slots_.push_back(top.slot);
    return fn;
  }

  Event pop_lane_entry(Time& when) {
    when = lane_time_;
    Event fn = std::move(lane_[lane_head_].fn);
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_count_;
    return fn;
  }

  void lane_emplace(std::uint64_t seq, Event&& fn) {
    if (lane_count_ == lane_.size()) grow_lane();
    const std::size_t tail = (lane_head_ + lane_count_) & (lane_.size() - 1);
    lane_[tail].seq = seq;
    lane_[tail].fn = std::move(fn);
    ++lane_count_;
  }

  void grow_lane() {
    const std::size_t cap = lane_.empty() ? 16 : lane_.size() * 2;  // power of two
    std::vector<LaneEntry> next(cap);
    for (std::size_t i = 0; i < lane_count_; ++i) {
      next[i] = std::move(lane_[(lane_head_ + i) & (lane_.size() - 1)]);
    }
    lane_ = std::move(next);
    lane_head_ = 0;
    ++allocs_;
  }

  std::vector<HeapEntry> heap_;           // 4-ary min-heap of POD ordering entries
  std::vector<Event> slots_;              // slab holding heap-ordered events
  std::vector<std::uint32_t> free_slots_; // recycled slab indices
  std::vector<LaneEntry> lane_;           // same-instant FIFO ring (power-of-two)
  std::size_t lane_head_ = 0;
  std::size_t lane_count_ = 0;
  Time lane_time_ = 0;  ///< the current instant: time of the last popped event
  std::uint64_t next_seq_ = 0;
  std::uint64_t lane_pushed_ = 0;
  std::uint64_t heap_pushed_ = 0;
  std::uint64_t allocs_ = 0;
};

}  // namespace ib12x::sim
