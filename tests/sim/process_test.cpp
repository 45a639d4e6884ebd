#include "sim/process.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace ib12x::sim {
namespace {

TEST(Process, ComputeAdvancesVirtualTime) {
  Simulator sim;
  ProcessSet procs(sim);
  Time end = -1;
  procs.add("p0", [&](Process& p) {
    p.compute(microseconds(5));
    p.compute(microseconds(2));
    end = p.now();
  });
  procs.run_all();
  EXPECT_EQ(end, microseconds(7));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Simulator sim;
  ProcessSet procs(sim);
  std::vector<std::string> trace;
  procs.add("a", [&](Process& p) {
    trace.push_back("a@" + std::to_string(p.now()));
    p.compute(10);
    trace.push_back("a@" + std::to_string(p.now()));
  });
  procs.add("b", [&](Process& p) {
    trace.push_back("b@" + std::to_string(p.now()));
    p.compute(5);
    trace.push_back("b@" + std::to_string(p.now()));
  });
  procs.run_all();
  EXPECT_EQ(trace, (std::vector<std::string>{"a@0", "b@0", "b@5", "a@10"}));
}

TEST(Process, WaitableWakesBlockedProcess) {
  Simulator sim;
  ProcessSet procs(sim);
  Waitable w;
  bool flag = false;
  Time woke_at = -1;
  procs.add("waiter", [&](Process& p) {
    p.wait_until(w, [&] { return flag; });
    woke_at = p.now();
  });
  procs.add("notifier", [&](Process& p) {
    p.compute(100);
    flag = true;
    w.notify_all();
  });
  procs.run_all();
  EXPECT_EQ(woke_at, 100);
}

TEST(Process, WaitUntilRechecksPredicate) {
  Simulator sim;
  ProcessSet procs(sim);
  Waitable w;
  int counter = 0;
  procs.add("waiter", [&](Process& p) {
    p.wait_until(w, [&] { return counter >= 3; });
    EXPECT_EQ(p.now(), 30);
  });
  procs.add("ticker", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      p.compute(10);
      ++counter;
      w.notify_all();  // first two notifies find the predicate still false
    }
  });
  procs.run_all();
}

TEST(Process, NotifyWithNoWaitersIsNoOp) {
  Simulator sim;
  Waitable w;
  w.notify_all();  // must not crash or schedule anything
  EXPECT_TRUE(sim.idle());
}

TEST(Process, ManyWaitersAllWake) {
  Simulator sim;
  ProcessSet procs(sim);
  Waitable w;
  bool open = false;
  int woke = 0;
  for (int i = 0; i < 8; ++i) {
    procs.add("w" + std::to_string(i), [&](Process& p) {
      p.wait_until(w, [&] { return open; });
      ++woke;
    });
  }
  procs.add("opener", [&](Process& p) {
    p.compute(50);
    open = true;
    w.notify_all();
  });
  procs.run_all();
  EXPECT_EQ(woke, 8);
}

TEST(Process, FalsePredicateIsNotResumed) {
  Simulator sim;
  ProcessSet procs(sim);
  Waitable w;
  bool open = false;
  std::uint64_t switches_before = 0;
  std::uint64_t switches_after = 0;
  procs.add("waiter", [&](Process& p) { p.wait_until(w, [&] { return open; }); });
  procs.add("notifier", [&](Process& p) {
    p.compute(10);  // the waiter is blocked by now
    switches_before = sim.fiber_switches();
    for (int i = 0; i < 5; ++i) w.notify_all();  // predicate still false
    EXPECT_EQ(w.waiting(), 1u);
    p.compute(10);
    switches_after = sim.fiber_switches();
    open = true;
    w.notify_all();
    EXPECT_EQ(w.waiting(), 0u);
  });
  procs.run_all();
  // Only the notifier's own compute() round trip: the false notifies
  // switched into nobody.
  EXPECT_EQ(switches_after - switches_before, 2u);
}

TEST(Process, TrueWaitersResumeInRegistrationOrder) {
  Simulator sim;
  ProcessSet procs(sim);
  Waitable w;
  std::vector<int> ready(4, 0);
  std::vector<int> resumed;
  // Waiters 0..3 register in that order (staggered starts); each waits on
  // its own flag.
  for (int i = 0; i < 4; ++i) {
    procs.add("w" + std::to_string(i), [&, i](Process& p) {
      p.compute(i);
      p.wait_until(w, [&, i] { return ready[static_cast<std::size_t>(i)] != 0; });
      resumed.push_back(i);
    });
  }
  procs.add("notifier", [&](Process& p) {
    p.compute(10);
    ready = {0, 1, 0, 1};  // 1 and 3 may go; 0 and 2 stay registered
    w.notify_all();
    EXPECT_EQ(w.waiting(), 2u);
    p.compute(10);
    EXPECT_EQ(resumed, (std::vector<int>{1, 3}));
    ready = {1, 1, 1, 1};
    w.notify_all();
  });
  procs.run_all();
  EXPECT_EQ(resumed, (std::vector<int>{1, 3, 0, 2}));
}

TEST(Process, PlainWaitWakesOnEveryNotify) {
  Simulator sim;
  ProcessSet procs(sim);
  Waitable w;
  int wakes = 0;
  procs.add("waiter", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      p.wait(w);
      ++wakes;
    }
  });
  procs.add("notifier", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      p.compute(10);
      w.notify_all();  // nothing changed, but a plain wait has no predicate
    }
  });
  procs.run_all();
  EXPECT_EQ(wakes, 3);
}

TEST(Process, KilledWaiterLeavesNoEntry) {
  Simulator sim;
  Waitable w;  // outlives the processes
  bool never = false;
  {
    ProcessSet procs(sim);
    procs.add("stuck", [&](Process& p) { p.wait_until(w, [&] { return never; }); });
    procs.add("plain", [&](Process& p) { p.wait(w); });
    EXPECT_THROW(procs.run_all(), std::runtime_error);  // deadlock
    EXPECT_EQ(w.waiting(), 2u);
  }  // both processes torn down while blocked
  EXPECT_EQ(w.waiting(), 0u);
  never = true;
  w.notify_all();  // must touch neither the dead processes nor their stacks
  EXPECT_TRUE(sim.idle());
}

TEST(Process, WaitableDestroyedBeforeItsWaiter) {
  Simulator sim;
  ProcessSet procs(sim);
  auto w = std::make_unique<Waitable>();
  procs.add("stuck", [&](Process& p) { p.wait(*w); });
  EXPECT_THROW(procs.run_all(), std::runtime_error);
  w.reset();  // the process is torn down after its waitable is gone
}

TEST(Process, DeadlockIsDiagnosed) {
  Simulator sim;
  ProcessSet procs(sim);
  Waitable w;
  procs.add("stuck", [&](Process& p) {
    p.wait(w);  // nobody will ever notify
  });
  EXPECT_THROW(procs.run_all(), std::runtime_error);
}

TEST(Process, BodyExceptionPropagates) {
  Simulator sim;
  ProcessSet procs(sim);
  procs.add("thrower", [](Process& p) {
    p.compute(1);
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(procs.run_all(), std::runtime_error);
}

TEST(Process, YieldLetsSameInstantEventsRun) {
  Simulator sim;
  ProcessSet procs(sim);
  bool event_ran = false;
  procs.add("p", [&](Process& p) {
    p.simulator().after(0, [&] { event_ran = true; });
    EXPECT_FALSE(event_ran);
    p.yield();
    EXPECT_TRUE(event_ran);
    EXPECT_EQ(p.now(), 0);
  });
  procs.run_all();
}

TEST(Process, NegativeComputeThrows) {
  Simulator sim;
  ProcessSet procs(sim);
  procs.add("p", [](Process& p) { p.compute(-1); });
  EXPECT_THROW(procs.run_all(), std::logic_error);
}

TEST(Process, RunIsDeterministicAcrossRepeats) {
  auto run_once = [] {
    Simulator sim;
    ProcessSet procs(sim);
    Waitable w;
    std::vector<Time> stamps;
    int turns = 0;
    procs.add("ping", [&](Process& p) {
      for (int i = 0; i < 5; ++i) {
        p.compute(3);
        ++turns;
        w.notify_all();
        stamps.push_back(p.now());
      }
    });
    procs.add("pong", [&](Process& p) {
      p.wait_until(w, [&] { return turns >= 5; });
      stamps.push_back(p.now());
    });
    procs.run_all();
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ib12x::sim
