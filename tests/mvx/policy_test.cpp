#include "mvx/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace ib12x::mvx {
namespace {

constexpr std::int64_t kThresh = 16 * 1024;

TEST(Policy, BindingAlwaysRailZero) {
  RailCursor cur;
  for (std::int64_t size : {0L, 100L, 1L << 20}) {
    for (auto kind : {CommKind::Blocking, CommKind::Nonblocking, CommKind::Collective}) {
      Schedule s = choose_schedule(Policy::Binding, kind, size, 4, kThresh, cur);
      EXPECT_FALSE(s.stripe);
      EXPECT_EQ(s.rail, 0);
    }
  }
}

TEST(Policy, RoundRobinCycles) {
  RailCursor cur;
  for (int i = 0; i < 12; ++i) {
    Schedule s = choose_schedule(Policy::RoundRobin, CommKind::Blocking, 1024, 4, kThresh, cur);
    EXPECT_FALSE(s.stripe);
    EXPECT_EQ(s.rail, i % 4);
  }
}

TEST(Policy, StripingRespectsThreshold) {
  RailCursor cur;
  EXPECT_FALSE(choose_schedule(Policy::EvenStriping, CommKind::Blocking, kThresh - 1, 4, kThresh, cur).stripe);
  EXPECT_TRUE(choose_schedule(Policy::EvenStriping, CommKind::Blocking, kThresh, 4, kThresh, cur).stripe);
  EXPECT_TRUE(choose_schedule(Policy::EvenStriping, CommKind::Blocking, 1 << 20, 4, kThresh, cur).stripe);
}

TEST(Policy, StripingSmallUsesSingleQp) {
  // Paper fig. 3: below the threshold only one QP carries the message.
  RailCursor cur;
  for (int i = 0; i < 5; ++i) {
    Schedule s = choose_schedule(Policy::EvenStriping, CommKind::Blocking, 8, 4, kThresh, cur);
    EXPECT_FALSE(s.stripe);
    EXPECT_EQ(s.rail, 0);
  }
}

TEST(Policy, EpcMatchesMarker) {
  RailCursor cur;
  // Blocking large → stripe.
  EXPECT_TRUE(choose_schedule(Policy::EPC, CommKind::Blocking, 1 << 20, 4, kThresh, cur).stripe);
  // Blocking small → single rail 0 (original-like).
  Schedule s = choose_schedule(Policy::EPC, CommKind::Blocking, 64, 4, kThresh, cur);
  EXPECT_FALSE(s.stripe);
  EXPECT_EQ(s.rail, 0);
  // Non-blocking large → round robin, never stripes.
  RailCursor cur2;
  for (int i = 0; i < 8; ++i) {
    Schedule nb = choose_schedule(Policy::EPC, CommKind::Nonblocking, 1 << 20, 4, kThresh, cur2);
    EXPECT_FALSE(nb.stripe);
    EXPECT_EQ(nb.rail, i % 4);
  }
  // Collective large → stripe (even though collectives issue non-blocking calls).
  EXPECT_TRUE(choose_schedule(Policy::EPC, CommKind::Collective, 1 << 20, 4, kThresh, cur).stripe);
  // Collective small → round robin.
  EXPECT_FALSE(choose_schedule(Policy::EPC, CommKind::Collective, 1024, 4, kThresh, cur).stripe);
}

TEST(Policy, SingleRailShortCircuits) {
  RailCursor cur;
  for (auto p : {Policy::Binding, Policy::RoundRobin, Policy::EvenStriping, Policy::EPC,
                 Policy::WeightedStriping, Policy::Adaptive}) {
    Schedule s = choose_schedule(p, CommKind::Blocking, 1 << 20, 1, kThresh, cur);
    EXPECT_FALSE(s.stripe);
    EXPECT_EQ(s.rail, 0);
  }
}

// Every {policy × kind × size} cell of the schedule table in one place:
// sub-threshold, exactly-at-threshold, and large.  `RR` also asserts that
// the shared per-peer cursor advances (and that Rail0/Stripe leave it
// alone — striping must never consume a round-robin slot).
enum class Want : std::uint8_t { Rail0, RR, Stripe };

TEST(Policy, FullScheduleTable) {
  constexpr auto B = CommKind::Blocking;
  constexpr auto N = CommKind::Nonblocking;
  constexpr auto C = CommKind::Collective;
  struct Row {
    Policy p;
    CommKind k;
    Want small, at_thresh, large;  // 1 KiB, 16 KiB, 1 MiB
  };
  constexpr Row kTable[] = {
      {Policy::Binding, B, Want::Rail0, Want::Rail0, Want::Rail0},
      {Policy::Binding, N, Want::Rail0, Want::Rail0, Want::Rail0},
      {Policy::Binding, C, Want::Rail0, Want::Rail0, Want::Rail0},
      {Policy::RoundRobin, B, Want::RR, Want::RR, Want::RR},
      {Policy::RoundRobin, N, Want::RR, Want::RR, Want::RR},
      {Policy::RoundRobin, C, Want::RR, Want::RR, Want::RR},
      {Policy::EvenStriping, B, Want::Rail0, Want::Stripe, Want::Stripe},
      {Policy::EvenStriping, N, Want::Rail0, Want::Stripe, Want::Stripe},
      {Policy::EvenStriping, C, Want::Rail0, Want::Stripe, Want::Stripe},
      {Policy::WeightedStriping, B, Want::Rail0, Want::Stripe, Want::Stripe},
      {Policy::WeightedStriping, N, Want::Rail0, Want::Stripe, Want::Stripe},
      {Policy::WeightedStriping, C, Want::Rail0, Want::Stripe, Want::Stripe},
      // Adaptive resolves its real rail in the channel; bare calls are RR.
      {Policy::Adaptive, B, Want::RR, Want::RR, Want::RR},
      {Policy::Adaptive, N, Want::RR, Want::RR, Want::RR},
      {Policy::Adaptive, C, Want::RR, Want::RR, Want::RR},
      // The paper's marker table (§3.2–3.3), including the sub-threshold
      // collective → RR cell.
      {Policy::EPC, B, Want::Rail0, Want::Stripe, Want::Stripe},
      {Policy::EPC, N, Want::RR, Want::RR, Want::RR},
      {Policy::EPC, C, Want::RR, Want::Stripe, Want::Stripe},
  };
  constexpr int kRails = 4;
  for (const Row& row : kTable) {
    RailCursor cur;
    int expect_next = 0;
    const std::int64_t sizes[] = {1024, kThresh, 1 << 20};
    const Want wants[] = {row.small, row.at_thresh, row.large};
    for (int i = 0; i < 3; ++i) {
      const Schedule s = choose_schedule(row.p, row.k, sizes[i], kRails, kThresh, cur);
      const auto label = [&] {
        return std::string(to_string(row.p)) + "/" + to_string(row.k) + "/" +
               std::to_string(sizes[i]);
      };
      switch (wants[i]) {
        case Want::Rail0:
          EXPECT_FALSE(s.stripe) << label();
          EXPECT_EQ(s.rail, 0) << label();
          break;
        case Want::RR:
          EXPECT_FALSE(s.stripe) << label();
          EXPECT_EQ(s.rail, expect_next) << label();
          expect_next = (expect_next + 1) % kRails;
          break;
        case Want::Stripe:
          EXPECT_TRUE(s.stripe) << label();
          break;
      }
      EXPECT_EQ(cur.next, expect_next) << label() << " cursor";
    }
  }
  // nrails <= 1 short-circuits every cell to a whole message on rail 0.
  for (const Row& row : kTable) {
    RailCursor cur;
    for (std::int64_t bytes : {1024L, static_cast<std::int64_t>(kThresh), 1L << 20}) {
      const Schedule s = choose_schedule(row.p, row.k, bytes, 1, kThresh, cur);
      EXPECT_FALSE(s.stripe);
      EXPECT_EQ(s.rail, 0);
      EXPECT_EQ(cur.next, 0);
    }
  }
}

// Property-style invariant sweep over the stripe planner: a seeded generator
// draws (rail count × live-rail mask × size × floor × weights × base offset)
// and every plan must (a) cover the message exactly — contiguous offsets,
// lengths summing to the byte count, (b) never cut a stripe below the floor,
// (c) place stripes only on live rails, at most once per rail, and (d) assign
// rails by list position: the plan over rails 0..n-1, remapped through the
// live list, is the same plan.
TEST(Policy, StripePlanInvariantsHoldForAllLiveMasks) {
  sim::Rng rng(0x57121fe5);
  for (int iter = 0; iter < 2000; ++iter) {
    const int nrails = 1 + static_cast<int>(rng.next_below(6));
    // Non-empty subset of [0, nrails) — the surviving rails under failover.
    std::vector<int> live;
    for (int r = 0; r < nrails; ++r) {
      if (rng.next_below(2) == 0) live.push_back(r);
    }
    if (live.empty()) live.push_back(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nrails))));

    const std::int64_t min_stripe = 512LL << rng.next_below(4);  // 512..4096
    std::int64_t bytes = 0;
    switch (rng.next_below(4)) {
      case 0: bytes = 1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(min_stripe))); break;
      case 1: bytes = min_stripe * static_cast<std::int64_t>(live.size()); break;  // exact fit
      case 2: bytes = 1 + static_cast<std::int64_t>(rng.next_below(256 * 1024)); break;
      default: bytes = 1 + static_cast<std::int64_t>(rng.next_below(4 << 20)); break;
    }
    std::vector<double> weights;
    if (rng.next_below(3) == 0) {
      weights.resize(1 + rng.next_below(4));
      for (double& w : weights) w = 0.25 * static_cast<double>(1 + rng.next_below(16));
    }
    const std::int64_t base_off = static_cast<std::int64_t>(rng.next_below(1 << 20));
    RailCursor cursor{static_cast<int>(rng.next_below(static_cast<std::uint64_t>(live.size())))};
    RailCursor id_cursor = cursor;

    const std::vector<Stripe> plan =
        plan_stripes(bytes, base_off, live, min_stripe, weights, cursor);
    const auto label = [&] {
      return "iter " + std::to_string(iter) + " bytes=" + std::to_string(bytes) +
             " live=" + std::to_string(live.size()) + "/" + std::to_string(nrails) +
             " floor=" + std::to_string(min_stripe);
    };

    ASSERT_FALSE(plan.empty()) << label();
    ASSERT_LE(plan.size(), live.size()) << label();
    // (a) exact contiguous coverage from base_off.
    std::int64_t off = base_off, total = 0;
    for (const Stripe& s : plan) {
      EXPECT_EQ(s.offset, off) << label();
      EXPECT_GT(s.len, 0) << label();
      off += s.len;
      total += s.len;
    }
    EXPECT_EQ(total, bytes) << label();
    // (b) the floor binds whenever the message is big enough to honour it.
    if (plan.size() > 1 || bytes >= min_stripe) {
      for (const Stripe& s : plan) EXPECT_GE(s.len, min_stripe) << label();
    }
    // (c) live rails only, no rail twice.
    std::vector<int> used;
    for (const Stripe& s : plan) {
      EXPECT_NE(std::find(live.begin(), live.end(), s.rail), live.end())
          << label() << " dead rail " << s.rail;
      EXPECT_EQ(std::find(used.begin(), used.end(), s.rail), used.end())
          << label() << " rail " << s.rail << " used twice";
      used.push_back(s.rail);
    }
    // (d) the same plan in list-position space.
    std::vector<int> positions(live.size());
    std::iota(positions.begin(), positions.end(), 0);
    const std::vector<Stripe> id_plan =
        plan_stripes(bytes, base_off, positions, min_stripe, weights, id_cursor);
    ASSERT_EQ(id_plan.size(), plan.size()) << label();
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(plan[i].rail, live[static_cast<std::size_t>(id_plan[i].rail)]) << label();
      EXPECT_EQ(plan[i].offset, id_plan[i].offset) << label();
      EXPECT_EQ(plan[i].len, id_plan[i].len) << label();
    }
    EXPECT_EQ(cursor.next, id_cursor.next) << label();
  }
}

TEST(Policy, StripePlanDegenerateInputs) {
  RailCursor cur;
  const std::vector<int> four = {0, 1, 2, 3};
  EXPECT_TRUE(plan_stripes(0, 0, four, 2048, {}, cur).empty());
  EXPECT_TRUE(plan_stripes(-5, 0, four, 2048, {}, cur).empty());
  EXPECT_TRUE(plan_stripes(1 << 20, 0, std::vector<int>{}, 2048, {}, cur).empty());
  // A sub-floor message still travels: one stripe carrying everything.
  const auto tiny = plan_stripes(100, 64, std::vector<int>{3}, 2048, {}, cur);
  ASSERT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny[0].rail, 3);
  EXPECT_EQ(tiny[0].offset, 64);
  EXPECT_EQ(tiny[0].len, 100);
}

TEST(Policy, LeastLoadedRailHonoursLiveMask) {
  const std::vector<std::int64_t> load = {10, 0, 5, 7};
  EXPECT_EQ(least_loaded_rail(load), 1);
  EXPECT_EQ(least_loaded_rail(load, {1, 0, 1, 1}), 2);  // rail 1 down
  EXPECT_EQ(least_loaded_rail(load, {1, 0, 0, 1}), 3);
  // All down: fall back to the unmasked pick (recovery will re-arm a rail).
  EXPECT_EQ(least_loaded_rail(load, {0, 0, 0, 0}), 1);
}

TEST(Policy, Names) {
  EXPECT_STREQ(to_string(Policy::EPC), "EPC");
  EXPECT_STREQ(to_string(Policy::EvenStriping), "even-striping");
  EXPECT_STREQ(to_string(CommKind::Collective), "collective");
}

}  // namespace
}  // namespace ib12x::mvx
