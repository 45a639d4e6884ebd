// The event-state slab: values round-trip through slot ids, and freed slots
// are reused so a warmed-up slab stops growing.
#include "sim/slab.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

namespace ib12x::sim {
namespace {

TEST(Slab, ValuesRoundTripThroughSlots) {
  Slab<std::string> s;
  const std::uint32_t a = s.put("alpha");
  const std::uint32_t b = s.put("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(s.parked(), 2u);
  EXPECT_EQ(s.take(b), "beta");
  EXPECT_EQ(s.take(a), "alpha");
  EXPECT_EQ(s.parked(), 0u);
}

TEST(Slab, FreedSlotsAreReused) {
  Slab<std::unique_ptr<int>> s;
  std::set<std::uint32_t> seen;
  for (int round = 0; round < 100; ++round) {
    const std::uint32_t x = s.put(std::make_unique<int>(round));
    const std::uint32_t y = s.put(std::make_unique<int>(-round));
    seen.insert(x);
    seen.insert(y);
    EXPECT_EQ(*s.take(x), round);
    EXPECT_EQ(*s.take(y), -round);
  }
  EXPECT_EQ(seen.size(), 2u);  // two slots served every round
}

}  // namespace
}  // namespace ib12x::sim
