#include "sim/fifo.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

namespace ib12x::sim {
namespace {

TEST(Fifo, KeepsOrderAcrossWrapAndGrowth) {
  Fifo<int> q;
  EXPECT_TRUE(q.empty());
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the head sits mid-ring when it grows.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(next_in++);
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
  for (; !q.empty(); q.pop_front()) ASSERT_EQ(q.front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(Fifo, PopReleasesOwnedState) {
  Fifo<std::shared_ptr<int>> q;
  auto p = std::make_shared<int>(7);
  q.push_back(p);
  EXPECT_EQ(p.use_count(), 2);
  q.pop_front();
  EXPECT_EQ(p.use_count(), 1);
}

TEST(Fifo, SwapAndMoveLeaveSourceEmpty) {
  Fifo<int> a;
  for (int i = 0; i < 5; ++i) a.emplace_back(i);
  Fifo<int> b;
  b.swap(a);
  EXPECT_TRUE(a.empty());
  ASSERT_EQ(b.size(), 5u);
  Fifo<int> c(std::move(b));
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): moved-from state is specified
  b.push_back(42);
  EXPECT_EQ(b.front(), 42);
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c.front(), 0);
}

}  // namespace
}  // namespace ib12x::sim
