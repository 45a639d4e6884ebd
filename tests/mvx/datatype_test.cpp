// Reduction operators: integer Sum and Prod wrap modulo 2^N (as MPI
// implementations compute them) without signed-overflow undefined behaviour,
// which the sanitizer lane would report.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "mvx/datatype.hpp"

namespace ib12x::mvx {
namespace {

TEST(Datatype, Int64SumWrapsAtMax) {
  std::int64_t acc = std::numeric_limits<std::int64_t>::max();
  const std::int64_t one = 1;
  reduce_apply(Op::Sum, INT64, &acc, &one, 1);
  EXPECT_EQ(acc, std::numeric_limits<std::int64_t>::min());
}

TEST(Datatype, IntegerProdWraps) {
  std::int64_t acc64 = std::numeric_limits<std::int64_t>::max();
  const std::int64_t two64 = 2;
  reduce_apply(Op::Prod, INT64, &acc64, &two64, 1);
  EXPECT_EQ(acc64, -2);

  std::int32_t acc32[2] = {std::numeric_limits<std::int32_t>::max(),
                           std::numeric_limits<std::int32_t>::min()};
  const std::int32_t by[2] = {2, -1};
  reduce_apply(Op::Prod, INT32, acc32, by, 2);
  EXPECT_EQ(acc32[0], -2);
  EXPECT_EQ(acc32[1], std::numeric_limits<std::int32_t>::min());
}

TEST(Datatype, InRangeResultsUnchanged) {
  std::int32_t acc[3] = {-5, 7, 1 << 20};
  const std::int32_t in[3] = {3, -9, 1 << 10};
  reduce_apply(Op::Sum, INT32, acc, in, 3);
  EXPECT_EQ(acc[0], -2);
  EXPECT_EQ(acc[1], -2);
  EXPECT_EQ(acc[2], (1 << 20) + (1 << 10));
  double d = 1.5;
  const double e = 2.0;
  reduce_apply(Op::Prod, DOUBLE, &d, &e, 1);
  EXPECT_EQ(d, 3.0);
}

}  // namespace
}  // namespace ib12x::mvx
