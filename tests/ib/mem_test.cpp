#include "ib/mem.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace ib12x::ib {
namespace {

TEST(MemoryDomain, RegisterAndTranslate) {
  MemoryDomain md;
  std::vector<std::byte> buf(256);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  EXPECT_NE(mr.rkey, 0u);
  std::byte* p = md.translate_rkey(mr.rkey, mr.addr + 16, 64);
  EXPECT_EQ(p, buf.data() + 16);
}

TEST(MemoryDomain, UnknownRkeyThrows) {
  MemoryDomain md;
  EXPECT_THROW(md.translate_rkey(999, 0x1000, 4), std::runtime_error);
}

TEST(MemoryDomain, OutOfBoundsThrows) {
  MemoryDomain md;
  std::vector<std::byte> buf(128);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr + 120, 16), std::runtime_error);
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr - 8, 8), std::runtime_error);
}

TEST(MemoryDomain, ExactBoundsAllowed) {
  MemoryDomain md;
  std::vector<std::byte> buf(128);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  EXPECT_NO_THROW(md.translate_rkey(mr.rkey, mr.addr, 128));
}

TEST(MemoryDomain, DeregisterInvalidatesKeys) {
  MemoryDomain md;
  std::vector<std::byte> buf(64);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  md.deregister(mr);
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr, 1), std::runtime_error);
  EXPECT_EQ(md.region_count(), 0u);
}

TEST(MemoryDomain, LkeyValidation) {
  MemoryDomain md;
  std::vector<std::byte> buf(64);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  EXPECT_NO_THROW(md.check_lkey(mr.lkey, buf.data(), 64));
  EXPECT_THROW(md.check_lkey(mr.lkey, buf.data() + 1, 64), std::runtime_error);
  EXPECT_THROW(md.check_lkey(777, buf.data(), 1), std::runtime_error);
}

TEST(MemoryDomain, OverlappingRegistrationsCoexist) {
  MemoryDomain md;
  std::vector<std::byte> buf(256);
  MemoryRegion a = md.register_memory(buf.data(), 256);
  MemoryRegion b = md.register_memory(buf.data() + 64, 64);
  EXPECT_NE(a.rkey, b.rkey);
  EXPECT_NO_THROW(md.translate_rkey(a.rkey, a.addr + 200, 8));
  EXPECT_THROW(md.translate_rkey(b.rkey, a.addr + 200, 8), std::runtime_error);
  EXPECT_EQ(md.region_count(), 2u);
}

TEST(MemoryDomain, WrappingLengthIsRejectedForRkey) {
  // addr + len wraps past 2^64 for a huge len; a sum-based bounds check
  // would see a small end address and let the access through.
  MemoryDomain md;
  std::vector<std::byte> buf(128);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  const std::uint64_t wrap = ~std::uint64_t{0} - mr.addr + 1;  // addr + wrap == 0
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr, wrap), std::runtime_error);
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr + 8, wrap + 16), std::runtime_error);
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr, ~std::uint64_t{0}), std::runtime_error);
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr + 129, 0), std::runtime_error);
  EXPECT_NO_THROW(md.translate_rkey(mr.rkey, mr.addr + 128, 0));
}

TEST(MemoryDomain, WrappingLengthIsRejectedForLkey) {
  MemoryDomain md;
  std::vector<std::byte> buf(128);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  const std::uint64_t wrap = ~std::uint64_t{0} - mr.addr + 1;
  EXPECT_THROW(md.check_lkey(mr.lkey, buf.data(), wrap), std::runtime_error);
  EXPECT_THROW(md.check_lkey(mr.lkey, buf.data() + 8, wrap + 16), std::runtime_error);
  EXPECT_THROW(md.check_lkey(mr.lkey, buf.data(), ~std::uint64_t{0}), std::runtime_error);
  EXPECT_NO_THROW(md.check_lkey(mr.lkey, buf.data() + 64, 64));
}

TEST(MemoryDomain, RegisterDeregisterChurnLeavesStaleKeysDead) {
  // Keys come from a monotone counter: 10 k register/deregister cycles must
  // neither reuse a key nor leave a stale one resolvable.
  MemoryDomain md;
  std::vector<std::byte> buf(64);
  MemoryRegion keep = md.register_memory(buf.data(), buf.size());
  std::vector<MemoryRegion> stale;
  for (int i = 0; i < 10000; ++i) {
    MemoryRegion mr = md.register_memory(buf.data() + i % 32, 32);
    ASSERT_NO_THROW(md.check_lkey(mr.lkey, buf.data() + i % 32, 32));
    md.deregister(mr);
    if (i % 1000 == 0) stale.push_back(mr);
  }
  EXPECT_EQ(md.region_count(), 1u);
  for (const MemoryRegion& mr : stale) {
    EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr, 1), std::runtime_error) << mr.rkey;
    EXPECT_THROW(md.check_lkey(mr.lkey, buf.data(), 1), std::runtime_error) << mr.lkey;
  }
  const MemoryRegion fresh = md.register_memory(buf.data(), buf.size());
  EXPECT_GT(fresh.lkey, stale.back().lkey);
  EXPECT_NO_THROW(md.translate_rkey(keep.rkey, keep.addr, 64));
}

TEST(MemoryDomain, ConstRegistration) {
  MemoryDomain md;
  const std::vector<std::byte> buf(32);
  const MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  EXPECT_NO_THROW(md.check_lkey(mr.lkey, buf.data(), 32));
}

}  // namespace
}  // namespace ib12x::ib
