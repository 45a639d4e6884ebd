// CG kernel: SPD convergence, determinism across configurations, pinned
// class S bits, and the paper's "no degradation" property.
#include <gtest/gtest.h>

#include <cstring>

#include "mvx/mpi.hpp"
#include "nas/cg.hpp"

namespace ib12x::nas {
namespace {

using mvx::ClusterSpec;
using mvx::Config;
using mvx::Policy;
using mvx::World;

CgResult run_once(ClusterSpec spec, Config cfg, NasClass cls) {
  World w(spec, cfg);
  CgResult res;
  w.run([&](mvx::Communicator& c) {
    CgResult r = run_cg(c, cls);
    if (c.rank() == 0) res = r;
  });
  return res;
}

TEST(NasCg, ConvergesOnLayouts) {
  for (ClusterSpec spec : {ClusterSpec{2, 1}, ClusterSpec{2, 2}, ClusterSpec{2, 3}, ClusterSpec{2, 4}}) {
    CgResult r = run_once(spec, Config::enhanced(4, Policy::EPC), NasClass::S);
    EXPECT_TRUE(r.verified) << spec.nodes << "x" << spec.procs_per_node;
    EXPECT_LT(r.final_residual, 1e-8);
    // The exact solution is the ones vector, so the checksum is n.
    EXPECT_NEAR(r.checksum, 1400.0, 1e-6);
  }
}

TEST(NasCg, ChecksumInvariantAcrossConfigs) {
  const double a = run_once({2, 2}, Config::original(), NasClass::S).checksum;
  const double b = run_once({2, 2}, Config::enhanced(4, Policy::EvenStriping), NasClass::S).checksum;
  const double c = run_once({2, 1}, Config::enhanced(2, Policy::RoundRobin), NasClass::S).checksum;
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(a, c);
}

TEST(NasCg, ClassSChecksumIsBitExact) {
  // Pinned bits: the invariance test above would pass a change that moved
  // every configuration the same way.  The checksum sums a solution within
  // rounding of the ones vector; the residual carries every iteration's
  // arithmetic, and its last bits follow the layout's allreduce order.
  struct Want {
    ClusterSpec spec;
    double residual;
  };
  for (const Want& w : {Want{{2, 2}, 0x1.d1dbaaf72ecebp-67}, Want{{2, 1}, 0x1.d1dbaaf72ecb6p-67},
                        Want{{2, 4}, 0x1.d1dbaaf72ece1p-67}}) {
    const CgResult r = run_once(w.spec, Config::enhanced(4, Policy::EPC), NasClass::S);
    const double checksum = 0x1.5ep+10;
    EXPECT_EQ(std::memcmp(&r.checksum, &checksum, sizeof(double)), 0)
        << w.spec.nodes << "x" << w.spec.procs_per_node << ": " << std::hexfloat << r.checksum;
    EXPECT_EQ(std::memcmp(&r.final_residual, &w.residual, sizeof(double)), 0)
        << w.spec.nodes << "x" << w.spec.procs_per_node << ": " << std::hexfloat
        << r.final_residual;
  }
}

TEST(NasCg, NoDegradationUnderEpc) {
  // The paper: "we have not seen performance degradation using other NAS
  // Parallel Benchmarks."  CG's traffic (8-byte allreduces + ~100 KB
  // allgathers) gains little from multi-rail, but must never lose.
  const double orig = run_once({2, 2}, Config::original(), NasClass::A).seconds;
  const double epc = run_once({2, 2}, Config::enhanced(4, Policy::EPC), NasClass::A).seconds;
  EXPECT_LE(epc, orig * 1.02);
}

TEST(NasCg, ResidualShrinksWithMoreIterations) {
  CgParams p = cg_params(NasClass::S);
  p.iterations = 5;
  World w1(ClusterSpec{2, 1}, Config{});
  CgResult five;
  w1.run([&](mvx::Communicator& c) {
    CgResult r = run_cg(c, p);
    if (c.rank() == 0) five = r;
  });
  p.iterations = 15;
  World w2(ClusterSpec{2, 1}, Config{});
  CgResult fifteen;
  w2.run([&](mvx::Communicator& c) {
    CgResult r = run_cg(c, p);
    if (c.rank() == 0) fifteen = r;
  });
  EXPECT_LT(fifteen.final_residual, five.final_residual);
}

}  // namespace
}  // namespace ib12x::nas
