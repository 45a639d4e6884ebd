// NAS kernel correctness: bit-exact FFT and divider arithmetic, IS
// verification/determinism across configurations, FT self-consistency
// (inverse-of-forward), checksum invariance and bit-exact checksums.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <map>
#include <numbers>
#include <string>
#include <vector>

#include "mvx/block_pool.hpp"
#include "mvx/mpi.hpp"
#include "nas/fft.hpp"
#include "nas/ft.hpp"
#include "nas/is.hpp"
#include "sim/rng.hpp"

namespace ib12x::nas {
namespace {

using mvx::ClusterSpec;
using mvx::Config;
using mvx::Policy;
using mvx::World;

TEST(Fft, MatchesNaiveDft) {
  const std::size_t n = 16;
  Fft fft(n);
  std::vector<Complex> a(n), naive(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = Complex(std::sin(0.3 * static_cast<double>(i)), 0.1 * static_cast<double>(i));
  for (std::size_t k = 0; k < n; ++k) {
    Complex s(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * 3.14159265358979323846 * static_cast<double>(k * j) / static_cast<double>(n);
      s += a[j] * Complex(std::cos(ang), std::sin(ang));
    }
    naive[k] = s;
  }
  std::vector<Complex> b = a;
  fft.transform(b.data(), -1);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(b[k].real(), naive[k].real(), 1e-9);
    EXPECT_NEAR(b[k].imag(), naive[k].imag(), 1e-9);
  }
}

TEST(Fft, InverseRecoversInput) {
  const std::size_t n = 256;
  Fft fft(n);
  std::vector<Complex> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = Complex(static_cast<double>(i % 17), -static_cast<double>(i % 5));
  std::vector<Complex> b = a;
  fft.transform(b.data(), -1);
  fft.transform(b.data(), +1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(b[i].real(), a[i].real(), 1e-9);
    EXPECT_NEAR(b[i].imag(), a[i].imag(), 1e-9);
  }
}

// The radix-2 kernel as first written on std::complex: the reference the
// optimised Fft must reproduce bit for bit.
void textbook_transform(std::vector<Complex>& data, int sign) {
  const std::size_t n = data.size();
  int log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = 0;
    for (int b = 0; b < log2n; ++b) {
      if (i & (std::size_t{1} << b)) j |= std::size_t{1} << (log2n - 1 - b);
    }
    if (i < j) std::swap(data[i], data[j]);
  }
  std::vector<Complex> twiddle(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    twiddle[k] = Complex(std::cos(ang), std::sin(ang));
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t tstep = n / len;
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t k = 0; k < half; ++k) {
        Complex w = twiddle[k * tstep];
        if (sign > 0) w = std::conj(w);
        const Complex u = data[base + k];
        const Complex t = w * data[base + k + half];
        data[base + k] = u + t;
        data[base + k + half] = u - t;
      }
    }
  }
  if (sign > 0) {
    const double inv = 1.0 / static_cast<double>(n);
    for (Complex& c : data) c *= inv;
  }
}

std::vector<Complex> seeded_points(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Complex> a(n);
  for (Complex& c : a) c = Complex(rng.next_double() - 0.5, rng.next_double() - 0.5);
  return a;
}

TEST(Fft, MatchesTextbookRadix2BitForBit) {
  for (std::size_t n = 2; n <= 512; n <<= 1) {
    Fft fft(n);
    for (int sign : {-1, +1}) {
      std::vector<Complex> want = seeded_points(n, n * 31 + static_cast<std::uint64_t>(sign + 1));
      std::vector<Complex> got = want;
      textbook_transform(want, sign);
      fft.transform(got.data(), sign);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(Complex)), 0)
          << "n=" << n << " sign=" << sign;
    }
  }
}

TEST(Fft, ColumnsMatchPerColumnTransform) {
  const std::size_t n = 64;
  Fft fft(n);
  for (std::size_t count : {1, 7, 128}) {
    for (std::size_t stride : {count, count + 3}) {
      for (int sign : {-1, +1}) {
        const std::vector<Complex> grid = seeded_points(n * stride, count * 7 + stride);
        std::vector<Complex> batched = grid;
        fft.transform_columns(batched.data(), count, stride, sign);
        for (std::size_t c = 0; c < stride; ++c) {
          std::vector<Complex> col(n), got(n);
          for (std::size_t i = 0; i < n; ++i) {
            col[i] = grid[i * stride + c];
            got[i] = batched[i * stride + c];
          }
          // Columns outside the batch stay as they were.
          if (c < count) fft.transform(col.data(), sign);
          EXPECT_EQ(std::memcmp(got.data(), col.data(), n * sizeof(Complex)), 0)
              << "count=" << count << " stride=" << stride << " sign=" << sign << " col=" << c;
        }
      }
    }
  }
  std::vector<Complex> grid(n * 4);
  EXPECT_THROW(fft.transform_columns(grid.data(), 5, 4, -1), std::invalid_argument);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(Fft(12), std::invalid_argument);
  EXPECT_THROW(Fft(0), std::invalid_argument);
}

TEST(NasIs, KeyDividerMatchesDivision) {
  sim::Rng rng(17);
  for (std::uint32_t d : {1u, 2u, 3u, 7u, 1u << 16, (1u << 31) - 1, 1u << 31}) {
    const KeyDivider div(d);
    std::vector<std::uint32_t> ns = {0, 1, d - 1, d, UINT32_MAX};
    for (int i = 0; i < 1000; ++i) ns.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    for (std::uint32_t n : ns) EXPECT_EQ(div(n), n / d) << n << " / " << d;
  }
}

TEST(NasIs, ClassSVerifiesOnLayouts) {
  for (ClusterSpec spec : {ClusterSpec{2, 1}, ClusterSpec{2, 2}, ClusterSpec{2, 4}}) {
    World w(spec, Config::enhanced(4, Policy::EPC));
    IsResult r0;
    w.run([&](mvx::Communicator& c) {
      IsResult r = run_is(c, NasClass::S);
      if (c.rank() == 0) r0 = r;
    });
    EXPECT_TRUE(r0.verified) << spec.nodes << "x" << spec.procs_per_node;
    EXPECT_GT(r0.seconds, 0.0);
  }
}

TEST(NasIs, ChecksumInvariantAcrossPoliciesAndQps) {
  // The sort result must not depend on how bytes travel.
  std::uint64_t reference = 0;
  bool have_ref = false;
  for (Config cfg : {Config::original(), Config::enhanced(4, Policy::EPC),
                     Config::enhanced(4, Policy::EvenStriping),
                     Config::enhanced(2, Policy::RoundRobin)}) {
    World w(ClusterSpec{2, 2}, cfg);
    std::uint64_t checksum = 0;
    w.run([&](mvx::Communicator& c) {
      IsResult r = run_is(c, NasClass::S);
      if (c.rank() == 0) checksum = r.checksum;
    });
    if (!have_ref) {
      reference = checksum;
      have_ref = true;
      EXPECT_EQ(checksum, 0xcdc4d781f928fcf0ull);
    } else {
      EXPECT_EQ(checksum, reference);
    }
  }
}

TEST(NasIs, EpcFasterThanOriginalClassS) {
  double t_orig = 0, t_epc = 0;
  {
    World w(ClusterSpec{2, 1}, Config::original());
    w.run([&](mvx::Communicator& c) {
      IsResult r = run_is(c, NasClass::S);
      if (c.rank() == 0) t_orig = r.seconds;
    });
  }
  {
    World w(ClusterSpec{2, 1}, Config::enhanced(4, Policy::EPC));
    w.run([&](mvx::Communicator& c) {
      IsResult r = run_is(c, NasClass::S);
      if (c.rank() == 0) t_epc = r.seconds;
    });
  }
  EXPECT_LT(t_epc, t_orig);
}

TEST(NasFt, ClassSVerifiesOnLayouts) {
  for (ClusterSpec spec : {ClusterSpec{2, 1}, ClusterSpec{2, 2}, ClusterSpec{2, 4}}) {
    World w(spec, Config::enhanced(4, Policy::EPC));
    FtResult r0;
    w.run([&](mvx::Communicator& c) {
      FtResult r = run_ft(c, NasClass::S);
      if (c.rank() == 0) r0 = r;
    });
    EXPECT_TRUE(r0.verified);
    EXPECT_EQ(r0.checksums.size(), 4u);
    EXPECT_GT(r0.seconds, 0.0);
  }
}

TEST(NasFt, ChecksumsInvariantAcrossConfigs) {
  std::vector<std::complex<double>> reference;
  for (Config cfg : {Config::original(), Config::enhanced(4, Policy::EPC)}) {
    for (ClusterSpec spec : {ClusterSpec{2, 1}, ClusterSpec{2, 2}}) {
      World w(spec, cfg);
      std::vector<std::complex<double>> cs;
      w.run([&](mvx::Communicator& c) {
        FtResult r = run_ft(c, NasClass::S);
        if (c.rank() == 0) cs = r.checksums;
      });
      if (reference.empty()) {
        reference = cs;
      } else {
        ASSERT_EQ(cs.size(), reference.size());
        for (std::size_t i = 0; i < cs.size(); ++i) {
          EXPECT_NEAR(cs[i].real(), reference[i].real(), 1e-6) << "iter " << i;
          EXPECT_NEAR(cs[i].imag(), reference[i].imag(), 1e-6) << "iter " << i;
        }
      }
    }
  }
}

TEST(NasFt, ClassSChecksumsAreBitExact) {
  // Host arithmetic is the textbook kernel's bit for bit, so the checksums
  // are exact constants, not values within a tolerance.
  const Complex want[] = {{-0x1.0785cd901756bp+6, -0x1.132c8a2908e28p+1},
                          {-0x1.0324c00957cd3p+6, -0x1.1b8052e79a3d8p+1},
                          {-0x1.fda64f5216722p+5, -0x1.23a0a738b4228p+1},
                          {-0x1.f521981229566p+5, -0x1.2b8e47f1cb4bp+1}};
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  std::vector<Complex> cs;
  w.run([&](mvx::Communicator& c) {
    FtResult r = run_ft(c, NasClass::S);
    if (c.rank() == 0) cs = r.checksums;
  });
  ASSERT_EQ(cs.size(), std::size(want));
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_EQ(std::memcmp(&cs[i], &want[i], sizeof(Complex)), 0)
        << "iter " << i << ": " << std::hexfloat << cs[i].real() << ", " << cs[i].imag();
  }
}

// Class A on 2x4 ranks, EPC-4QP: the shape of the NAS figures and of the
// benchmark's nas_is_ft workload.  The constants are the host kernels'
// exact results; a kernel change that moves any bit fails here.
TEST(NasIs, ClassAChecksumIsBitExact) {
  World w(ClusterSpec{2, 4}, Config::enhanced(4, Policy::EPC));
  IsResult r0;
  w.run([&](mvx::Communicator& c) {
    IsResult r = run_is(c, NasClass::A);
    if (c.rank() == 0) r0 = r;
  });
  EXPECT_TRUE(r0.verified);
  EXPECT_EQ(r0.checksum, 0xdb141409a92cf918ull) << std::hex << r0.checksum;
}

TEST(NasFt, ClassAChecksumsAreBitExact) {
  const Complex want[] = {{0x1.1573b0e327d78p+2, 0x1.ac1559794e14cp+3},
                          {0x1.b86929a99c118p+0, 0x1.e2a4d843b0aa2p+3},
                          {-0x1.5670ebac33c4p-2, 0x1.01c23c7f2c2d1p+4},
                          {-0x1.f29d98bf4cb3p+0, 0x1.0a09b85965022p+4},
                          {-0x1.9b1bf9bf1f67p+1, 0x1.0c3c5b2068476p+4},
                          {-0x1.0cb5b41bc66bcp+2, 0x1.09f46564686a1p+4}};
  World w(ClusterSpec{2, 4}, Config::enhanced(4, Policy::EPC));
  std::vector<Complex> cs;
  w.run([&](mvx::Communicator& c) {
    FtResult r = run_ft(c, NasClass::A);
    if (c.rank() == 0) cs = r.checksums;
  });
  ASSERT_EQ(cs.size(), std::size(want));
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_EQ(std::memcmp(&cs[i], &want[i], sizeof(Complex)), 0)
        << "iter " << i << ": " << std::hexfloat << cs[i].real() << ", " << cs[i].imag();
  }
}

TEST(NasFt, EvolveTableMatchesDirectExp) {
  // The table replaced one exp per grid point, whose argument was the same
  // constant times the exact double |k|² = K; every entry must carry the
  // direct call's bits.
  const double alpha = 1e-6;
  for (NasClass cls : {NasClass::S, NasClass::A}) {
    const FtParams P = ft_params(cls);
    const int kmax = (P.nx / 2) * (P.nx / 2) + (P.ny / 2) * (P.ny / 2) + (P.nz / 2) * (P.nz / 2);
    for (int iter = 1; iter <= P.iterations; ++iter) {
      std::vector<double> decay;
      ft_evolve_factors(P, iter, decay);
      ASSERT_EQ(decay.size(), static_cast<std::size_t>(kmax) + 1);
      const double t = static_cast<double>(iter);
      for (int k = 0; k <= kmax; ++k) {
        const double want =
            std::exp(-4.0 * std::numbers::pi * std::numbers::pi * alpha * t * static_cast<double>(k));
        ASSERT_EQ(std::memcmp(&decay[static_cast<std::size_t>(k)], &want, sizeof(double)), 0)
            << "class " << to_string(cls) << " iter " << iter << " K " << k;
      }
    }
  }
}

TEST(NasFt, ChecksumDecaysMonotonically) {
  // The evolution factor exp(-4π²α|k|²t) damps the field each step, so the
  // checksum magnitude must shrink over iterations.
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  std::vector<std::complex<double>> cs;
  w.run([&](mvx::Communicator& c) {
    FtResult r = run_ft(c, NasClass::S);
    if (c.rank() == 0) cs = r.checksums;
  });
  for (std::size_t i = 1; i < cs.size(); ++i) {
    EXPECT_LT(std::abs(cs[i]), std::abs(cs[i - 1]) + 1e-12);
  }
}

/// Every observable of one IS and one FT class S run on 2x1, where the key
/// and field arrays are 128 KiB and so come from the process's BlockPool.
struct IsFtDigest {
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  std::uint64_t is_checksum = 0;
  std::vector<Complex> ft_checksums;
  std::map<std::string, double> telemetry;  ///< minus the sim.wall.* gauges
};

IsFtDigest run_is_ft_world() {
  World w(ClusterSpec{2, 1}, Config::enhanced(4, Policy::EPC));
  IsFtDigest d;
  w.run([&](mvx::Communicator& c) {
    const IsResult is = run_is(c, NasClass::S);
    const FtResult ft = run_ft(c, NasClass::S);
    EXPECT_TRUE(is.verified && ft.verified);
    if (c.rank() == 0) {
      d.is_checksum = is.checksum;
      d.ft_checksums = ft.checksums;
    }
  });
  d.events = w.events_processed();
  d.end_time = w.end_time();
  for (const auto& s : w.telemetry().snapshot()) {
    if (s.name.rfind("sim.wall.", 0) != 0) d.telemetry[s.name] = s.value;
  }
  return d;
}

TEST(NasIsFt, ColdAndWarmBlockPoolGiveIdenticalDigests) {
  // The cold run maps every block it takes; the warm run reuses the blocks
  // the cold run gave back, in another order.  Blocks
  // forget their registrations on release, so nothing may move, the
  // pin-down cache's hits and misses included.
  mvx::BlockPool& pool = mvx::BlockPool::shared();
  pool.drop_free();
  const std::uint64_t mapped = pool.stats().mapped;
  const IsFtDigest cold = run_is_ft_world();
  const std::uint64_t cold_mapped = pool.stats().mapped - mapped;
  const IsFtDigest warm = run_is_ft_world();
  // The warm run maps only what the high-water bound made the cold run
  // unmap again; the count depends on the mark earlier tests left.
  EXPECT_GT(cold_mapped, 0u);
  EXPECT_LT(pool.stats().mapped - mapped - cold_mapped, cold_mapped);

  EXPECT_EQ(cold.events, warm.events);
  EXPECT_EQ(cold.end_time, warm.end_time);
  EXPECT_EQ(cold.is_checksum, warm.is_checksum);
  ASSERT_EQ(cold.ft_checksums.size(), warm.ft_checksums.size());
  for (std::size_t i = 0; i < cold.ft_checksums.size(); ++i) {
    EXPECT_EQ(std::memcmp(&cold.ft_checksums[i], &warm.ft_checksums[i], sizeof(Complex)), 0);
  }
  EXPECT_EQ(cold.telemetry, warm.telemetry);
  EXPECT_GT(cold.telemetry.at("rndv.reg_cache_misses"), 0.0);
  EXPECT_GT(cold.telemetry.at("rndv.reg_cache_hits"), 0.0);
}

TEST(NasIs, RejectsNonPowerOfTwoMaxKey) {
  World w(ClusterSpec{2, 1}, Config{});
  IsParams params = is_params(NasClass::S);
  params.max_key = 3 << 10;
  EXPECT_THROW(w.run([&](mvx::Communicator& c) { run_is(c, params); }), std::invalid_argument);
}

TEST(NasFt, RejectsBadDecomposition) {
  World w(ClusterSpec{3, 1}, Config{});
  EXPECT_THROW(w.run([](mvx::Communicator& c) { run_ft(c, NasClass::S); }),
               std::invalid_argument);
}

}  // namespace
}  // namespace ib12x::nas
