#include "nas/ft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mvx/block_pool.hpp"
#include "nas/fft.hpp"
#include "sim/host_pool.hpp"
#include "sim/rng.hpp"

namespace ib12x::nas {

using mvx::COMPLEX;
using mvx::Communicator;
using mvx::Op;
using mvx::PoolVector;

namespace {

sim::Time flop_cost(double flops, double gflops) {
  return static_cast<sim::Time>(flops / gflops * static_cast<double>(sim::kNanosecond));
}

sim::Time point_cost(double ns_per_point, std::int64_t points) {
  return static_cast<sim::Time>(ns_per_point * static_cast<double>(points) *
                                static_cast<double>(sim::kNanosecond));
}

}  // namespace

void ft_evolve_factors(const FtParams& P, int iter, std::vector<double>& decay) {
  const double alpha = 1e-6;
  const double t = static_cast<double>(iter);
  // The products run left to right with K last, as in the per-point
  // exp(-4π²·α·t·(kx² + ky² + kz²)), whose sum of integer squares is exact:
  // each entry has that factor's bits.
  const double c = -4.0 * std::numbers::pi * std::numbers::pi * alpha * t;
  const int kmax = (P.nx / 2) * (P.nx / 2) + (P.ny / 2) * (P.ny / 2) + (P.nz / 2) * (P.nz / 2);
  decay.resize(static_cast<std::size_t>(kmax) + 1);
  for (int k = 0; k <= kmax; ++k) decay[static_cast<std::size_t>(k)] = std::exp(c * k);
}

FtResult run_ft(Communicator& comm, NasClass cls) { return run_ft(comm, ft_params(cls)); }

FtResult run_ft(Communicator& comm, const FtParams& P) {
  const int p = comm.size();
  const int r = comm.rank();
  const int nx = P.nx, ny = P.ny, nz = P.nz;
  if (nz % p != 0 || nx % p != 0) {
    throw std::invalid_argument("run_ft: ranks must divide nx and nz");
  }
  const int nzl = nz / p;  // z-slab height (phase 1 layout)
  const int nxl = nx / p;  // x-slab width (phase 2 layout)
  const std::size_t slab_points = static_cast<std::size_t>(nx) * ny * nzl;
  const std::size_t xslab_points = static_cast<std::size_t>(nxl) * ny * nz;
  const std::size_t block_points = static_cast<std::size_t>(nxl) * ny * nzl;

  Fft fft_x(static_cast<std::size_t>(nx));
  Fft fft_y(static_cast<std::size_t>(ny));
  Fft fft_z(static_cast<std::size_t>(nz));

  // Three slabs of nx·ny·nz/p points each.  recvbuf first holds u0 as a
  // z-slab, layout [z][y][x]: the first pack reads it before the alltoall
  // overwrites it.  u0 is seeded per *global* z-plane so the field is
  // identical for every process decomposition — checksums can then be
  // compared bit-for-bit across layouts and policies.  Later recvbuf holds
  // each iteration's evolved spectrum, packed into sendbuf before the
  // alltoall writes recvbuf again; after that alltoall sendbuf takes the
  // z-slab back for the inverse x/y FFTs and the checksum.  The slabs come
  // from the process's BlockPool (mvx/block_pool.hpp), so their pages fault
  // in once per process, not once per call.  u0 is seeded by a host job that
  // overlaps the opening barrier (DESIGN.md §4a): it writes only recvbuf,
  // which the barrier never sees.
  PoolVector<Complex> sendbuf(slab_points);
  PoolVector<Complex> recvbuf(xslab_points);
  PoolVector<Complex> spectrum(xslab_points);  // x-slab, layout [xl][z][y]
  auto seed = [&] {
    for (int z = 0; z < nzl; ++z) {
      sim::Rng rng(0xf7 + static_cast<std::uint64_t>(r * nzl + z) * 104729);
      Complex* plane = recvbuf.data() + static_cast<std::size_t>(z) * ny * nx;
      for (std::size_t i = 0; i < static_cast<std::size_t>(ny) * nx; ++i) {
        plane[i] = Complex(rng.next_double() - 0.5, rng.next_double() - 0.5);
      }
    }
  };
  sim::HostJob seeding(seed);

  // The compute phases' host jobs may touch these buffers: every exchange
  // below is a blocking collective, so no request references them then.
  auto xy_ffts = [&](PoolVector<Complex>& a, int sign) {
    // FFT along x for every (y, z) row, then along y for all x columns of
    // each z-plane at once.
    comm.compute(
        flop_cost(static_cast<double>(nzl) * (ny * fft_x.flops() + nx * fft_y.flops()), P.gflops),
        [&] {
          for (int z = 0; z < nzl; ++z) {
            Complex* plane = a.data() + static_cast<std::size_t>(z) * ny * nx;
            for (int y = 0; y < ny; ++y) {
              fft_x.transform(plane + static_cast<std::size_t>(y) * nx, sign);
            }
            fft_y.transform_columns(plane, static_cast<std::size_t>(nx),
                                    static_cast<std::size_t>(nx), sign);
          }
        });
  };

  auto pack_for_transpose = [&](const PoolVector<Complex>& a) {
    // Destination d gets x in [d·nxl, (d+1)·nxl), all y, all local z.
    comm.compute(point_cost(0.3, static_cast<std::int64_t>(slab_points)), [&] {
      std::size_t out = 0;
      for (int d = 0; d < p; ++d) {
        for (int z = 0; z < nzl; ++z) {
          for (int y = 0; y < ny; ++y) {
            const Complex* row =
                a.data() + (static_cast<std::size_t>(z) * ny + static_cast<std::size_t>(y)) * nx +
                static_cast<std::size_t>(d) * nxl;
            for (int x = 0; x < nxl; ++x) sendbuf[out++] = row[x];
          }
        }
      }
    });
  };

  // Rank d's share of the x-slab [xl][z][y] is z in [d·nzl, (d+1)·nzl); on
  // the wire it is a block laid out [z][y][xl].  Both directions loop z, xl,
  // y: one z-plane of the block stays in cache while each xl writes or reads
  // one contiguous y run of the slab.
  const std::size_t yn = static_cast<std::size_t>(ny);
  const std::size_t xn = static_cast<std::size_t>(nxl);
  auto slab_run = [&](int d, std::size_t z, std::size_t x) {
    return (x * static_cast<std::size_t>(nz) + static_cast<std::size_t>(d * nzl) + z) * yn;
  };

  auto unpack_to_xslab = [&](PoolVector<Complex>& out) {
    comm.compute(point_cost(0.3, static_cast<std::int64_t>(xslab_points)), [&] {
      for (int d = 0; d < p; ++d) {
        const Complex* block = recvbuf.data() + static_cast<std::size_t>(d) * block_points;
        for (std::size_t z = 0; z < static_cast<std::size_t>(nzl); ++z) {
          const Complex* plane = block + z * yn * xn;
          for (std::size_t x = 0; x < xn; ++x) {
            Complex* run = out.data() + slab_run(d, z, x);
            for (std::size_t y = 0; y < yn; ++y) run[y] = plane[y * xn + x];
          }
        }
      }
    });
  };

  auto pack_from_xslab = [&](const PoolVector<Complex>& a) {
    comm.compute(point_cost(0.3, static_cast<std::int64_t>(xslab_points)), [&] {
      for (int d = 0; d < p; ++d) {
        Complex* block = sendbuf.data() + static_cast<std::size_t>(d) * block_points;
        for (std::size_t z = 0; z < static_cast<std::size_t>(nzl); ++z) {
          Complex* plane = block + z * yn * xn;
          for (std::size_t x = 0; x < xn; ++x) {
            const Complex* run = a.data() + slab_run(d, z, x);
            for (std::size_t y = 0; y < yn; ++y) plane[y * xn + x] = run[y];
          }
        }
      }
    });
  };

  auto unpack_to_zslab = [&](PoolVector<Complex>& out) {
    // Block from rank d covers x in [d·nxl, (d+1)·nxl).
    comm.compute(point_cost(0.3, static_cast<std::int64_t>(slab_points)), [&] {
      for (int d = 0; d < p; ++d) {
        const Complex* block = recvbuf.data() + static_cast<std::size_t>(d) * block_points;
        std::size_t in = 0;
        for (int z = 0; z < nzl; ++z) {
          for (int y = 0; y < ny; ++y) {
            Complex* row =
                out.data() +
                (static_cast<std::size_t>(z) * ny + static_cast<std::size_t>(y)) * nx +
                static_cast<std::size_t>(d) * nxl;
            for (int x = 0; x < nxl; ++x) row[x] = block[in++];
          }
        }
      }
    });
  };

  auto z_ffts = [&](PoolVector<Complex>& a, int sign) {
    // Each xl plane [z][y] holds the z-lines of all its y as columns.
    comm.compute(flop_cost(static_cast<double>(nxl) * ny * fft_z.flops(), P.gflops), [&] {
      for (int x = 0; x < nxl; ++x) {
        fft_z.transform_columns(a.data() + static_cast<std::size_t>(x) * nz * ny, yn, yn, sign);
      }
    });
  };

  FtResult result;
  comm.barrier();
  seeding.join();
  const sim::Time t0 = comm.now();

  // ---- forward 3-D FFT (once) ----
  xy_ffts(recvbuf, -1);
  pack_for_transpose(recvbuf);
  comm.alltoall(sendbuf.data(), recvbuf.data(), block_points, COMPLEX);
  unpack_to_xslab(spectrum);
  z_ffts(spectrum, -1);

  // Squared wave numbers |k|² per axis, as integers: a point's |k|² is their
  // exact sum and indexes the per-iteration evolve table.
  auto wave2 = [](int i, int n) {
    const int k = i <= n / 2 ? i : i - n;
    return k * k;
  };
  std::vector<int> kx2(static_cast<std::size_t>(nx)), ky2(static_cast<std::size_t>(ny)),
      kz2(static_cast<std::size_t>(nz));
  for (int i = 0; i < nx; ++i) kx2[static_cast<std::size_t>(i)] = wave2(i, nx);
  for (int i = 0; i < ny; ++i) ky2[static_cast<std::size_t>(i)] = wave2(i, ny);
  for (int i = 0; i < nz; ++i) kz2[static_cast<std::size_t>(i)] = wave2(i, nz);

  PoolVector<Complex>& evolved = recvbuf;
  std::vector<double> decay;
  ft_evolve_factors(P, 0, decay);  // sized here, so the evolve job allocates nothing
  for (int iter = 1; iter <= P.iterations; ++iter) {
    // evolve: ũ(k, t) = u(k) · exp(-4π²α|k|²·t)
    comm.compute(point_cost(P.evolve_ns_per_point, static_cast<std::int64_t>(xslab_points)), [&] {
      ft_evolve_factors(P, iter, decay);
      for (int x = 0; x < nxl; ++x) {
        const int kx = kx2[static_cast<std::size_t>(r * nxl + x)];
        for (int z = 0; z < nz; ++z) {
          const int kxz = kx + kz2[static_cast<std::size_t>(z)];
          const std::size_t at =
              (static_cast<std::size_t>(x) * nz + static_cast<std::size_t>(z)) * yn;
          const Complex* row = spectrum.data() + at;
          Complex* out = evolved.data() + at;
          for (std::size_t y = 0; y < yn; ++y) {
            out[y] = row[y] * decay[static_cast<std::size_t>(kxz + ky2[y])];
          }
        }
      }
    });

    // inverse 3-D FFT: z-FFTs, transpose back, y- and x-FFTs.
    z_ffts(evolved, +1);
    pack_from_xslab(evolved);
    comm.alltoall(sendbuf.data(), recvbuf.data(), block_points, COMPLEX);
    unpack_to_zslab(sendbuf);
    xy_ffts(sendbuf, +1);

    // checksum: 1024 strided samples of the physical-space solution.
    Complex local_sum(0, 0);
    for (int j = 1; j <= 1024; ++j) {
      const int xg = (5 * j) % nx;
      const int yg = (3 * j) % ny;
      const int zg = j % nz;
      if (zg / nzl == r) {
        const std::size_t row =
            static_cast<std::size_t>(zg % nzl) * ny + static_cast<std::size_t>(yg);
        local_sum += sendbuf[row * nx + static_cast<std::size_t>(xg)];
      }
    }
    Complex global_sum(0, 0);
    comm.allreduce(&local_sum, &global_sum, 1, COMPLEX, Op::Sum);
    result.checksums.push_back(global_sum);
  }

  result.seconds = sim::to_s(comm.now() - t0);
  result.verified = true;
  for (const Complex& cs : result.checksums) {
    if (!std::isfinite(cs.real()) || !std::isfinite(cs.imag())) result.verified = false;
  }
  return result;
}

}  // namespace ib12x::nas
