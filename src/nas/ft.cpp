#include "nas/ft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "nas/fft.hpp"
#include "sim/rng.hpp"

namespace ib12x::nas {

using mvx::COMPLEX;
using mvx::Communicator;
using mvx::Op;

namespace {

sim::Time flop_cost(double flops, double gflops) {
  return static_cast<sim::Time>(flops / gflops * static_cast<double>(sim::kNanosecond));
}

sim::Time point_cost(double ns_per_point, std::int64_t points) {
  return static_cast<sim::Time>(ns_per_point * static_cast<double>(points) *
                                static_cast<double>(sim::kNanosecond));
}

}  // namespace

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

  // u0: initial condition on z-slabs, layout [z][y][x].  Seeded per *global*
  // z-plane so the field is identical for every process decomposition —
  // checksums can then be compared bit-for-bit across layouts and policies.
  std::vector<Complex> u0(slab_points);
  for (int z = 0; z < nzl; ++z) {
    sim::Rng rng(0xf7 + static_cast<std::uint64_t>(r * nzl + z) * 104729);
    Complex* plane = u0.data() + static_cast<std::size_t>(z) * ny * nx;
    for (std::size_t i = 0; i < static_cast<std::size_t>(ny) * nx; ++i) {
      plane[i] = Complex(rng.next_double() - 0.5, rng.next_double() - 0.5);
    }
  }

  std::vector<Complex> work(slab_points);
  std::vector<Complex> sendbuf(slab_points);
  std::vector<Complex> recvbuf(xslab_points);
  std::vector<Complex> spectrum(xslab_points);  // [xl][y][z]
  std::vector<Complex> evolved(xslab_points);

  auto xy_ffts = [&](std::vector<Complex>& a, int sign) {
    // FFT along x for every (y, z) row, then along y for all x columns of
    // each z-plane at once.
    for (int z = 0; z < nzl; ++z) {
      Complex* plane = a.data() + static_cast<std::size_t>(z) * ny * nx;
      for (int y = 0; y < ny; ++y) {
        fft_x.transform(plane + static_cast<std::size_t>(y) * nx, sign);
      }
      fft_y.transform_columns(plane, static_cast<std::size_t>(nx), static_cast<std::size_t>(nx), sign);
    }
    comm.compute(flop_cost(static_cast<double>(nzl) * (ny * fft_x.flops() + nx * fft_y.flops()),
                           P.gflops));
  };

  auto pack_for_transpose = [&](const std::vector<Complex>& a) {
    // Destination d gets x in [d·nxl, (d+1)·nxl), all y, all local z.
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
    comm.compute(point_cost(0.3, static_cast<std::int64_t>(slab_points)));
  };

  // Rank d's share of the x-slab [xl][y][z] is z in [d·nzl, (d+1)·nzl); on
  // the wire it is a block laid out [z][y][xl].  Both directions loop y, xl,
  // z so that each nzl-long z run of the slab and each block row is touched
  // while it is in cache.
  const std::size_t zrun = static_cast<std::size_t>(nzl);
  const std::size_t yn = static_cast<std::size_t>(ny);
  const std::size_t xn = static_cast<std::size_t>(nxl);
  auto slab_run = [&](int d, std::size_t y, std::size_t x) {
    return (x * yn + y) * static_cast<std::size_t>(nz) + static_cast<std::size_t>(d) * zrun;
  };

  auto unpack_to_xslab = [&](std::vector<Complex>& out) {
    for (int d = 0; d < p; ++d) {
      const Complex* block = recvbuf.data() + static_cast<std::size_t>(d) * block_points;
      for (std::size_t y = 0; y < yn; ++y) {
        for (std::size_t x = 0; x < xn; ++x) {
          Complex* run = out.data() + slab_run(d, y, x);
          for (std::size_t z = 0; z < zrun; ++z) run[z] = block[(z * yn + y) * xn + x];
        }
      }
    }
    comm.compute(point_cost(0.3, static_cast<std::int64_t>(xslab_points)));
  };

  auto pack_from_xslab = [&](const std::vector<Complex>& a) {
    for (int d = 0; d < p; ++d) {
      Complex* block = sendbuf.data() + static_cast<std::size_t>(d) * block_points;
      for (std::size_t y = 0; y < yn; ++y) {
        for (std::size_t x = 0; x < xn; ++x) {
          const Complex* run = a.data() + slab_run(d, y, x);
          for (std::size_t z = 0; z < zrun; ++z) block[(z * yn + y) * xn + x] = run[z];
        }
      }
    }
    comm.compute(point_cost(0.3, static_cast<std::int64_t>(xslab_points)));
  };

  auto unpack_to_zslab = [&](std::vector<Complex>& out) {
    // Block from rank d covers x in [d·nxl, (d+1)·nxl).
    for (int d = 0; d < p; ++d) {
      const Complex* block = recvbuf.data() + static_cast<std::size_t>(d) * block_points;
      std::size_t in = 0;
      for (int z = 0; z < nzl; ++z) {
        for (int y = 0; y < ny; ++y) {
          Complex* row =
              out.data() + (static_cast<std::size_t>(z) * ny + static_cast<std::size_t>(y)) * nx +
              static_cast<std::size_t>(d) * nxl;
          for (int x = 0; x < nxl; ++x) row[x] = block[in++];
        }
      }
    }
    comm.compute(point_cost(0.3, static_cast<std::int64_t>(slab_points)));
  };

  auto z_ffts = [&](std::vector<Complex>& a, int sign) {
    for (int x = 0; x < nxl; ++x) {
      for (int y = 0; y < ny; ++y) {
        fft_z.transform(a.data() + (static_cast<std::size_t>(x) * ny + static_cast<std::size_t>(y)) * nz,
                        sign);
      }
    }
    comm.compute(flop_cost(static_cast<double>(nxl) * ny * fft_z.flops(), P.gflops));
  };

  FtResult result;
  comm.barrier();
  const sim::Time t0 = comm.now();

  // ---- forward 3-D FFT (once) ----
  work = u0;
  xy_ffts(work, -1);
  pack_for_transpose(work);
  comm.alltoall(sendbuf.data(), recvbuf.data(), block_points, COMPLEX);
  unpack_to_xslab(spectrum);
  z_ffts(spectrum, -1);

  // Pre-compute the evolution exponents exp(-4π²α|k|²) for one timestep.
  const double alpha = 1e-6;
  std::vector<double> ez(static_cast<std::size_t>(nz)), ey(static_cast<std::size_t>(ny)),
      ex(static_cast<std::size_t>(nx));
  auto wave2 = [](int i, int n) {
    const int k = i <= n / 2 ? i : i - n;
    return static_cast<double>(k) * k;
  };
  for (int i = 0; i < nx; ++i) ex[static_cast<std::size_t>(i)] = wave2(i, nx);
  for (int i = 0; i < ny; ++i) ey[static_cast<std::size_t>(i)] = wave2(i, ny);
  for (int i = 0; i < nz; ++i) ez[static_cast<std::size_t>(i)] = wave2(i, nz);

  std::vector<Complex> inv_zslab(slab_points);
  for (int iter = 1; iter <= P.iterations; ++iter) {
    // evolve: ũ(k, t) = u(k) · exp(-4π²α|k|²·t)
    const double t = static_cast<double>(iter);
    for (int x = 0; x < nxl; ++x) {
      const double kx2 = ex[static_cast<std::size_t>(r * nxl + x)];
      for (int y = 0; y < ny; ++y) {
        const double ky2 = ey[static_cast<std::size_t>(y)];
        Complex* row = spectrum.data() + (static_cast<std::size_t>(x) * ny + static_cast<std::size_t>(y)) * nz;
        Complex* out = evolved.data() + (static_cast<std::size_t>(x) * ny + static_cast<std::size_t>(y)) * nz;
        for (int z = 0; z < nz; ++z) {
          const double factor =
              std::exp(-4.0 * std::numbers::pi * std::numbers::pi * alpha * t *
                       (kx2 + ky2 + ez[static_cast<std::size_t>(z)]));
          out[static_cast<std::size_t>(z)] = row[static_cast<std::size_t>(z)] * factor;
        }
      }
    }
    comm.compute(point_cost(P.evolve_ns_per_point, static_cast<std::int64_t>(xslab_points)));

    // inverse 3-D FFT: z-FFTs, transpose back, y- and x-FFTs.
    z_ffts(evolved, +1);
    pack_from_xslab(evolved);
    comm.alltoall(sendbuf.data(), recvbuf.data(), block_points, COMPLEX);
    unpack_to_zslab(inv_zslab);
    xy_ffts(inv_zslab, +1);

    // checksum: 1024 strided samples of the physical-space solution.
    Complex local_sum(0, 0);
    for (int j = 1; j <= 1024; ++j) {
      const int xg = (5 * j) % nx;
      const int yg = (3 * j) % ny;
      const int zg = j % nz;
      if (zg / nzl == r) {
        local_sum += inv_zslab[(static_cast<std::size_t>(zg % nzl) * ny +
                                static_cast<std::size_t>(yg)) *
                                   nx +
                               static_cast<std::size_t>(xg)];
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
