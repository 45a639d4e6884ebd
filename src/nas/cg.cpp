#include "nas/cg.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ib12x::nas {

using mvx::Communicator;
using mvx::DOUBLE;
using mvx::Op;

CgParams cg_params(NasClass c) {
  CgParams p{};
  switch (c) {
    case NasClass::S:
      p.n = 1400;
      p.nonzeros_per_row = 7;
      p.iterations = 15;
      return p;
    case NasClass::A:
      p.n = 14000;
      p.nonzeros_per_row = 11;
      p.iterations = 15;
      return p;
    case NasClass::B:
      p.n = 75000;
      p.nonzeros_per_row = 13;
      p.iterations = 20;
      return p;
  }
  throw std::invalid_argument("cg_params: unknown class");
}

namespace {

/// splitmix64 — deterministic per-row structure generation.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

sim::Time flop_cost(double ns_per_flop, double flops) {
  return static_cast<sim::Time>(ns_per_flop * flops * static_cast<double>(sim::kNanosecond));
}

}  // namespace

CgResult run_cg(Communicator& comm, NasClass cls) { return run_cg(comm, cg_params(cls)); }

CgResult run_cg(Communicator& comm, const CgParams& P) {
  const int p = comm.size();
  const int r = comm.rank();

  // Row partition (block, remainder to the first ranks).
  std::vector<std::int64_t> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
  {
    std::int64_t off = 0;
    for (int i = 0; i < p; ++i) {
      counts[static_cast<std::size_t>(i)] = P.n / p + (i < P.n % p ? 1 : 0);
      displs[static_cast<std::size_t>(i)] = off;
      off += counts[static_cast<std::size_t>(i)];
    }
  }
  const std::int64_t row0 = displs[static_cast<std::size_t>(r)];
  const std::int64_t nloc = counts[static_cast<std::size_t>(r)];

  // Local CSR slice of a symmetric positive-definite matrix: strong diagonal
  // plus couplings at fixed symmetric strides (a multi-band structure, like
  // structured-grid operators).  Symmetry holds by construction — row i
  // couples to i±d for every stride d — and the value of each coupling is a
  // hash of the unordered index pair, so A(i,j) == A(j,i) exactly.
  static const std::int64_t kStrides[] = {1, 3, 17, 91, 541, 2903, 9377};
  const int n_strides = std::min<int>(P.nonzeros_per_row / 2,
                                      static_cast<int>(std::size(kStrides)));
  std::vector<std::int64_t> col_idx;
  std::vector<double> val;
  std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(nloc) + 1, 0);
  auto coupling = [](std::int64_t a, std::int64_t b) {
    const std::uint64_t h = mix(static_cast<std::uint64_t>(std::min(a, b)) * 1000003u +
                                static_cast<std::uint64_t>(std::max(a, b)));
    return -0.5 * (static_cast<double>(h % 1000) / 1000.0 + 0.1);
  };
  for (std::int64_t i = 0; i < nloc; ++i) {
    const std::int64_t grow = row0 + i;
    double offdiag_sum = 0;
    for (int s = 0; s < n_strides; ++s) {
      for (std::int64_t c : {grow - kStrides[s], grow + kStrides[s]}) {
        if (c < 0 || c >= P.n) continue;
        const double v = coupling(grow, c);
        col_idx.push_back(c);
        val.push_back(v);
        offdiag_sum += std::abs(v);
      }
    }
    // Diagonal dominance ⇒ SPD.
    col_idx.push_back(grow);
    val.push_back(offdiag_sum + 1.0);
    row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<std::int64_t>(col_idx.size());
  }

  // b = A * ones — the exact solution is the ones vector.
  std::vector<double> x_full(static_cast<std::size_t>(P.n), 0.0);
  std::vector<double> ones(static_cast<std::size_t>(P.n), 1.0);
  auto matvec = [&](const std::vector<double>& full_in, std::vector<double>& local_out) {
    comm.compute(flop_cost(P.flop_ns, 2.0 * static_cast<double>(col_idx.size())), [&] {
      for (std::int64_t i = 0; i < nloc; ++i) {
        double acc = 0;
        for (std::int64_t k = row_ptr[static_cast<std::size_t>(i)];
             k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
          acc += val[static_cast<std::size_t>(k)] *
                 full_in[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])];
        }
        local_out[static_cast<std::size_t>(i)] = acc;
      }
    });
  };
  auto dot = [&](const std::vector<double>& a, const std::vector<double>& b) {
    double local = 0;
    comm.compute(flop_cost(P.flop_ns, 2.0 * static_cast<double>(nloc)), [&] {
      for (std::int64_t i = 0; i < nloc; ++i) {
        local += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
      }
    });
    double global = 0;
    comm.allreduce(&local, &global, 1, DOUBLE, Op::Sum);
    return global;
  };

  std::vector<double> b_loc(static_cast<std::size_t>(nloc));
  matvec(ones, b_loc);

  CgResult result;
  comm.barrier();
  const sim::Time t0 = comm.now();

  // CG from x = 0: r = b, p = r.
  std::vector<double> x_loc(static_cast<std::size_t>(nloc), 0.0);
  std::vector<double> res = b_loc;
  std::vector<double> dir = res;
  std::vector<double> dir_full(static_cast<std::size_t>(P.n));
  std::vector<double> q(static_cast<std::size_t>(nloc));
  double rho = dot(res, res);
  const double rho0 = rho;
  bool monotone = true;

  for (int it = 0; it < P.iterations; ++it) {
    // Gather the full direction vector for the distributed matvec.
    comm.allgatherv(dir.data(), static_cast<std::size_t>(nloc), dir_full.data(), counts, displs,
                    DOUBLE);
    matvec(dir_full, q);
    const double alpha = rho / dot(dir, q);
    comm.compute(flop_cost(P.flop_ns, 4.0 * static_cast<double>(nloc)), [&] {
      for (std::int64_t i = 0; i < nloc; ++i) {
        x_loc[static_cast<std::size_t>(i)] += alpha * dir[static_cast<std::size_t>(i)];
        res[static_cast<std::size_t>(i)] -= alpha * q[static_cast<std::size_t>(i)];
      }
    });
    const double rho_new = dot(res, res);
    if (rho_new > rho * 1.0001) monotone = false;
    const double beta = rho_new / rho;
    rho = rho_new;
    comm.compute(flop_cost(P.flop_ns, 2.0 * static_cast<double>(nloc)), [&] {
      for (std::int64_t i = 0; i < nloc; ++i) {
        dir[static_cast<std::size_t>(i)] = res[static_cast<std::size_t>(i)] +
                                           beta * dir[static_cast<std::size_t>(i)];
      }
    });
  }

  result.seconds = sim::to_s(comm.now() - t0);
  result.final_residual = std::sqrt(rho);
  result.verified = monotone && rho < rho0 * 1e-6;

  double local_sum = 0;
  for (std::int64_t i = 0; i < nloc; ++i) local_sum += x_loc[static_cast<std::size_t>(i)];
  comm.allreduce(&local_sum, &result.checksum, 1, DOUBLE, Op::Sum);
  return result;
}

}  // namespace ib12x::nas
