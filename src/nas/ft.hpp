// NAS FT (3-D FFT PDE solver) on the mvx substrate.
//
// NPB 2.x MPI algorithm with 1-D (slab) decomposition: the forward 3-D FFT
// runs x- and y-FFTs on local z-slabs, transposes the volume with an
// MPI_Alltoall so every rank owns an x-slab, and finishes with z-FFTs.  Each
// timestep evolves the spectrum and runs the inverse transform — one full
// all-to-all of the volume per iteration, which is the communication the
// paper's fig. 11/12 measure.
#pragma once

#include <complex>
#include <vector>

#include "mvx/comm.hpp"
#include "nas/params.hpp"

namespace ib12x::nas {

struct FtResult {
  double seconds = 0;    ///< virtual execution time of the timed region
  bool verified = false; ///< checksums finite and layout checks passed
  std::vector<std::complex<double>> checksums;  ///< one per iteration
};

FtResult run_ft(mvx::Communicator& comm, NasClass cls);

/// Fills `decay` with the evolve step's factors exp(-4π²α·K·iter) for every
/// integer K = |k|² the grid of `params` holds, indexed by K.  Allocates
/// only when `decay`'s capacity is short of that.
void ft_evolve_factors(const FtParams& params, int iter, std::vector<double>& decay);

FtResult run_ft(mvx::Communicator& comm, const FtParams& params);

}  // namespace ib12x::nas
