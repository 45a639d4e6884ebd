// NAS IS (Integer Sort) on the mvx substrate.
//
// NPB 2.x MPI algorithm: every iteration classifies the local keys into
// per-destination buckets, exchanges bucket sizes (MPI_Alltoall), moves the
// keys (MPI_Alltoallv) so rank r ends up with the keys in its key-range, and
// ranks them locally with a counting sort.  Communication volume per
// iteration is the entire key array, which is why IS is the NPB kernel most
// sensitive to the MPI bandwidth improvements the paper measures (fig. 9/10).
#pragma once

#include <cstdint>
#include <vector>

#include "mvx/comm.hpp"
#include "nas/params.hpp"

namespace ib12x::nas {

struct IsResult {
  double seconds = 0;          ///< virtual execution time of the timed region
  bool verified = false;       ///< global sortedness + key conservation
  std::uint64_t checksum = 0;  ///< deterministic digest of the final ranking
  std::int64_t keys_moved = 0; ///< total keys this rank sent through alltoallv
};

/// Exact n / d for 32-bit n and d by one multiply and a shift (Lemire, Kaser
/// and Kurz 2019): with M = ceil(2^64 / d), n / d = (M·n) >> 64.  At d = 1,
/// M would be 2^64, so that case returns n.
class KeyDivider {
 public:
  explicit KeyDivider(std::uint32_t d) : d_(d), m_(UINT64_MAX / d + 1) {}

  std::uint32_t operator()(std::uint32_t n) const {
    if (d_ == 1) return n;
    return static_cast<std::uint32_t>((static_cast<__uint128_t>(m_) * n) >> 64);
  }

 private:
  std::uint32_t d_;
  std::uint64_t m_;
};

IsResult run_is(mvx::Communicator& comm, NasClass cls);
IsResult run_is(mvx::Communicator& comm, const IsParams& params);

}  // namespace ib12x::nas
