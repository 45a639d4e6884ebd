// Collective algorithm registry and selection table.
//
// Every collective has one or more registered *builders* (coll/builders.cpp)
// that compile a call into a CollSchedule.  This module owns the choice of
// builder: the per-collective tuning knobs that used to live loose in
// Config (AlltoallAlgo / AllreduceAlgo and the Auto crossovers measured in
// bench/ablation_coll_algos) plus the multi-lane decomposition knobs, and a
// select() keyed on (collective, p, bytes) that applies the MVAPICH-era
// crossover rules:
//
//   * alltoall — Bruck below bruck_threshold per block (log p larger
//     messages beat p-1 small ones), pairwise exchange above;
//   * allreduce — latency-optimal recursive doubling for short vectors
//     (power-of-two p), bandwidth-optimal Rabenseifner (reduce-scatter +
//     allgather) at/above rabenseifner_threshold, reduce+bcast fallback;
//   * bcast / allreduce multi-lane — when `lanes` enables it and the
//     payload is at least lane_threshold, split into per-rail lanes each
//     running the base algorithm concurrently (Träff-style decomposition).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ib12x::mvx::coll {

class CollSchedule;
struct BuildCtx;

enum class AlltoallAlgo { Auto, Pairwise, Bruck };
enum class AllreduceAlgo { Auto, RecursiveDoubling, ReduceBcast, Rabenseifner, MultiLane };
enum class BcastAlgo { Auto, Binomial, MultiLane };

/// Per-collective tuning: algorithm forcing plus the Auto crossovers.
struct Tuning {
  AlltoallAlgo alltoall_algo = AlltoallAlgo::Auto;
  AllreduceAlgo allreduce_algo = AllreduceAlgo::Auto;
  BcastAlgo bcast_algo = BcastAlgo::Auto;

  /// Auto crossovers (measured in bench/ablation_coll_algos): Bruck for
  /// alltoall blocks below bruck_threshold; Rabenseifner for allreduce
  /// vectors at/above rabenseifner_threshold bytes.
  std::int64_t bruck_threshold = 512;
  std::int64_t rabenseifner_threshold = 128 * 1024;

  /// Multi-lane decomposition width: 1 = off (default), 0 = one lane per
  /// rail, n > 1 = exactly n lanes (clamped to the rail count).  Auto
  /// selection only engages lanes for payloads >= lane_threshold.
  int lanes = 1;
  std::int64_t lane_threshold = 256 * 1024;
};

enum class CollKind {
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Gather,
  Gatherv,
  Scatter,
  Allgather,
  Allgatherv,
  Alltoall,
  Alltoallv,
  ReduceScatterBlock,
  Scan,
};

/// One registered algorithm: a name (for benches/tests/introspection) and
/// the builder that compiles a call into a schedule.  The builder appends to
/// an empty schedule whose context and scratch pool are already set.
struct AlgoEntry {
  const char* name;
  void (*build)(CollSchedule&, const BuildCtx&);
};

/// All algorithms registered for `kind`, selection-order first.
struct AlgoList {
  const AlgoEntry* entries;
  std::size_t count;
};
AlgoList algorithms(CollKind kind);

/// Picks the builder for one call.  `total_bytes` is the per-rank payload
/// (block size for alltoall), `count` the element count (Rabenseifner needs
/// count >= p), `nrails` the rail width available for lane pinning.
const AlgoEntry& select(CollKind kind, const Tuning& t, int p, std::int64_t total_bytes,
                        std::size_t count, int nrails);

/// Resolved lane width for a multi-lane schedule under `t` (>= 1).
int lane_width(const Tuning& t, int nrails);

}  // namespace ib12x::mvx::coll
