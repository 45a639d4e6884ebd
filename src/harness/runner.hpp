// Microbenchmark drivers reproducing the paper's §4.2 test semantics:
//
//   latency   — ping-pong with blocking MPI_Send/MPI_Recv; steady state is
//               measured by skipping warm-up iterations;
//   uni-BW    — "ping-ping": sender issues a 64-deep window of MPI_Isend,
//               receiver window of MPI_Irecv, 1-byte acknowledgment per
//               window;
//   bi-BW     — exchange: both sides issue the window after preposting
//               receives; the peer's messages act as the acknowledgment;
//   alltoall  — Pallas/IMB-style: timed MPI_Alltoall per message size.
//
// A Runner owns one simulated cluster (one configuration); each measurement
// runs the ranks afresh on the same fabric, so state (registration caches,
// QP hand-off) warms up exactly like a long-lived MPI job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/table.hpp"
#include "mvx/mpi.hpp"

namespace ib12x::harness {

struct BenchParams {
  int lat_iters = 100;
  int lat_skip = 20;
  int bw_window = 64;
  int bw_iters = 12;
  int bw_skip = 2;
  int a2a_iters = 20;
  int a2a_skip = 4;
};

class Runner {
 public:
  Runner(mvx::ClusterSpec spec, mvx::Config cfg, BenchParams bp = {})
      : world_(spec, cfg), bp_(bp) {}

  /// One-way ping-pong latency in microseconds (ranks 0 and 1).
  double latency_us(std::int64_t bytes);

  /// Uni-directional windowed bandwidth, MB/s (decimal, as the paper plots).
  double uni_bw_mbs(std::int64_t bytes);

  /// Bi-directional exchange bandwidth, MB/s (sum of both directions).
  double bi_bw_mbs(std::int64_t bytes);

  /// Average MPI_Alltoall completion time in microseconds for `bytes` per
  /// destination, over all ranks of the cluster.
  double alltoall_us(std::int64_t bytes);

  mvx::World& world() { return world_; }

 private:
  mvx::World world_;
  BenchParams bp_;
  /// Per-rank alltoall send and receive buffers, reused across runs.
  std::vector<std::vector<std::byte>> a2a_send_, a2a_recv_;
};

/// Power-of-two sweep helper: {from, 2·from, …, to}.
std::vector<std::int64_t> pow2_sizes(std::int64_t from, std::int64_t to);

/// A world's telemetry registry (counters from every layer, gauges from the
/// HCA model) rendered as a one-column table, one row per metric.
Table telemetry_table(mvx::World& world, std::string title = "per-layer telemetry");

}  // namespace ib12x::harness
