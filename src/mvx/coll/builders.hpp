// Collective schedule builders.
//
// Each builder compiles one collective call into a CollSchedule (the caller
// passes it in empty, with its context and scratch pool set) whose round
// structure mirrors the step structure of the classic blocking algorithm it
// replaces (paper §3.2.2): one round per completed sendrecv step, sequential
// child sends in the binomial trees as chained single-send rounds, root-side
// gather/scatter fan as one round of posts.  Local data movement that the
// blocking code did synchronously before any communication (seeding
// accumulators, Bruck's initial rotation) happens at build time, so a
// schedule executed to completion produces byte-identical buffers *and*
// identical virtual-time behaviour to the code it replaced.
//
// The multi-lane builders (Träff-style lanes) instead emit several
// independent round chains — one per lane, each pinned to a rail via the op
// lane field — which the engine progresses concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "mvx/coll/schedule.hpp"
#include "mvx/coll/tags.hpp"
#include "mvx/datatype.hpp"

namespace ib12x::mvx {
struct Config;
}

namespace ib12x::mvx::coll {

/// Everything a builder needs: communicator geometry, the reserved tag
/// block, tuning, and the call's arguments (only the relevant subset is
/// filled for any given collective).
struct BuildCtx {
  // ---- communicator geometry ----
  int p = 1;                                ///< communicator size
  int me = 0;                               ///< my comm rank
  const std::vector<int>* group = nullptr;  ///< comm rank -> world rank
  int ctx = 0;                              ///< collective context id
  TagRing::Block tags;                      ///< reserved 256-tag sub-range
  const Config* cfg = nullptr;
  int nrails = 1;

  // ---- call arguments ----
  const void* sendbuf = nullptr;
  void* recvbuf = nullptr;
  std::size_t count = 0;
  Datatype dt{};
  Op redop = Op::Sum;
  int root = 0;
  const std::vector<std::int64_t>* scounts = nullptr;
  const std::vector<std::int64_t>* sdispls = nullptr;
  const std::vector<std::int64_t>* rcounts = nullptr;
  const std::vector<std::int64_t>* rdispls = nullptr;

  [[nodiscard]] int wr(int comm_rank) const {
    return (*group)[static_cast<std::size_t>(comm_rank)];
  }
  /// Draws the next unused tag of the reserved block (deterministic: every
  /// rank draws in the same builder-defined order).
  [[nodiscard]] int fresh_tag() const { return tags.tag(tag_cursor_++); }

 private:
  mutable int tag_cursor_ = 0;
};

// ---- one builder per registered algorithm (registry: coll/select.cpp) ----

void build_barrier_dissemination(CollSchedule& s, const BuildCtx& c);

void build_bcast_binomial(CollSchedule& s, const BuildCtx& c);
void build_bcast_multilane(CollSchedule& s, const BuildCtx& c);

void build_reduce_binomial(CollSchedule& s, const BuildCtx& c);

void build_allreduce_recursive_doubling(CollSchedule& s, const BuildCtx& c);
void build_allreduce_reduce_bcast(CollSchedule& s, const BuildCtx& c);
void build_allreduce_rabenseifner(CollSchedule& s, const BuildCtx& c);
void build_allreduce_multilane(CollSchedule& s, const BuildCtx& c);

void build_gather_linear(CollSchedule& s, const BuildCtx& c);
void build_gatherv_linear(CollSchedule& s, const BuildCtx& c);
void build_scatter_linear(CollSchedule& s, const BuildCtx& c);

void build_allgather_ring(CollSchedule& s, const BuildCtx& c);
void build_allgatherv_ring(CollSchedule& s, const BuildCtx& c);

void build_alltoall_pairwise(CollSchedule& s, const BuildCtx& c);
void build_alltoall_bruck(CollSchedule& s, const BuildCtx& c);
void build_alltoallv_pairwise(CollSchedule& s, const BuildCtx& c);

void build_reduce_scatter_block_pairwise(CollSchedule& s, const BuildCtx& c);

void build_scan_hillis_steele(CollSchedule& s, const BuildCtx& c);

}  // namespace ib12x::mvx::coll
