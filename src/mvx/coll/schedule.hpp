// The compiled form of a collective: a small DAG of rounds.
//
// A builder (coll/builders.cpp) translates one collective call into a
// CollSchedule at the moment the collective starts; the CollEngine then
// executes it incrementally as the underlying transfers complete.  A *round*
// is the engine's unit of synchronization: its ops are issued in listed
// order (local ops — reduce_local / copy / cpu — execute inline, isend /
// irecv post to the endpoint), and the round completes when every posted
// transfer has completed.  A round becomes eligible the moment all rounds in
// its `deps` list are complete, so independent chains — the multi-lane
// decomposition's per-lane pipelines — progress without synchronizing with
// each other, while a `barrier_round` (a round depending on every currently
// known round) joins the whole DAG.
//
// The schedule owns its scratch memory (accumulators, pack buffers): user
// buffers must stay valid until the collective completes, exactly as MPI
// requires, but nothing in a schedule refers to the stack frame that built
// it, which is what lets a non-blocking collective outlive its initiating
// call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mvx/datatype.hpp"
#include "sim/time.hpp"

namespace ib12x::mvx::coll {

/// Per-rank recycling arena for schedule scratch blocks.  A schedule returns
/// its blocks on destruction and later schedules reuse them (exact-size LIFO
/// buckets), so a rank's collective staging stays allocated, and therefore
/// registered in the pin-down cache, from one collective to the next; real
/// MPI libraries pool collective staging for the same reason.  A block freed
/// at the end of each collective would take its registration with it:
/// without the pool, pallas_collectives' EPC-4QP Allreduce rises from 251.27
/// to 254.12 us at 128 KiB and from 768.13 to 778.40 us at 512 KiB.
class ScratchPool {
 public:
  /// Returns a zero-filled block of exactly `n` bytes, reusing a returned
  /// block of the same size when one exists (LIFO).
  std::byte* get(std::size_t n);
  /// Hands a block obtained from get(n) back for reuse.
  void put(std::byte* p, std::size_t n);

 private:
  std::vector<std::unique_ptr<std::byte[]>> blocks_;     ///< owns every block
  std::map<std::size_t, std::vector<std::byte*>> free_;  ///< size -> LIFO free list
};

struct CollOp {
  enum class Kind : std::uint8_t {
    Isend,        ///< post a Collective-marked send (peer = world rank)
    Irecv,        ///< post a receive on the collective context
    ReduceLocal,  ///< dst[i] = redop(dst[i], src[i]) elementwise
    Copy,         ///< memcpy dst <- src (no CPU charge; pair with Cpu to bill)
    Cpu,          ///< charge `cpu` of host time to the executing context
  };

  Kind kind = Kind::Copy;
  int peer = -1;             ///< world rank (Isend/Irecv)
  int tag = 0;               ///< full wire tag (Isend/Irecv)
  int lane = -1;             ///< rail pin for multi-lane transfers; -1 = policy decides
  const void* src = nullptr; ///< Isend / Copy / ReduceLocal input
  void* dst = nullptr;       ///< Irecv / Copy destination, ReduceLocal accumulator
  std::int64_t bytes = 0;    ///< Isend/Irecv/Copy byte count
  std::size_t count = 0;     ///< ReduceLocal element count
  Datatype dt{};             ///< ReduceLocal element type
  Op redop = Op::Sum;        ///< ReduceLocal operator
  sim::Time cpu = 0;         ///< Cpu charge
};

struct CollRound {
  std::vector<CollOp> ops;
  std::vector<int> deps;  ///< indices of rounds that must complete first
};

class CollSchedule {
 public:
  CollSchedule() = default;
  CollSchedule(CollSchedule&&) noexcept = default;
  CollSchedule& operator=(CollSchedule&&) noexcept = default;
  ~CollSchedule();  ///< returns pooled scratch blocks (no-op if moved-from)

  /// Appends an empty round; `deps` lists prerequisite round indices
  /// (pass {} for a DAG root, or {prev} to chain).  Returns its index.
  int add_round(std::vector<int> deps = {});

  /// Appends a round depending on *every* round added so far — the
  /// barrier_round primitive joining all open chains.
  int add_barrier_round();

  // ---- op emitters (append to round `r`) ----
  void isend(int r, int peer_world, int tag, const void* src, std::int64_t bytes, int lane = -1);
  void irecv(int r, int peer_world, int tag, void* dst, std::int64_t bytes, int lane = -1);
  void reduce_local(int r, Op redop, Datatype dt, void* inout, const void* in, std::size_t count);
  void copy(int r, void* dst, const void* src, std::int64_t bytes);
  void cpu(int r, sim::Time t);

  /// Allocates `n` bytes of zero-filled scratch owned by (and living as long
  /// as) the schedule.  Addresses are stable across later allocations.  With
  /// a pool attached the block is leased from it and returned at schedule
  /// destruction; otherwise the schedule mallocs privately (test-built
  /// schedules without a BuildCtx).
  std::byte* scratch(std::size_t n);

  /// Attaches the per-rank recycling pool; must precede any scratch() call.
  void set_scratch_pool(ScratchPool* p) { pool_ = p; }

  [[nodiscard]] std::size_t round_count() const { return rounds_.size(); }
  [[nodiscard]] const std::vector<CollRound>& rounds() const { return rounds_; }

  int ctx = 0;                        ///< context id for every posted transfer
  std::function<void()> on_complete;  ///< run when the schedule finishes (tag-slot release)

 private:
  std::vector<CollRound> rounds_;
  ScratchPool* pool_ = nullptr;
  std::vector<std::pair<std::byte*, std::size_t>> pooled_;  // leased blocks to return
  std::deque<std::vector<std::byte>> scratch_;  // pool-less fallback: stable addresses
};

}  // namespace ib12x::mvx::coll
