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
//
// Storage is flat: one op array and one dep array for the whole schedule,
// each round a span of both.  Ops are appended to the newest round, which is
// the order every builder emits them in.  A schedule that clear()s keeps its
// capacity, and the engine hands finished schedules back to the next
// collective of the rank (CollEngine::take_schedule), so a rank in steady
// state builds and runs collectives without allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mvx/datatype.hpp"
#include "sim/inline_function.hpp"
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

class CollSchedule {
 public:
  CollSchedule() = default;
  CollSchedule(CollSchedule&& other) noexcept { swap(other); }
  CollSchedule& operator=(CollSchedule&& other) noexcept {
    CollSchedule(std::move(other)).swap(*this);
    return *this;
  }
  ~CollSchedule() { release_scratch(); }

  /// Empties the schedule for reuse, keeping its storage: returns pooled
  /// scratch, drops rounds, ops and the completion hook, resets ctx.
  void clear();

  /// Appends an empty round; `deps` lists prerequisite round indices
  /// (pass {} for a DAG root, or {prev} to chain).  Returns its index.
  int add_round(std::initializer_list<int> deps = {});
  /// Appends a round depending on round `prev` alone, or a DAG root when
  /// `prev` is negative — the chaining step of every builder.
  int chain_round(int prev);

  /// Appends a round depending on *every* round added so far — the
  /// barrier_round primitive joining all open chains.
  int add_barrier_round();

  // ---- op emitters (append to round `r`, which must be the newest) ----
  void isend(int r, int peer_world, int tag, const void* src, std::int64_t bytes, int lane = -1);
  void irecv(int r, int peer_world, int tag, void* dst, std::int64_t bytes, int lane = -1);
  void reduce_local(int r, Op redop, Datatype dt, void* inout, const void* in, std::size_t count);
  void copy(int r, void* dst, const void* src, std::int64_t bytes);
  void cpu(int r, sim::Time t);

  /// Allocates `n` bytes of zero-filled scratch owned by the schedule until
  /// clear() or destruction.  Addresses are stable across later
  /// allocations.  With a pool attached the block is leased from it and
  /// returned then; otherwise the schedule mallocs privately (schedules
  /// built by hand, not by take_schedule()).
  std::byte* scratch(std::size_t n);

  /// Attaches the per-rank recycling pool; must precede any scratch() call.
  void set_scratch_pool(ScratchPool* p) { pool_ = p; }

  [[nodiscard]] std::size_t round_count() const { return rounds_.size(); }
  /// Round `r`'s ops, in issue order.
  [[nodiscard]] std::span<const CollOp> ops(int r) const {
    return span_of(ops_, rounds_[static_cast<std::size_t>(r)].op_begin, op_end(r));
  }
  /// Round `r`'s prerequisite round indices.
  [[nodiscard]] std::span<const int> deps(int r) const {
    return span_of(deps_, rounds_[static_cast<std::size_t>(r)].dep_begin, dep_end(r));
  }

  int ctx = 0;                     ///< context id for every posted transfer
  sim::InlineFunction on_complete; ///< run when the schedule finishes (tag-slot release)

 private:
  struct Round {
    std::uint32_t op_begin = 0;   ///< first op in ops_; ends where the next round's begin
    std::uint32_t dep_begin = 0;  ///< first dep in deps_; likewise
  };

  template <typename T>
  static std::span<const T> span_of(const std::vector<T>& v, std::size_t b, std::size_t e) {
    return {v.data() + b, e - b};
  }
  [[nodiscard]] std::size_t op_end(int r) const {
    const auto next = static_cast<std::size_t>(r) + 1;
    return next < rounds_.size() ? rounds_[next].op_begin : ops_.size();
  }
  [[nodiscard]] std::size_t dep_end(int r) const {
    const auto next = static_cast<std::size_t>(r) + 1;
    return next < rounds_.size() ? rounds_[next].dep_begin : deps_.size();
  }
  int open_round(std::size_t dep_begin);
  void append(int r, const CollOp& op);
  void release_scratch();
  void swap(CollSchedule& o) noexcept {
    std::swap(ctx, o.ctx);
    std::swap(on_complete, o.on_complete);
    rounds_.swap(o.rounds_);
    ops_.swap(o.ops_);
    deps_.swap(o.deps_);
    std::swap(pool_, o.pool_);
    pooled_.swap(o.pooled_);
    scratch_.swap(o.scratch_);
  }

  std::vector<Round> rounds_;
  std::vector<CollOp> ops_;
  std::vector<int> deps_;
  ScratchPool* pool_ = nullptr;
  std::vector<std::pair<std::byte*, std::size_t>> pooled_;  // leased blocks to return
  std::vector<std::unique_ptr<std::byte[]>> scratch_;  // pool-less fallback: stable addresses
};

}  // namespace ib12x::mvx::coll
