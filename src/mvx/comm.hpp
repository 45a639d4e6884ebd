// The public MPI-like interface of the substrate.
//
// A Communicator is the per-rank handle user code receives from World::run.
// Point-to-point calls are routed through the ADI endpoint with the
// communication marker set from the call type (send/recv = blocking,
// isend/irecv = non-blocking); collectives run pt2pt algorithms whose
// internal transfers are marked Collective — exactly the distinction the
// EPC policy keys on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mvx/coll/select.hpp"
#include "mvx/coll/tags.hpp"
#include "mvx/datatype.hpp"
#include "mvx/endpoint.hpp"
#include "mvx/policy.hpp"
#include "mvx/request.hpp"
#include "sim/host_pool.hpp"
#include "sim/time.hpp"

namespace ib12x::mvx {

namespace coll {
struct BuildCtx;
}

class World;

inline constexpr int ANY_SOURCE = -1;
inline constexpr int ANY_TAG = -1;

class Communicator {
 public:
  Communicator(World* world, Endpoint* ep, std::vector<int> group, int my_index, int ctx_base);

  [[nodiscard]] int rank() const { return my_index_; }
  [[nodiscard]] int size() const { return static_cast<int>(group_.size()); }
  [[nodiscard]] int world_rank(int comm_rank) const {
    return group_.at(static_cast<std::size_t>(comm_rank));
  }

  // ---- point-to-point ----
  void send(const void* buf, std::size_t count, Datatype dt, int dst, int tag);
  void recv(void* buf, std::size_t count, Datatype dt, int src, int tag, Status* st = nullptr);
  Request isend(const void* buf, std::size_t count, Datatype dt, int dst, int tag);
  Request irecv(void* buf, std::size_t count, Datatype dt, int src, int tag);
  void wait(const Request& r, Status* st = nullptr);
  void waitall(std::vector<Request>& reqs);
  /// MPI_Waitany: blocks until at least one request is complete and returns
  /// the lowest complete index (-1 if `reqs` is empty / all null).
  int waitany(const std::vector<Request>& reqs);
  /// MPI_Waitsome: blocks until at least one request is complete and returns
  /// every complete index (empty if `reqs` is empty / all null).
  std::vector<int> waitsome(const std::vector<Request>& reqs);
  bool test(const Request& r);
  void sendrecv(const void* sbuf, std::size_t scount, Datatype sdt, int dst, int stag,
                void* rbuf, std::size_t rcount, Datatype rdt, int src, int rtag,
                Status* st = nullptr);
  /// MPI_Iprobe: true if a matching message has arrived (unreceived).
  bool iprobe(int src, int tag, Status* st = nullptr);
  /// MPI_Probe: blocks until a matching message arrives.
  void probe(int src, int tag, Status* st = nullptr);

  // ---- non-blocking collectives (schedule-engine backed) ----
  //
  // Each call compiles the collective into a CollSchedule (mvx/coll/) and
  // hands it to the endpoint's CollEngine; the returned Request completes
  // when the whole schedule has executed and is waitable exactly like a
  // pt2pt request (wait / waitall / waitany / test).  All buffers must stay
  // untouched until completion, as MPI requires.
  Request ibarrier();
  Request ibcast(void* buf, std::size_t count, Datatype dt, int root);
  Request ireduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt, Op op,
                  int root);
  Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt, Op op);
  Request iallgather(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt);
  Request ialltoall(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt);

  // ---- collectives (blocking = build schedule, then wait) ----
  void barrier();
  void bcast(void* buf, std::size_t count, Datatype dt, int root);
  void reduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt, Op op, int root);
  void allreduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt, Op op);
  void gather(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt, int root);
  void scatter(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt, int root);
  void allgather(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt);
  void alltoall(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt);
  void alltoallv(const void* sendbuf, const std::vector<std::int64_t>& scounts,
                 const std::vector<std::int64_t>& sdispls, void* recvbuf,
                 const std::vector<std::int64_t>& rcounts,
                 const std::vector<std::int64_t>& rdispls, Datatype dt);
  /// MPI_Reduce_scatter_block: reduce then scatter equal blocks.
  void reduce_scatter_block(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
                            Op op);
  /// MPI_Scan (inclusive prefix reduction by rank order).
  void scan(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt, Op op);
  /// MPI_Allgatherv.
  void allgatherv(const void* sendbuf, std::size_t sendcount, void* recvbuf,
                  const std::vector<std::int64_t>& counts,
                  const std::vector<std::int64_t>& displs, Datatype dt);
  /// MPI_Gatherv (root collects variable-size blocks).
  void gatherv(const void* sendbuf, std::size_t sendcount, void* recvbuf,
               const std::vector<std::int64_t>& counts, const std::vector<std::int64_t>& displs,
               Datatype dt, int root);

  // ---- communicator management ----
  Communicator dup();
  /// MPI_Comm_split: every member calls with a color (>=0) and key; members
  /// sharing a color form a new communicator ordered by (key, old rank).
  Communicator split(int color, int key);

  // ---- time ----
  [[nodiscard]] sim::Time now() const;
  [[nodiscard]] double wtime() const { return sim::to_s(now()); }
  /// Charges virtual compute time to this rank (models application work).
  void compute(sim::Time t);
  /// Charges `t` exactly as compute(t) does while `work()` runs on a host
  /// worker thread (sim/host_pool.hpp, whose job contract `work` must keep),
  /// then joins it: `work`'s effects are visible on return, and an exception
  /// it threw is rethrown here, after the charge.
  template <typename Work>
  void compute(sim::Time t, Work&& work) {
    sim::HostJob job(work);
    compute(t);
    job.join();
  }

  [[nodiscard]] Endpoint& endpoint() const { return *ep_; }

  /// Index of the modeled app thread driving this call (0 unless the rank
  /// was configured with vci.threads > 1 and this fiber was registered).
  [[nodiscard]] int thread_id() const { return ep_->current_thread(); }

  /// Test hook: this communicator's collective tag ring (wraparound tests).
  [[nodiscard]] coll::TagRing& debug_tag_ring() { return *tag_ring_; }

 private:
  friend class World;

  /// Internal pt2pt with an explicit communication-marker kind.
  Request isend_kind(CommKind kind, const void* buf, std::size_t bytes, int dst, int tag, int ctx);
  Request irecv_ctx(void* buf, std::size_t bytes, int src, int tag, int ctx);

  /// Geometry half of a BuildCtx (p, me, group, ctx, cfg, rails).
  [[nodiscard]] coll::BuildCtx base_ctx() const;
  /// Reserves a tag slot (waiting out a wrap-boundary collision), selects
  /// the algorithm, builds the schedule and hands it to the engine.
  Request launch_coll(coll::CollKind kind, coll::BuildCtx& c, std::int64_t total_bytes,
                      std::size_t count);

  // self-messaging (same rank) is satisfied locally
  struct SelfMsg {
    int tag;
    int ctx;
    Payload data;
  };
  std::vector<SelfMsg> self_q_;
  bool try_self_recv(void* buf, std::size_t bytes, int tag, int ctx, Status* st);

  World* world_;
  Endpoint* ep_;
  std::vector<int> group_;   ///< comm rank → world rank
  int my_index_;
  int ctx_base_;             ///< pt2pt ctx = ctx_base_, collective ctx = ctx_base_ + 1
  // shared_ptr: in-flight schedules hold the ring (for slot release on
  // completion) even if the Communicator object is moved or destroyed.
  std::shared_ptr<coll::TagRing> tag_ring_ = std::make_shared<coll::TagRing>();
};

}  // namespace ib12x::mvx
