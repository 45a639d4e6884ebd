// Host worker threads for application arithmetic.
//
// The event loop and every piece of model state live on one OS thread (see
// simulator.hpp).  What a simulated rank computes while it is charged
// virtual compute — a NAS kernel's FFTs, key sorts, matrix-vector products —
// schedules no events and reads no model state, so it may run on another
// host core while the event loop goes on.  Communicator::compute(t, work)
// does exactly that: it hands `work` to this pool as a HostJob, suspends the
// rank for `t` of virtual time, then joins the job.  Ranks whose compute
// intervals overlap in virtual time therefore compute on different cores,
// and no virtual number can move: the job's duration on the host is never
// observed by the model.
//
// The pool is process-wide, with hardware_concurrency() - 1 workers; with
// none, a job runs inline when it is submitted.  A thread waiting in join()
// runs queued jobs itself instead of sleeping.
//
// Job contract — a job:
//   - touches only its rank's private memory, and none that an outstanding
//     request references;
//   - reads nothing the simulator writes (model state, telemetry, the clock);
//   - frees only blocks it allocated itself, before it returns.
// The last rule is what lets the operator delete hook skip worker threads
// (PinCache::forget_everywhere): a block a job allocates and frees was
// never handed to an MPI call, so it cannot hold a registration.
#pragma once

#include <exception>
#include <memory>

namespace ib12x::sim {

class HostJob {
 public:
  /// Queues `work` (callable as work()) on the pool.  `work` must outlive
  /// the join.
  template <typename F>
  explicit HostJob(F& work)
      : run_([](void* f) { (*static_cast<F*>(f))(); }),
        work_(const_cast<void*>(static_cast<const void*>(std::addressof(work)))) {
    submit();
  }

  /// Joins a job that was never joined (its rank unwound mid-compute),
  /// dropping any exception it threw.
  ~HostJob();

  HostJob(const HostJob&) = delete;
  HostJob& operator=(const HostJob&) = delete;

  /// Waits until the job has run, running queued jobs on this thread
  /// meanwhile, and rethrows any exception the job threw.
  void join();

 private:
  friend class HostPool;

  void submit();
  void wait() noexcept;

  void (*run_)(void*);
  void* work_;
  HostJob* next_ = nullptr;  ///< link in the pool's queue
  bool done_ = false;        ///< set under the pool's lock once run_ returned
  bool joined_ = false;
  std::exception_ptr error_;
};

/// True on a pool worker thread, false on every other thread.
[[nodiscard]] bool on_host_worker() noexcept;

}  // namespace ib12x::sim
