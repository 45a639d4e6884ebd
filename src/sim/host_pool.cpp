#include "sim/host_pool.hpp"

#include <condition_variable>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace ib12x::sim {

namespace {
thread_local bool t_worker = false;
}  // namespace

bool on_host_worker() noexcept { return t_worker; }

class HostPool {
 public:
  static HostPool& instance() {
    static HostPool pool;
    return pool;
  }

  void submit(HostJob& job) {
    if (workers_.empty()) {
      run(job);
      return;
    }
    {
      std::lock_guard lock(mu_);
      (tail_ != nullptr ? tail_->next_ : head_) = &job;
      tail_ = &job;
    }
    ready_.notify_one();
  }

  /// Returns once `job` has run; pops and runs queued jobs while it waits.
  void wait(HostJob& job) {
    std::unique_lock lock(mu_);
    for (;;) {
      finished_.wait(lock, [&] { return job.done_ || head_ != nullptr; });
      if (job.done_) return;
      HostJob* next = pop();
      lock.unlock();
      run(*next);
      lock.lock();
    }
  }

 private:
  HostPool() {
    const unsigned cores = std::thread::hardware_concurrency();
    workers_.reserve(cores);
    try {
      for (unsigned i = 1; i < cores; ++i) workers_.emplace_back([this] { work(); });
    } catch (const std::system_error&) {
      // The host refused another thread: run with the workers it gave.
    }
  }

  ~HostPool() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    ready_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void work() {
    t_worker = true;
    std::unique_lock lock(mu_);
    for (;;) {
      ready_.wait(lock, [this] { return stop_ || head_ != nullptr; });
      if (head_ == nullptr) return;  // stopping, and nothing is queued
      HostJob* job = pop();
      lock.unlock();
      run(*job);
      lock.lock();
    }
  }

  /// The queue's head, unlinked; the caller holds mu_ and has seen it
  /// non-empty.
  HostJob* pop() {
    HostJob* job = head_;
    head_ = job->next_;
    if (head_ == nullptr) tail_ = nullptr;
    return job;
  }

  void run(HostJob& job) {
    try {
      job.run_(job.work_);
    } catch (...) {
      job.error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      job.done_ = true;  // the joiner may destroy `job` from here on
    }
    finished_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable ready_;     ///< a job was queued, or the pool stops
  std::condition_variable finished_;  ///< a job finished
  HostJob* head_ = nullptr;           ///< FIFO of queued jobs, linked by next_
  HostJob* tail_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

void HostJob::submit() { HostPool::instance().submit(*this); }

void HostJob::wait() noexcept {
  HostPool::instance().wait(*this);
  joined_ = true;
}

void HostJob::join() {
  wait();
  if (error_) std::rethrow_exception(error_);
}

HostJob::~HostJob() {
  if (!joined_) wait();
}

}  // namespace ib12x::sim
