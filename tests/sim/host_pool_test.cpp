#include "sim/host_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ib12x::sim {
namespace {

TEST(HostPool, CallerIsNotAWorker) { EXPECT_FALSE(on_host_worker()); }

TEST(HostPool, JobPickedUpBeforeTheJoinRunsOnAWorker) {
  if (std::thread::hardware_concurrency() < 2) GTEST_SKIP() << "the pool has no workers";
  std::atomic<bool> started{false}, release{false};
  bool on_worker = false;
  auto work = [&] {
    on_worker = on_host_worker();
    started = true;
    while (!release) std::this_thread::yield();
  };
  HostJob job(work);
  // Nothing joins yet, so only a worker can start the job.
  while (!started) std::this_thread::yield();
  release = true;
  job.join();
  EXPECT_TRUE(on_worker);
}

TEST(HostPool, JoinsInAnyOrderSeeEveryJobsWrites) {
  constexpr int kJobs = 16;
  std::vector<std::vector<int>> out(kJobs);
  std::vector<std::function<void()>> works;
  for (int j = 0; j < kJobs; ++j) {
    works.emplace_back([&out, j] {
      out[static_cast<std::size_t>(j)].assign(4096, j);  // allocates and keeps the block
    });
  }
  std::vector<std::unique_ptr<HostJob>> jobs;
  for (auto& w : works) jobs.push_back(std::make_unique<HostJob>(w));
  for (int j = kJobs - 1; j >= 0; --j) {
    jobs[static_cast<std::size_t>(j)]->join();
    ASSERT_EQ(out[static_cast<std::size_t>(j)], std::vector<int>(4096, j));
  }
}

TEST(HostPool, JoinRethrowsTheJobsException) {
  auto work = [] { throw std::runtime_error("job failed"); };
  HostJob job(work);
  EXPECT_THROW(job.join(), std::runtime_error);
}

TEST(HostPool, UnjoinedJobIsJoinedOnDestruction) {
  std::atomic<int> runs{0};
  auto work = [&] { ++runs; };
  { HostJob job(work); }
  EXPECT_EQ(runs.load(), 1);
  // An exception nobody joins is dropped, not raised from the destructor.
  auto fails = [] { throw std::runtime_error("dropped"); };
  EXPECT_NO_THROW({ HostJob job(fails); });
}

}  // namespace
}  // namespace ib12x::sim
