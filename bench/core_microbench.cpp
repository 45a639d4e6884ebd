// google-benchmark microbenchmarks of the simulation substrate itself:
// event-queue throughput, same-instant lane throughput, event cascades,
// process suspend/resume cost (fiber vs. the thread-baton it replaced),
// resource-reservation cost, end-to-end modelled message rate, FFT kernel
// speed.  These guard the *wall-clock* performance of the simulator (a
// regression here makes the figure benches slow, not wrong).
//
// Results are also written to BENCH_kernel.json (google-benchmark's JSON
// format) unless the caller passes its own --benchmark_out flag.
#include <benchmark/benchmark.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ib/verbs.hpp"
#include "mvx/mpi.hpp"
#include "nas/fft.hpp"
#include "sim/event_queue.hpp"
#include "sim/process.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace ib12x;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) q.push((i * 7919) % 1000, [] {});
    sim::Time t = 0;
    while (!q.empty()) benchmark::DoNotOptimize(q.pop(t));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_EventQueueSameInstant(benchmark::State& state) {
  // The dominant pattern in the figure benches: events scheduled for the
  // current instant (CQE demux, credit returns, wakeups) — the FIFO lane.
  const int n = static_cast<int>(state.range(0));
  sim::EventQueue q;
  sim::Time t = 0;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) q.push(0, [] {});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop(t));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueSameInstant)->Arg(1024);

/// Self-rescheduling event with a trivially-copyable 16-byte capture: the
/// whole chain runs without a single kernel allocation once the queue warms.
struct Chain {
  sim::Simulator* s;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) s->after(100, Chain{s, remaining});
  }
};

void BM_SimulatorEventCascade(benchmark::State& state) {
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator s;
    int remaining = static_cast<int>(state.range(0));
    s.after(100, Chain{&s, &remaining});
    s.run();
    benchmark::DoNotOptimize(s.now());
    allocs += s.kernel_allocs();
    events += s.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["allocs_per_event"] =
      events == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(events);
}
BENCHMARK(BM_SimulatorEventCascade)->Arg(10000);

void BM_ProcessPingPong(benchmark::State& state) {
  // Two simulated processes handing a baton back and forth: the pure
  // suspend/resume + wakeup cost of the fiber-based process engine.
  const int rounds = static_cast<int>(state.range(0));
  std::uint64_t switches = 0;
  for (auto _ : state) {
    sim::Simulator s;
    sim::ProcessSet procs(s);
    sim::Waitable wa, wb;
    int turn = 0;
    procs.add("ping", [&](sim::Process& p) {
      for (int i = 0; i < rounds; ++i) {
        p.wait_until(wa, [&] { return turn == 0; });
        turn = 1;
        wb.notify_all();
      }
    });
    procs.add("pong", [&](sim::Process& p) {
      for (int i = 0; i < rounds; ++i) {
        p.wait_until(wb, [&] { return turn == 1; });
        turn = 0;
        wa.notify_all();
      }
    });
    procs.run_all();
    switches += s.fiber_switches();
  }
  state.SetItemsProcessed(state.iterations() * rounds);
  state.counters["switches_per_round"] =
      static_cast<double>(switches) /
      static_cast<double>(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProcessPingPong)->Arg(1000);

void BM_ThreadBatonPingPong(benchmark::State& state) {
  // The mechanism the fiber engine replaced: one kernel thread per process,
  // control handed over with a mutex/condvar baton (two kernel context
  // switches per handoff).  Kept as the in-bench baseline BM_ProcessPingPong
  // is measured against.
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::mutex m;
    std::condition_variable cv;
    int turn = 0;
    std::thread peer([&] {
      std::unique_lock<std::mutex> lk(m);
      for (int i = 0; i < rounds; ++i) {
        cv.wait(lk, [&] { return turn == 1; });
        turn = 0;
        cv.notify_one();
      }
    });
    {
      std::unique_lock<std::mutex> lk(m);
      for (int i = 0; i < rounds; ++i) {
        cv.wait(lk, [&] { return turn == 0; });
        turn = 1;
        cv.notify_one();
      }
    }
    peer.join();
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_ThreadBatonPingPong)->Arg(1000);

void BM_ServerReserve(benchmark::State& state) {
  sim::BandwidthServer srv("bench", 3.0);
  sim::Time now = 0;
  for (auto _ : state) {
    auto r = srv.reserve_bytes(now, now, 4096);
    now = r.start;  // keep `now` monotone without unbounded growth rate
    benchmark::DoNotOptimize(r.finish);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerReserve);

void BM_IbMessageRate(benchmark::State& state) {
  // Modelled (not wall-clock) messages through the full HCA pipeline.
  const std::int64_t msg = state.range(0);
  for (auto _ : state) {
    sim::Simulator s;
    ib::Fabric fab(s);
    ib::Hca& a = fab.add_hca(0);
    ib::Hca& b = fab.add_hca(1);
    ib::CompletionQueue ascq, arcq, bscq, brcq;
    ib::QueuePair& qa = a.create_qp(0, ascq, arcq);
    ib::QueuePair& qb = b.create_qp(0, bscq, brcq);
    ib::Fabric::connect(qa, qb);
    std::vector<std::byte> src(static_cast<std::size_t>(msg)), dst(static_cast<std::size_t>(msg));
    auto smr = a.mem().register_memory(src.data(), src.size());
    auto dmr = b.mem().register_memory(dst.data(), dst.size());
    for (int i = 0; i < 64; ++i) {
      qb.post_recv({.wr_id = 1, .dst = dst.data(), .length = static_cast<std::uint32_t>(msg),
                    .lkey = dmr.lkey});
      qa.post_send({.wr_id = 2, .opcode = ib::Opcode::Send, .src = src.data(),
                    .length = static_cast<std::uint32_t>(msg), .lkey = smr.lkey});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_IbMessageRate)->Arg(256)->Arg(65536);

void BM_MpiPingPongWallClock(benchmark::State& state) {
  for (auto _ : state) {
    mvx::World w(mvx::ClusterSpec{2, 1}, mvx::Config::enhanced(4, mvx::Policy::EPC));
    w.run([](mvx::Communicator& c) {
      std::byte b{};
      for (int i = 0; i < 50; ++i) {
        if (c.rank() == 0) {
          c.send(&b, 1, mvx::BYTE, 1, 0);
          c.recv(&b, 1, mvx::BYTE, 1, 0);
        } else {
          c.recv(&b, 1, mvx::BYTE, 0, 0);
          c.send(&b, 1, mvx::BYTE, 0, 0);
        }
      }
    });
    benchmark::DoNotOptimize(w.end_time());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MpiPingPongWallClock);

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  nas::Fft fft(n);
  std::vector<nas::Complex> data(n, nas::Complex(1.0, -0.5));
  for (auto _ : state) {
    fft.transform(data.data(), -1);
    benchmark::DoNotOptimize(data[0]);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(128)->Arg(4096);

}  // namespace

// BENCHMARK_MAIN plus a default --benchmark_out: the kernel numbers always
// land in BENCH_kernel.json (cwd) unless the caller redirects them.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_kernel.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
