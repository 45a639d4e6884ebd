// Ablation: pipelined zero-copy rendezvous (64 KiB registration chunks) vs
// the one-shot protocol (rndv_pipeline_chunk = 0: the whole message is one
// chunk), under a cold pin-down cache (every message in the window sends from
// a buffer the cache has never seen, so both sides pay full registration).
//
// The sweep reproduces fig. 6's uni-directional window semantics on 4 rails
// (2 HCAs × 2 ports) with the MVAPICH-era ~150 ns/page pin cost enabled in
// BOTH columns — the comparison isolates protocol structure (chunked CTS +
// registration overlapped with earlier chunks' writes), not the cost model.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

namespace {

mvx::Config rails4(std::int64_t chunk) {
  mvx::Config cfg = mvx::Config::enhanced(1, mvx::Policy::EPC);
  cfg.hcas_per_node = 2;
  cfg.ports_per_hca = 2;  // 2 HCAs × 2 ports × 1 QP = 4 rails, 2 GX+ buses
  cfg.reg_page_cpu = sim::nanoseconds(150);
  cfg.rndv_pipeline_chunk = chunk;
  return cfg;
}

/// Cold-cache windowed uni-BW in MB/s (decimal): `window` concurrent
/// messages, every one from/to a distinct never-registered buffer.
double cold_uni_bw_mbs(const mvx::Config& cfg, std::int64_t bytes, int window) {
  mvx::World w(mvx::ClusterSpec{2, 1}, cfg);
  sim::Time end = 0;
  w.run([&](mvx::Communicator& c) {
    std::vector<std::vector<std::byte>> bufs;
    bufs.reserve(static_cast<std::size_t>(window));
    for (int i = 0; i < window; ++i) {
      bufs.emplace_back(static_cast<std::size_t>(bytes));
    }
    std::vector<mvx::Request> reqs;
    reqs.reserve(static_cast<std::size_t>(window));
    if (c.rank() == 0) {
      for (int i = 0; i < window; ++i) {
        reqs.push_back(c.isend(bufs[static_cast<std::size_t>(i)].data(), bytes, mvx::BYTE, 1, i));
      }
    } else {
      for (int i = 0; i < window; ++i) {
        reqs.push_back(c.irecv(bufs[static_cast<std::size_t>(i)].data(), bytes, mvx::BYTE, 0, i));
      }
    }
    c.waitall(reqs);
    end = c.now();
  });
  return static_cast<double>(bytes) * window / static_cast<double>(end) * 1e6;  // MB/s
}

}  // namespace

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  // Window of 8: deep enough to be a bandwidth (not latency) measurement,
  // shallow enough that one message's serialized registration is not fully
  // hidden behind its neighbours' wire time — the regime §3.2 argues about.
  constexpr int window = 8;

  std::printf("Ablation — pipelined zero-copy rendezvous (cold pin-down cache, 4 rails)\n");

  harness::Table t("cold-cache uni-BW (EPC, 4 rails, 150ns/page pin cost, MB/s)", "size");
  t.add_column("one-shot MB/s");
  t.add_column("pipelined-64K MB/s");
  t.add_column("speedup");
  double speedup_1m = 0;
  for (std::int64_t bytes : {256L * 1024, 1024L * 1024, 4096L * 1024}) {
    const double base = cold_uni_bw_mbs(rails4(0), bytes, window);
    const double pipe = cold_uni_bw_mbs(rails4(64 * 1024), bytes, window);
    if (bytes == 1024L * 1024) speedup_1m = pipe / base;
    t.add_row(harness::size_label(bytes), {base, pipe, pipe / base});
  }
  emit(t);

  harness::Table s("chunk-size sweep @1MiB (pipelined, cold cache, MB/s)", "chunk");
  s.add_column("uni-BW MB/s");
  for (std::int64_t chunk : {16L * 1024, 32L * 1024, 64L * 1024, 128L * 1024, 256L * 1024}) {
    s.add_row(harness::size_label(chunk),
              {cold_uni_bw_mbs(rails4(chunk), 1 << 20, window)});
  }
  emit(s);

  std::printf("\npipelined/one-shot @1MiB: %.3fx %s\n", speedup_1m,
              speedup_1m >= 1.15 ? "(>= 1.15x target met)" : "(BELOW 1.15x target)");
  return speedup_1m >= 1.15 ? 0 : 1;
}
