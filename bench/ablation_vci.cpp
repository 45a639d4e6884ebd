// Ablation: virtual communication interfaces — the Zambre-style message-rate
// scaling argument on the mvx substrate.  A pair of ranks exchanges small
// messages from `threads` modeled app threads per rank; each thread streams
// its own tag range through a non-blocking window.  The grid sweeps
// threads x VCIs on the default crossbar and on a routed fat-tree:
//
//   dedicated — vci.mapping = RoundRobin, so with vcis >= threads every
//               thread owns a VCI (its own QP slice, CQ share, sequence
//               space, and progress server) and message rate scales;
//   shared    — vci.mapping = Shared: every thread funnels through VCI 0,
//               serializing on its lock and progress server — the flatline.
//
// Reported per cell: aggregate message rate (Kmsg/s of virtual time).  The
// headline checks pin the paper-shaped result: 4 threads on 4 dedicated
// VCIs deliver >= 2x the rate of 4 threads on one shared VCI, and the
// shared-mapping curve stays flat from 1 to 8 threads.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

namespace {

constexpr int kMsgsPerThread = 384;
constexpr std::size_t kBytes = 8;
constexpr int kWindow = 32;

mvx::Config vci_config(int threads, int vcis, mvx::Config::VciConfig::Mapping mapping,
                       bool fat_tree) {
  mvx::Config cfg = mvx::Config::enhanced(1, mvx::Policy::Binding);
  cfg.vci.threads = threads;
  cfg.vci.count = vcis;
  cfg.vci.mapping = mapping;
  if (fat_tree) cfg.topo.shape = ib::TopoShape::FatTree;
  return cfg;
}

/// Aggregate message rate in Kmsg/s of virtual time: rank 0's threads stream
/// to rank 1's, each thread on its own tag range, 32-deep windows.
double message_rate(int threads, int vcis, mvx::Config::VciConfig::Mapping mapping,
                    bool fat_tree) {
  mvx::World w(mvx::ClusterSpec{2, 1}, vci_config(threads, vcis, mapping, fat_tree));
  const sim::Time t0 = w.simulator().now();
  w.run([](mvx::Communicator& c) {
    const int t = c.thread_id();
    std::vector<std::byte> buf(kBytes, std::byte{0x5A});
    std::vector<mvx::Request> reqs;
    for (int i = 0; i < kMsgsPerThread; ++i) {
      const int tag = t * 10000 + i;
      if (c.rank() == 0) {
        reqs.push_back(c.isend(buf.data(), kBytes, mvx::BYTE, 1, tag));
      } else {
        reqs.push_back(c.irecv(buf.data(), kBytes, mvx::BYTE, 0, tag));
      }
      if (static_cast<int>(reqs.size()) == kWindow) {
        c.waitall(reqs);
        reqs.clear();
      }
    }
    c.waitall(reqs);
  });
  const double secs = sim::to_s(w.end_time() - t0);
  const double msgs = static_cast<double>(threads) * kMsgsPerThread;
  return msgs / secs / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Ablation — virtual communication interfaces (threads x VCIs)\n");
  std::printf("  pair of ranks, %d x %zu B msgs per thread, %d-deep windows; Kmsg/s of "
              "virtual time\n",
              kMsgsPerThread, kBytes, kWindow);

  const std::vector<int> kSweep = {1, 2, 4, 8};
  using Mapping = mvx::Config::VciConfig::Mapping;

  double dedicated4 = 0, shared4 = 0;
  for (const bool fat_tree : {false, true}) {
    harness::Table t(std::string("vci grid (RoundRobin) — ") +
                         (fat_tree ? "fat-tree" : "crossbar"),
                     "threads");
    for (int vcis : kSweep) t.add_column(std::to_string(vcis) + " VCI");
    for (int threads : kSweep) {
      std::vector<double> row;
      for (int vcis : kSweep) {
        const double rate = message_rate(threads, vcis, Mapping::RoundRobin, fat_tree);
        row.push_back(rate);
        if (!fat_tree && threads == 4) {
          if (vcis == 1) shared4 = rate;
          if (vcis == 4) dedicated4 = rate;
        }
      }
      t.add_row(std::to_string(threads), row);
    }
    emit(t);
  }

  // The shared-mapping flatline: 4 VCIs exist, but every thread is pinned to
  // VCI 0 — adding threads buys (almost) nothing.
  harness::Table flat("vci shared-mapping flatline (4 VCIs, crossbar)", "threads");
  flat.add_column("shared Kmsg/s");
  flat.add_column("dedicated Kmsg/s");
  double flat1 = 0, flat8 = 0;
  for (int threads : kSweep) {
    const double shared = message_rate(threads, 4, Mapping::Shared, false);
    const double dedicated = message_rate(threads, 4, Mapping::RoundRobin, false);
    if (threads == 1) flat1 = shared;
    if (threads == 8) flat8 = shared;
    flat.add_row(std::to_string(threads), {shared, dedicated});
  }
  emit(flat);

  // Headline: threads x dedicated VCIs scale message rate; threads on one
  // shared VCI flatline (Zambre et al., reproduced on the simulated stack).
  harness::print_check("4 threads: 4 dedicated VCIs / 1 shared VCI message rate",
                       dedicated4 / shared4, 2.0, 1e9);
  harness::print_check("shared mapping: 8-thread / 1-thread message rate (flatline)",
                       flat8 / flat1, 0.0, 1.5);
  return harness::checks_status();
}
