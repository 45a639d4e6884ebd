// Ablation: rendezvous protocol diversity and the adaptive scheduler.
//
// Part 1 sweeps protocol x message size on the 4-rail pair (crossbar and
// routed fat-tree): WriteRtsCts pays four control steps, ReadRts three with
// the pull issued by the receiver, WriteImm three with the FIN folded into
// the data.  Part 2 races the adaptive epsilon-greedy policy against every
// static protocol on three workloads:
//
//   uniform — one size, one peer: the bandit should converge to (and not
//             meaningfully trail) the best static protocol;
//   skewed  — a bimodal small/large mix where no single static choice wins
//             both size classes, so per-(peer, size-class) adaptation pays;
//   faulty  — the same mix with a rail flap and a completion-error rate: the
//             live-mask and observed-throughput rewards steer arms around
//             the degraded rails.
//
// Reported: MB/s of virtual time per cell, plus the adaptive-vs-best-static
// ratio per workload (the EXPERIMENTS.md ablation table).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

namespace {

using Proto = mvx::Config::RndvConfig::Protocol;



mvx::Config rails_config(bool fat_tree) {
  mvx::Config cfg = mvx::Config::enhanced(2, mvx::Policy::EPC);
  cfg.hcas_per_node = 2;  // 2 HCAs x 1 port x 2 QPs = 4 rails per peer
  if (fat_tree) cfg.topo.shape = ib::TopoShape::FatTree;
  return cfg;
}

/// Streams `sizes` (cycled, `iters` messages total) rank 0 -> rank 1 through
/// a non-blocking window; returns MB/s (decimal) of virtual time.
double stream_mbs(mvx::Config cfg, const std::vector<std::size_t>& sizes, int iters,
                  int window = 8) {
  mvx::World w(mvx::ClusterSpec{2, 1}, cfg);
  const sim::Time t0 = w.simulator().now();
  double total_bytes = 0;
  for (std::size_t n : sizes) total_bytes += static_cast<double>(n);
  total_bytes *= static_cast<double>(iters) / static_cast<double>(sizes.size());
  w.run([&](mvx::Communicator& c) {
    std::size_t maxb = 0;
    for (std::size_t n : sizes) maxb = std::max(maxb, n);
    std::vector<std::vector<std::byte>> bufs(static_cast<std::size_t>(window),
                                             std::vector<std::byte>(maxb));
    std::vector<mvx::Request> reqs;
    for (int i = 0; i < iters; ++i) {
      const std::size_t n = sizes[static_cast<std::size_t>(i) % sizes.size()];
      std::byte* buf = bufs[reqs.size()].data();
      if (c.rank() == 0) {
        reqs.push_back(c.isend(buf, n, mvx::BYTE, 1, i));
      } else {
        reqs.push_back(c.irecv(buf, maxb, mvx::BYTE, 0, i));
      }
      if (static_cast<int>(reqs.size()) == window) {
        c.waitall(reqs);
        reqs.clear();
      }
    }
    c.waitall(reqs);
  });
  return total_bytes / sim::to_s(w.end_time() - t0) / 1e6;
}

mvx::Config with_proto(mvx::Config cfg, Proto p) {
  cfg.rndv.protocol = p;
  return cfg;
}

mvx::Config with_adaptive(mvx::Config cfg) {
  cfg.rndv.adaptive = true;
  cfg.rndv.epsilon = 0.02;
  cfg.rndv.seed = 0xab1a7e;
  return cfg;
}

/// The registration-pressure regime for the adaptive race: per-page pin
/// costs, a small pin-down cache (the streamed buffers never all fit, so
/// every rendezvous re-registers) and pipelined pacing.  This is where the
/// protocols genuinely trade places by size class: ReadRts wins small
/// messages on its shorter control path, while the pipelined write protocols
/// win large ones by overlapping chunk registration with the transfer —
/// ReadRts must pin the whole sender buffer before the RTS can leave.
mvx::Config with_pressure(mvx::Config cfg) {
  cfg.rndv_pipeline_chunk = 64 * 1024;
  cfg.reg_page_cpu = sim::nanoseconds(150);
  cfg.reg_cache_capacity = 128 * 1024;
  return cfg;
}

mvx::Config with_faults(mvx::Config cfg) {
  cfg.fault.enabled = true;
  cfg.fault.seed = 0xfa17ab;
  cfg.fault.msg_error_rate = 0.01;
  // One HCA of the sending node drops out for most of the run: half the
  // rails vanish, then return.
  mvx::Config::FaultConfig::LinkFlap f;
  f.node = 0;
  f.hca = 1;
  f.port = 0;
  f.down_at = sim::microseconds(150.0);
  f.up_at = sim::microseconds(2500.0);
  cfg.fault.link_flaps.push_back(f);
  return cfg;
}

struct Workload {
  const char* name;
  std::vector<std::size_t> sizes;
  int iters;
  bool faulty;
};

}  // namespace

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Ablation — rendezvous protocol diversity (4-rail pair)\n");

  const std::vector<std::pair<const char*, Proto>> kProtos = {
      {"WriteRtsCts", Proto::WriteRtsCts},
      {"ReadRts", Proto::ReadRts},
      {"WriteImm", Proto::WriteImm},
  };
  const std::vector<std::size_t> kSizes = {32 * 1024, 128 * 1024, 512 * 1024, 1024 * 1024};

  // ---- part 1: protocol x size ------------------------------------------
  for (const bool fat_tree : {false, true}) {
    harness::Table t(std::string("rendezvous protocol x size, MB/s — ") +
                         (fat_tree ? "fat-tree" : "crossbar"),
                     "bytes");
    for (const auto& [name, p] : kProtos) t.add_column(name);
    for (std::size_t n : kSizes) {
      std::vector<double> row;
      for (const auto& [name, p] : kProtos) {
        row.push_back(stream_mbs(with_proto(rails_config(fat_tree), p), {n}, 64));
      }
      t.add_row(std::to_string(n), row);
    }
    emit(t);
  }

  // ---- part 2: adaptive vs best static ----------------------------------
  std::vector<std::size_t> bimodal;
  for (int i = 0; i < 8; ++i) bimodal.push_back(24 * 1024);
  bimodal.push_back(768 * 1024);
  const std::vector<Workload> kWorkloads = {
      {"uniform-256K", {256 * 1024}, 384, false},
      {"skewed-bimodal", bimodal, 2700, false},
      {"faulty-bimodal", bimodal, 2700, true},
  };

  harness::Table t2("adaptive vs static, MB/s", "workload");
  for (const auto& [name, p] : kProtos) t2.add_column(name);
  t2.add_column("adaptive");
  t2.add_column("adaptive/best-static");

  double uniform_ratio = 0, skewed_ratio = 0, faulty_ratio = 0;
  for (const Workload& wl : kWorkloads) {
    std::vector<double> row;
    double best_static = 0;
    for (const auto& [name, p] : kProtos) {
      mvx::Config cfg = with_pressure(with_proto(rails_config(false), p));
      if (wl.faulty) cfg = with_faults(cfg);
      const double mbs = stream_mbs(cfg, wl.sizes, wl.iters, /*window=*/2);
      best_static = std::max(best_static, mbs);
      row.push_back(mbs);
    }
    mvx::Config cfg = with_pressure(with_adaptive(rails_config(false)));
    if (wl.faulty) cfg = with_faults(cfg);
    const double adaptive = stream_mbs(cfg, wl.sizes, wl.iters, /*window=*/2);
    const double ratio = adaptive / best_static;
    row.push_back(adaptive);
    row.push_back(ratio);
    t2.add_row(wl.name, row);
    if (std::string(wl.name) == "uniform-256K") uniform_ratio = ratio;
    if (std::string(wl.name) == "skewed-bimodal") skewed_ratio = ratio;
    if (std::string(wl.name) == "faulty-bimodal") faulty_ratio = ratio;
  }
  emit(t2);

  // Headline: online selection never meaningfully trails the best static
  // protocol on a uniform stream, and wins once the workload is skewed or
  // the rails degrade (no static protocol-and-width fits every size class).
  harness::print_check("uniform: adaptive / best-static throughput", uniform_ratio, 0.95, 1e9);
  harness::print_check("skewed: adaptive / best-static throughput", skewed_ratio, 1.0, 1e9);
  harness::print_check("faulty: adaptive / best-static throughput", faulty_ratio, 1.0, 1e9);
  return harness::checks_status();
}
