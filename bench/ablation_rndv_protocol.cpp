// Ablation: rendezvous protocol diversity.
//
// Sweeps protocol x message size on the 4-rail pair (crossbar and routed
// fat-tree): WriteRtsCts pays four control steps, ReadRts three with the pull
// issued by the receiver, WriteImm three with the FIN folded into the data.
//
// Reported: MB/s of virtual time per cell (the EXPERIMENTS.md ablation
// table).
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

/// Streams `iters` messages of `bytes` rank 0 -> rank 1 through a
/// non-blocking window of 8; returns MB/s (decimal) of virtual time.
double stream_mbs(const mvx::Config& cfg, std::size_t bytes, int iters) {
  constexpr int kWindow = 8;
  mvx::World w(mvx::ClusterSpec{2, 1}, cfg);
  const sim::Time t0 = w.simulator().now();
  w.run([&](mvx::Communicator& c) {
    std::vector<std::vector<std::byte>> bufs(kWindow, std::vector<std::byte>(bytes));
    std::vector<mvx::Request> reqs;
    for (int i = 0; i < iters; ++i) {
      std::byte* buf = bufs[reqs.size()].data();
      if (c.rank() == 0) {
        reqs.push_back(c.isend(buf, bytes, mvx::BYTE, 1, i));
      } else {
        reqs.push_back(c.irecv(buf, bytes, mvx::BYTE, 0, i));
      }
      if (static_cast<int>(reqs.size()) == kWindow) {
        c.waitall(reqs);
        reqs.clear();
      }
    }
    c.waitall(reqs);
  });
  const double total_bytes = static_cast<double>(bytes) * iters;
  return total_bytes / sim::to_s(w.end_time() - t0) / 1e6;
}

mvx::Config with_proto(mvx::Config cfg, Proto p) {
  cfg.rndv.protocol = p;
  return cfg;
}

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

  for (const bool fat_tree : {false, true}) {
    harness::Table t(std::string("rendezvous protocol x size, MB/s — ") +
                         (fat_tree ? "fat-tree" : "crossbar"),
                     "bytes");
    for (const auto& [name, p] : kProtos) t.add_column(name);
    for (std::size_t n : kSizes) {
      std::vector<double> row;
      for (const auto& [name, p] : kProtos) {
        row.push_back(stream_mbs(with_proto(rails_config(fat_tree), p), n, 64));
      }
      t.add_row(std::to_string(n), row);
    }
    emit(t);
  }
  return 0;
}
