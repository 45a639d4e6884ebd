// Ablation: send/recv DMA engines per port.  The paper's whole premise is
// that the IBM 12x HCA exposes several engines per port; this sweep varies
// the (unpublished) engine count and shows the 4-QP EPC bandwidth tracking
// min(engines x engine-rate, link, bus).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Ablation — DMA engines per port (EPC, 4 QPs/port)\n");
  harness::Table t("engines/port sweep", "engines");
  t.add_column("uni-BW@1M MB/s");
  t.add_column("orig-BW@1M MB/s");
  for (int e : {1, 2, 3, 4, 6, 8}) {
    mvx::Config cfg = mvx::Config::enhanced(4, mvx::Policy::EPC);
    cfg.hca.send_engines_per_port = e;
    cfg.hca.recv_engines_per_port = e;
    harness::Runner r(mvx::ClusterSpec{2, 1}, cfg, bench_params());
    mvx::Config ocfg = mvx::Config::original();
    ocfg.hca.send_engines_per_port = e;
    ocfg.hca.recv_engines_per_port = e;
    harness::Runner ro(mvx::ClusterSpec{2, 1}, ocfg, bench_params());
    t.add_row(std::to_string(e), {r.uni_bw_mbs(1 << 20), ro.uni_bw_mbs(1 << 20)});
  }
  emit(t);

  harness::print_check("1-engine: 4QP EPC == orig (no parallelism to exploit)",
                       t.value(0, 0) / t.value(0, 1), 0.9, 1.1);
  return harness::checks_status();
}
