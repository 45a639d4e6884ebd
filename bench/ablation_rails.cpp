// Ablation: rail topology — multiple QPs vs multiple ports vs multiple HCAs
// (the combinations the paper defers to future work, §4.1/§6).
// Physical expectation: ports on the same HCA share one GX+ bus, so the
// second port adds nothing for uni-directional traffic; a second HCA brings
// its own bus and nearly doubles it.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Ablation — rail topology (EPC): QPs vs ports vs HCAs\n");
  struct Topo {
    const char* label;
    int hcas, ports, qps;
  };
  const Topo topos[] = {
      {"1H-1P-1Q (orig-ish)", 1, 1, 1},
      {"1H-1P-4Q (paper)", 1, 1, 4},
      {"1H-2P-2Q", 1, 2, 2},
      {"1H-2P-4Q", 1, 2, 4},
      {"2H-1P-2Q", 2, 1, 2},
      {"2H-2P-2Q", 2, 2, 2},
  };

  harness::Table t("rail topology sweep (EPC)", "topology");
  t.add_column("rails");
  t.add_column("uni-BW@1M MB/s");
  t.add_column("bi-BW@1M MB/s");
  t.add_column("lat@1M us");
  for (const Topo& topo : topos) {
    mvx::Config cfg = mvx::Config::enhanced(topo.qps, mvx::Policy::EPC);
    cfg.hcas_per_node = topo.hcas;
    cfg.ports_per_hca = topo.ports;
    harness::Runner r(mvx::ClusterSpec{2, 1}, cfg, bench_params());
    t.add_row(topo.label, {static_cast<double>(cfg.rails()), r.uni_bw_mbs(1 << 20),
                           r.bi_bw_mbs(1 << 20), r.latency_us(1 << 20)});
  }
  emit(t);

  harness::print_check("2 ports / 1 port uni-BW ratio (bus-bound, ~1)",
                       t.value(3, 1) / t.value(1, 1), 0.95, 1.1);
  harness::print_check("2 HCAs / 1 HCA uni-BW ratio (~2)", t.value(4, 1) / t.value(1, 1), 1.6,
                       2.1);
  return harness::checks_status();
}
