// Ablation: QP-count scaling.  The paper argues multiple QPs per port are
// required to exploit the per-port DMA-engine pool; this sweep shows where
// the returns flatten (engine count, then 12x link, then GX+ bus).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Ablation — QPs/port scaling, EPC policy, 1 port\n");
  const int qp_counts[] = {1, 2, 3, 4, 6, 8};

  harness::Table t("bandwidth & latency vs QPs/port (EPC)", "QPs");
  t.add_column("uni-BW@1M MB/s");
  t.add_column("bi-BW@1M MB/s");
  t.add_column("lat@1M us");
  t.add_column("lat@8B us");
  for (int q : qp_counts) {
    harness::Runner r(mvx::ClusterSpec{2, 1}, mvx::Config::enhanced(q, mvx::Policy::EPC),
                      bench_params());
    t.add_row(std::to_string(q), {r.uni_bw_mbs(1 << 20), r.bi_bw_mbs(1 << 20),
                                  r.latency_us(1 << 20), r.latency_us(8)});
  }
  emit(t);

  harness::print_check("uni-BW 4QP / 1QP (paper-driving ratio)", t.value(3, 0) / t.value(0, 0),
                       1.4, 2.0);
  harness::print_check("uni-BW 8QP / 4QP (flat beyond engine count)",
                       t.value(5, 0) / t.value(3, 0), 0.9, 1.1);
  return harness::checks_status();
}
