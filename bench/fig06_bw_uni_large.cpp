// Figure 6: large-message uni-directional bandwidth (16 KiB – 1 MiB).
// Paper claims: original peaks ~1661 MB/s; EPC and even striping both reach
// ~2745 MB/s at 1 MiB, but striping is clearly worse than EPC in the
// 16–64 KiB range (per-stripe descriptor posting, per-stripe ACK/CQE
// processing, chunks too small to pipeline) before the curves converge.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Fig 6 — large-message uni-directional bandwidth (MB/s), window 64\n");
  const std::vector<Column> cols = {
      original(),
      policy_col(4, mvx::Policy::EvenStriping),
      epc(4),
  };
  const auto sizes = harness::pow2_sizes(16 * 1024, 1 << 20);

  harness::Table t("uni-directional bandwidth, large messages (MB/s)", "bytes");
  std::vector<std::unique_ptr<harness::Runner>> runners;
  for (const Column& c : cols) {
    t.add_column(c.label);
    runners.push_back(std::make_unique<harness::Runner>(mvx::ClusterSpec{2, 1}, c.cfg,
                                                        bench_params()));
  }
  for (auto bytes : sizes) {
    std::vector<double> row;
    for (auto& r : runners) row.push_back(r->uni_bw_mbs(bytes));
    t.add_row(harness::size_label(bytes), row);
  }
  emit(t);

  const std::size_t last = t.row_count() - 1;
  harness::print_check("orig peak MB/s @1M (paper 1661)", t.value(last, 0), 1450, 1850);
  harness::print_check("EPC-4QP peak MB/s @1M (paper 2745)", t.value(last, 2), 2500, 3000);
  harness::print_check("EPC gain over orig @1M, % (paper ~65)",
                       (t.value(last, 2) / t.value(last, 0) - 1) * 100, 45, 85);
  harness::print_check("EPC / striping @16K (striping worse, >1.08)",
                       t.value(0, 2) / t.value(0, 1), 1.08, 3.0);
  harness::print_check("EPC / striping @1M (converged, ~1)", t.value(last, 2) / t.value(last, 1),
                       0.93, 1.07);
  return harness::checks_status();
}
