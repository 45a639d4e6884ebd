// Figure 7: large-message bi-directional bandwidth (16 KiB – 1 MiB),
// exchange pattern.
// Paper claims: original ~3.1 GB/s total; EPC reaches ~5362 MB/s (abstract;
// the GX+ bus caps the sum well below 2 x the uni-directional peak).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Fig 7 — large-message bi-directional bandwidth (MB/s, both directions)\n");
  const std::vector<Column> cols = {
      original(),
      policy_col(4, mvx::Policy::EvenStriping),
      epc(4),
  };
  const auto sizes = harness::pow2_sizes(16 * 1024, 1 << 20);

  harness::Table t("bi-directional bandwidth, large messages (MB/s)", "bytes");
  std::vector<std::unique_ptr<harness::Runner>> runners;
  for (const Column& c : cols) {
    t.add_column(c.label);
    runners.push_back(std::make_unique<harness::Runner>(mvx::ClusterSpec{2, 1}, c.cfg,
                                                        bench_params()));
  }
  for (auto bytes : sizes) {
    std::vector<double> row;
    for (auto& r : runners) row.push_back(r->bi_bw_mbs(bytes));
    t.add_row(harness::size_label(bytes), row);
  }
  emit(t);

  const std::size_t last = t.row_count() - 1;
  harness::print_check("orig bi-BW peak MB/s @1M (paper ~3079)", t.value(last, 0), 2800, 3500);
  harness::print_check("EPC-4QP bi-BW peak MB/s @1M (paper 5362)", t.value(last, 2), 4900, 5800);
  harness::print_check("EPC gain over orig @1M, % (paper ~63)",
                       (t.value(last, 2) / t.value(last, 0) - 1) * 100, 45, 85);
  return harness::checks_status();
}
