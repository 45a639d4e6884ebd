// Figure 5: impact of scheduling policies on small-message uni-directional
// bandwidth (window test, 1 B – 8 KiB).
// Paper claims: below ~1 KiB, startup time limits any gain from extra QPs;
// from 1–8 KiB the 4-QP configurations (EPC == round robin for non-blocking
// traffic) pull ahead of the original.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Fig 5 — small-message uni-directional bandwidth (MB/s), window 64\n");
  const std::vector<Column> cols = {
      original(),
      epc(2),
      epc(4),
      policy_col(4, mvx::Policy::RoundRobin),
  };
  const auto sizes = harness::pow2_sizes(1, 8 * 1024);

  harness::Table t("uni-directional bandwidth, small messages (MB/s)", "bytes");
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

  const std::size_t r8k = t.row_count() - 1;
  harness::print_check("EPC-4QP / orig BW ratio @8K (>1.25)", t.value(r8k, 2) / t.value(r8k, 0),
                       1.25, 4.0);
  harness::print_check("EPC-4QP / orig BW ratio @128B (~1, startup-bound)",
                       t.value(7, 2) / t.value(7, 0), 0.85, 1.35);
  harness::print_check("EPC-4QP == RR-4QP @4K (ratio ~1)", t.value(r8k - 1, 2) / t.value(r8k - 1, 3),
                       0.95, 1.05);
  return harness::checks_status();
}
