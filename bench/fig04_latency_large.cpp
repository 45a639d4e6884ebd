// Figure 4: MPI latency for large messages (16 KiB – 1 MiB), ping-pong,
// comparing scheduling policies and QP counts.
// Paper claims: with 4 QPs/port, EPC and even striping perform comparably
// and ~33% better than the original; binding and round robin cannot split a
// single blocking message and gain nothing.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Fig 4 — large-message ping-pong latency (us), 2 nodes x 1 process\n");
  const std::vector<Column> cols = {
      original(),
      epc(2),
      epc(4),
      policy_col(4, mvx::Policy::Binding),
      policy_col(4, mvx::Policy::EvenStriping),
      policy_col(4, mvx::Policy::RoundRobin),
  };
  const auto sizes = harness::pow2_sizes(16 * 1024, 1 << 20);

  harness::Table t("MPI latency, large messages (us)", "bytes");
  std::vector<std::unique_ptr<harness::Runner>> runners;
  for (const Column& c : cols) {
    t.add_column(c.label);
    runners.push_back(std::make_unique<harness::Runner>(mvx::ClusterSpec{2, 1}, c.cfg,
                                                        bench_params()));
  }
  for (auto bytes : sizes) {
    std::vector<double> row;
    for (auto& r : runners) row.push_back(r->latency_us(bytes));
    t.add_row(harness::size_label(bytes), row);
  }
  emit(t);

  const std::size_t last = t.row_count() - 1;  // 1 MiB row
  const double orig = t.value(last, 0), epc4 = t.value(last, 2);
  const double stripe = t.value(last, 4), rr = t.value(last, 5);
  harness::print_check("EPC-4QP improvement over orig @1M, % (~33)", (1 - epc4 / orig) * 100, 25,
                       45);
  harness::print_check("EPC-4QP / striping-4QP ratio @1M (~1.0)", epc4 / stripe, 0.95, 1.05);
  harness::print_check("round-robin / orig ratio @1M (~1.0)", rr / orig, 0.90, 1.10);
  return harness::checks_status();
}
