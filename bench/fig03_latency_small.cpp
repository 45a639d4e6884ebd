// Figure 3: MPI latency for small messages (1 B – 8 KiB), ping-pong.
// Paper claim: the enhanced design (EPC, multiple QPs/port) adds negligible
// overhead over the original single-QP MVAPICH for small messages, because
// below the striping threshold only one QP carries each blocking message.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Fig 3 — small-message ping-pong latency (us), 2 nodes x 1 process\n");
  const std::vector<Column> cols = {original(), epc(1), epc(2), epc(4)};
  const auto sizes = harness::pow2_sizes(1, 8 * 1024);

  harness::Table t("MPI latency, small messages (us)", "bytes");
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

  // Paper-shape check: EPC-4QP within 5% of original at 8 bytes.
  const double orig8 = t.value(3, 0), epc8 = t.value(3, 3);
  harness::print_check("EPC-4QP / orig latency ratio @8B (~1.0)", epc8 / orig8, 0.95, 1.05);
  return harness::checks_status();
}
