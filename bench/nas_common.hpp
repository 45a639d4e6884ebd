// Shared driver for the NAS figure benches (fig. 9–12): runs a kernel on
// 2 (2x1), 4 (2x2) and 8 (2x4) processes with the original configuration and
// with 4 QPs/port + EPC, and prints execution-time pairs plus the percentage
// improvement — the quantity the paper's bar charts show.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/table.hpp"
#include "mvx/mpi.hpp"
#include "nas/params.hpp"

namespace ib12x::bench {

using KernelFn = std::function<double(mvx::Communicator&, nas::NasClass)>;

/// Runs `kernel` (returning rank-0 execution seconds) for both configs over
/// the paper's process counts and prints the comparison table.
inline void run_nas_figure(const char* name, nas::NasClass cls, const KernelFn& kernel,
                           double paper_gain_lo, double paper_gain_hi) {
  std::printf("%s — NAS class %s, 1 HCA / 1 port, orig vs 4QP EPC\n", name, nas::to_string(cls));
  harness::Table t(std::string(name) + " execution time (s)", "procs");
  t.add_column("orig-1QP");
  t.add_column("EPC-4QP");
  t.add_column("gain %");

  const mvx::ClusterSpec layouts[] = {{2, 1}, {2, 2}, {2, 4}};
  double gain2 = 0;
  for (const auto& spec : layouts) {
    double secs[2] = {0, 0};
    const mvx::Config cfgs[2] = {mvx::Config::original(),
                                 mvx::Config::enhanced(4, mvx::Policy::EPC)};
    for (int i = 0; i < 2; ++i) {
      mvx::World w(spec, cfgs[i]);
      double s = 0;
      w.run([&](mvx::Communicator& c) {
        double r = kernel(c, cls);
        if (c.rank() == 0) s = r;
      });
      secs[i] = s;
    }
    const double gain = (1.0 - secs[1] / secs[0]) * 100.0;
    if (spec.total_ranks() == 2) gain2 = gain;
    t.add_row(std::to_string(spec.total_ranks()), {secs[0], secs[1], gain});
  }
  emit(t);
  harness::print_check("EPC gain at 2 processes, % (paper band)", gain2, paper_gain_lo,
                       paper_gain_hi);
}

}  // namespace ib12x::bench
