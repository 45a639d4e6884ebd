// NAS CG check: the paper's §4.4 closing claim — "we have not seen
// performance degradation using other NAS Parallel Benchmarks".  CG's
// traffic profile (tiny allreduce dot-products, ~100 KB allgathers) gains
// little from multi-rail scheduling, and EPC must never make it slower.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "nas/cg.hpp"

using namespace ib12x;
using namespace ib12x::bench;

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("NAS CG (class A) — no-degradation check, orig vs 4QP EPC\n");
  harness::Table t("CG class A execution time (ms)", "procs");
  t.add_column("orig-1QP");
  t.add_column("EPC-4QP");
  t.add_column("delta %");

  double worst = 0;
  for (const mvx::ClusterSpec spec : {mvx::ClusterSpec{2, 1}, mvx::ClusterSpec{2, 2},
                                      mvx::ClusterSpec{2, 4}}) {
    double secs[2];
    const mvx::Config cfgs[2] = {mvx::Config::original(),
                                 mvx::Config::enhanced(4, mvx::Policy::EPC)};
    for (int i = 0; i < 2; ++i) {
      mvx::World w(spec, cfgs[i]);
      double s = 0;
      w.run([&](mvx::Communicator& c) {
        nas::CgResult r = nas::run_cg(c, nas::NasClass::A);
        if (!r.verified) throw std::runtime_error("CG verification failed");
        if (c.rank() == 0) s = r.seconds;
      });
      secs[i] = s;
    }
    const double delta = (secs[1] / secs[0] - 1.0) * 100.0;
    worst = std::max(worst, delta);
    t.add_row(std::to_string(spec.total_ranks()), {secs[0] * 1e3, secs[1] * 1e3, delta});
  }
  emit(t);
  harness::print_check("worst-case EPC slowdown % (paper: none observed)", worst, -100, 1.0);
  return harness::checks_status();
}
