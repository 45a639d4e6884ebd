// Ablation: collective algorithm selection (MVAPICH-era tuning).  Shows the
// crossovers the Auto policy is built on: Bruck vs pairwise alltoall by
// block size, and recursive-doubling vs Rabenseifner allreduce by vector
// length — all on the 2x4 EPC configuration.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

namespace {

double a2a_us(mvx::coll::AlltoallAlgo algo, std::int64_t per_bytes) {
  mvx::Config cfg = mvx::Config::enhanced(4, mvx::Policy::EPC);
  cfg.coll.alltoall_algo = algo;
  harness::Runner r(mvx::ClusterSpec{2, 4}, cfg, bench_params());
  return r.alltoall_us(per_bytes);
}

double allreduce_us(mvx::coll::AllreduceAlgo algo, std::size_t doubles) {
  mvx::Config cfg = mvx::Config::enhanced(4, mvx::Policy::EPC);
  cfg.coll.allreduce_algo = algo;
  mvx::World w(mvx::ClusterSpec{2, 4}, cfg);
  double us = 0;
  w.run([&](mvx::Communicator& c) {
    std::vector<double> a(doubles, 1.0), b(doubles);
    c.allreduce(a.data(), b.data(), doubles, mvx::DOUBLE, mvx::Op::Sum);  // warm
    c.barrier();
    const sim::Time t0 = c.now();
    const int iters = 10;
    for (int i = 0; i < iters; ++i) c.allreduce(a.data(), b.data(), doubles, mvx::DOUBLE, mvx::Op::Sum);
    c.barrier();
    if (c.rank() == 0) us = sim::to_us(c.now() - t0) / iters;
  });
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Ablation — collective algorithm crossovers (2x4, EPC-4QP)\n");

  harness::Table a2a("Alltoall: pairwise vs Bruck (us/call)", "bytes/dest");
  a2a.add_column("pairwise");
  a2a.add_column("Bruck");
  a2a.add_column("auto");
  for (std::int64_t bytes : {64L, 512L, 4096L, 32768L, 262144L}) {
    a2a.add_row(harness::size_label(bytes),
                {a2a_us(mvx::coll::AlltoallAlgo::Pairwise, bytes),
                 a2a_us(mvx::coll::AlltoallAlgo::Bruck, bytes),
                 a2a_us(mvx::coll::AlltoallAlgo::Auto, bytes)});
  }
  emit(a2a);

  harness::Table ar("Allreduce: recursive doubling vs Rabenseifner (us/call)", "doubles");
  ar.add_column("recdbl");
  ar.add_column("rabenseifner");
  ar.add_column("auto");
  for (std::size_t n : {8ul, 256ul, 8192ul, 262144ul}) {
    ar.add_row(std::to_string(n),
               {allreduce_us(mvx::coll::AllreduceAlgo::RecursiveDoubling, n),
                allreduce_us(mvx::coll::AllreduceAlgo::Rabenseifner, n),
                allreduce_us(mvx::coll::AllreduceAlgo::Auto, n)});
  }
  emit(ar);

  harness::print_check("Bruck/pairwise @64B (Bruck wins, <1)", a2a.value(0, 1) / a2a.value(0, 0),
                       0.2, 1.0);
  harness::print_check("Bruck/pairwise @256K (pairwise wins, >1)",
                       a2a.value(4, 1) / a2a.value(4, 0), 1.0, 5.0);
  harness::print_check("rabenseifner/recdbl @256K doubles (<1)", ar.value(3, 1) / ar.value(3, 0),
                       0.2, 1.0);
  return harness::checks_status();
}
