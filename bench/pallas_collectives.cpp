// Pallas/IMB-style collective suite beyond Alltoall (the paper reports "a
// significant improvement in collective communication using the Pallas
// benchmark suite" and plots Alltoall; this bench covers the rest of the
// suite's core: Bcast, Allreduce, Allgather, Barrier, Reduce_scatter) plus
// the schedule-engine additions: non-blocking variants, the compute-overlap
// efficiency of iallreduce/ibcast, and the multi-lane bcast decomposition.
// `--smoke` shrinks the sweeps for CI; `--json BENCH_coll_overlap.json`
// appends every table as JSON-lines.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

namespace {

using CollFn = std::function<void(mvx::Communicator&, std::vector<std::byte>&,
                                  std::vector<std::byte>&, std::size_t)>;

double coll_us(mvx::World& w, const CollFn& fn, std::size_t bytes, int iters, int skip) {
  double result = 0;
  w.run([&](mvx::Communicator& c) {
    std::vector<std::byte> a(bytes * static_cast<std::size_t>(c.size()) + 16);
    std::vector<std::byte> b(bytes * static_cast<std::size_t>(c.size()) + 16);
    sim::Time t0 = 0;
    for (int i = 0; i < iters; ++i) {
      if (i == skip) {
        c.barrier();
        t0 = c.now();
      }
      fn(c, a, b, bytes);
    }
    c.barrier();
    if (c.rank() == 0) result = sim::to_us(c.now() - t0) / (iters - skip);
  });
  return result;
}

struct Overlap {
  double coll_us = 0;    ///< standalone time per call
  double total_us = 0;   ///< i-collective + compute(2x coll) + wait
  double hidden_pct = 0; ///< fraction of coll time hidden behind compute
};

/// Measures how much of a non-blocking collective hides behind compute():
/// standalone time first, then start + compute(2x standalone) + wait.
Overlap overlap_us(mvx::World& w, bool bcast, std::size_t bytes, int iters, int skip) {
  Overlap o;
  w.run([&](mvx::Communicator& c) {
    const std::size_t n = bytes / 8;
    std::vector<double> a(n, 1.0 + c.rank()), b(n);
    auto run_coll = [&] {
      if (bcast) {
        c.bcast(a.data(), n, mvx::DOUBLE, 0);
      } else {
        c.allreduce(a.data(), b.data(), n, mvx::DOUBLE, mvx::Op::Sum);
      }
    };
    auto start_coll = [&] {
      return bcast ? c.ibcast(a.data(), n, mvx::DOUBLE, 0)
                   : c.iallreduce(a.data(), b.data(), n, mvx::DOUBLE, mvx::Op::Sum);
    };

    sim::Time t0 = 0;
    for (int i = 0; i < iters; ++i) {
      if (i == skip) {
        c.barrier();
        t0 = c.now();
      }
      run_coll();
    }
    c.barrier();
    const double coll = sim::to_us(c.now() - t0) / (iters - skip);

    // All ranks agree on the compute grain (rank 0's standalone time).
    std::int64_t grain_ns = static_cast<std::int64_t>(2 * coll * 1e3);
    c.bcast(&grain_ns, 1, mvx::INT64, 0);
    const sim::Time t_compute = sim::nanoseconds(static_cast<double>(grain_ns));

    for (int i = 0; i < iters; ++i) {
      if (i == skip) {
        c.barrier();
        t0 = c.now();
      }
      mvx::Request r = start_coll();
      c.compute(t_compute);
      c.wait(r);
    }
    c.barrier();
    if (c.rank() == 0) {
      o.coll_us = coll;
      o.total_us = sim::to_us(c.now() - t0) / (iters - skip);
      const double t_comp_us = sim::to_us(t_compute);
      o.hidden_pct = coll > 0 ? 100.0 * (coll + t_comp_us - o.total_us) / coll : 0;
    }
  });
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int iters = smoke ? 5 : 10;
  const int skip = smoke ? 1 : 2;
  const std::vector<std::int64_t> sweep =
      smoke ? std::vector<std::int64_t>{64 * 1024, 1 << 20}
            : harness::pow2_sizes(16 * 1024, 1 << 20);
  std::printf("Pallas-style collectives, 2 nodes x 2 processes, orig vs 4QP EPC%s\n",
              smoke ? " (smoke)" : "");
  const std::vector<std::pair<const char*, CollFn>> suite = {
      {"Bcast",
       [](mvx::Communicator& c, std::vector<std::byte>& a, std::vector<std::byte>&, std::size_t n) {
         c.bcast(a.data(), n, mvx::BYTE, 0);
       }},
      {"Allreduce",
       [](mvx::Communicator& c, std::vector<std::byte>& a, std::vector<std::byte>& b, std::size_t n) {
         c.allreduce(a.data(), b.data(), n / 8, mvx::DOUBLE, mvx::Op::Sum);
       }},
      {"Allgather",
       [](mvx::Communicator& c, std::vector<std::byte>& a, std::vector<std::byte>& b, std::size_t n) {
         c.allgather(a.data(), b.data(), n, mvx::BYTE);
       }},
      {"Reduce_scatter",
       [](mvx::Communicator& c, std::vector<std::byte>& a, std::vector<std::byte>& b, std::size_t n) {
         c.reduce_scatter_block(a.data(), b.data(), n / 8, mvx::DOUBLE, mvx::Op::Sum);
       }},
  };

  for (const auto& [name, fn] : suite) {
    harness::Table t(std::string(name) + " time per call (us), 2x2", "bytes");
    t.add_column("orig-1QP");
    t.add_column("EPC-4QP");
    t.add_column("orig/EPC");
    mvx::World orig(mvx::ClusterSpec{2, 2}, mvx::Config::original());
    mvx::World epc(mvx::ClusterSpec{2, 2}, mvx::Config::enhanced(4, mvx::Policy::EPC));
    for (std::int64_t bytes : sweep) {
      const double o = coll_us(orig, fn, static_cast<std::size_t>(bytes), iters, skip);
      const double e = coll_us(epc, fn, static_cast<std::size_t>(bytes), iters, skip);
      t.add_row(harness::size_label(bytes), {o, e, o / e});
    }
    emit(t);
  }

  // Non-blocking variants, started and immediately waited: the schedule
  // engine must not tax the blocking path.
  {
    harness::Table t("Non-blocking vs blocking (EPC-4QP, us/call), 2x2", "bytes");
    t.add_column("bcast");
    t.add_column("ibcast+wait");
    t.add_column("allreduce");
    t.add_column("iallreduce+wait");
    mvx::World epc(mvx::ClusterSpec{2, 2}, mvx::Config::enhanced(4, mvx::Policy::EPC));
    const CollFn bcast_b = [](mvx::Communicator& c, std::vector<std::byte>& a,
                              std::vector<std::byte>&, std::size_t n) {
      c.bcast(a.data(), n, mvx::BYTE, 0);
    };
    const CollFn bcast_i = [](mvx::Communicator& c, std::vector<std::byte>& a,
                              std::vector<std::byte>&, std::size_t n) {
      mvx::Request r = c.ibcast(a.data(), n, mvx::BYTE, 0);
      c.wait(r);
    };
    const CollFn ar_b = [](mvx::Communicator& c, std::vector<std::byte>& a,
                           std::vector<std::byte>& b, std::size_t n) {
      c.allreduce(a.data(), b.data(), n / 8, mvx::DOUBLE, mvx::Op::Sum);
    };
    const CollFn ar_i = [](mvx::Communicator& c, std::vector<std::byte>& a,
                           std::vector<std::byte>& b, std::size_t n) {
      mvx::Request r = c.iallreduce(a.data(), b.data(), n / 8, mvx::DOUBLE, mvx::Op::Sum);
      c.wait(r);
    };
    for (std::int64_t bytes : sweep) {
      t.add_row(harness::size_label(bytes),
                {coll_us(epc, bcast_b, static_cast<std::size_t>(bytes), iters, skip),
                 coll_us(epc, bcast_i, static_cast<std::size_t>(bytes), iters, skip),
                 coll_us(epc, ar_b, static_cast<std::size_t>(bytes), iters, skip),
                 coll_us(epc, ar_i, static_cast<std::size_t>(bytes), iters, skip)});
    }
    emit(t);
  }

  // Compute-overlap efficiency: how much of an in-flight collective hides
  // behind compute() of twice its standalone time (100% = fully hidden).
  double iallreduce_hidden_1m = 0;
  {
    harness::Table t("Compute-overlap efficiency (EPC-4QP), 2x2", "bytes");
    t.add_column("iallreduce_us");
    t.add_column("overlapped_total_us");
    t.add_column("iallreduce_hidden_%");
    t.add_column("ibcast_hidden_%");
    mvx::World epc(mvx::ClusterSpec{2, 2}, mvx::Config::enhanced(4, mvx::Policy::EPC));
    for (std::int64_t bytes : sweep) {
      const Overlap ar = overlap_us(epc, /*bcast=*/false, static_cast<std::size_t>(bytes), iters,
                                    skip);
      const Overlap bc = overlap_us(epc, /*bcast=*/true, static_cast<std::size_t>(bytes), iters,
                                    skip);
      t.add_row(harness::size_label(bytes), {ar.coll_us, ar.total_us, ar.hidden_pct,
                                             bc.hidden_pct});
      if (bytes == 1 << 20) iallreduce_hidden_1m = ar.hidden_pct;
    }
    emit(t);
  }

  // Multi-lane bcast (Traeff-style lane decomposition, one lane per rail)
  // against the single-lane binomial whose rendezvous writes stripe instead.
  {
    harness::Table t("Bcast multi-lane vs single-lane (EPC-4QP, us/call), 2x2", "bytes");
    t.add_column("single-lane");
    t.add_column("multi-lane");
    t.add_column("single/multi");
    mvx::Config single_cfg = mvx::Config::enhanced(4, mvx::Policy::EPC);
    mvx::Config multi_cfg = single_cfg;
    multi_cfg.coll.lanes = 0;  // one lane per rail
    mvx::World single(mvx::ClusterSpec{2, 2}, single_cfg);
    mvx::World multi(mvx::ClusterSpec{2, 2}, multi_cfg);
    const CollFn bcast_fn = [](mvx::Communicator& c, std::vector<std::byte>& a,
                               std::vector<std::byte>&, std::size_t n) {
      c.bcast(a.data(), n, mvx::BYTE, 0);
    };
    const std::vector<std::int64_t> lane_sweep =
        smoke ? std::vector<std::int64_t>{1 << 20}
              : harness::pow2_sizes(256 * 1024, 4 << 20);
    for (std::int64_t bytes : lane_sweep) {
      const double s = coll_us(single, bcast_fn, static_cast<std::size_t>(bytes), iters, skip);
      const double m = coll_us(multi, bcast_fn, static_cast<std::size_t>(bytes), iters, skip);
      t.add_row(harness::size_label(bytes), {s, m, s / m});
    }
    emit(t);

    harness::print_check("multi-lane bcast speedup @1M (>1)",
                         t.value(t.row_count() - (smoke ? 1 : 3), 2), 1.0, 3.0);
  }
  harness::print_check("iallreduce overlap hidden @1M (>=50%)", iallreduce_hidden_1m, 50.0,
                       100.0);

  // Barrier is latency-only: multi-rail must not hurt it.
  {
    mvx::World orig(mvx::ClusterSpec{2, 2}, mvx::Config::original());
    mvx::World epc(mvx::ClusterSpec{2, 2}, mvx::Config::enhanced(4, mvx::Policy::EPC));
    CollFn barrier_fn = [](mvx::Communicator& c, std::vector<std::byte>&, std::vector<std::byte>&,
                           std::size_t) { c.barrier(); };
    const double o = coll_us(orig, barrier_fn, 1, 40, 8);
    const double e = coll_us(epc, barrier_fn, 1, 40, 8);
    std::printf("\nBarrier: orig %.2f us, EPC-4QP %.2f us\n", o, e);
    harness::print_check("barrier EPC/orig ratio (~1, no penalty)", e / o, 0.9, 1.1);
  }
  return harness::checks_status();
}
