// Layer probes: the verbs-level replay of pt2pt_paper's size mix (ibvBench
// style: the same traffic at the ib layer, so MPI minus verbs is the mvx
// layer's cost), a standalone FFT rate, and the paper's headline points.
#include <algorithm>
#include <complex>

#include "bench.hpp"
#include "harness/runner.hpp"
#include "ib/verbs.hpp"
#include "nas/fft.hpp"
#include "nas/params.hpp"

namespace perfbench {

namespace ib = ib12x::ib;

VerbsProbe run_verbs_probe(const std::vector<PtOp>& plan) {
  constexpr std::int64_t kRdmaFrom = 16 * 1024;  // mvx's default rendezvous threshold
  std::int64_t max_bytes = 1;
  for (const PtOp& op : plan) max_bytes = std::max(max_bytes, op.bytes);
  const auto len = static_cast<std::size_t>(max_bytes);

  sim::Simulator sim;
  ib::Fabric fabric(sim);
  ib::Hca* hca[2] = {&fabric.add_hca(0), &fabric.add_hca(1)};
  ib::CompletionQueue scq[2], rcq[2];
  ib::QueuePair* qp[2] = {&hca[0]->create_qp(0, scq[0], rcq[0]),
                          &hca[1]->create_qp(0, scq[1], rcq[1])};
  ib::Fabric::connect(*qp[0], *qp[1]);
  std::vector<std::byte> src[2] = {make_stream(1, len), make_stream(2, len)};
  std::vector<std::byte> dst[2] = {std::vector<std::byte>(len), std::vector<std::byte>(len)};
  ib::MemoryRegion src_mr[2], dst_mr[2];
  for (int s = 0; s < 2; ++s) {
    src_mr[s] = hca[s]->mem().register_memory(src[s].data(), len);
    dst_mr[s] = hca[s]->mem().register_memory(dst[s].data(), len);
  }

  VerbsProbe p;
  auto post = [&](int from, std::int64_t bytes) {
    const int to = 1 - from;
    ib::SendWr wr;
    wr.src = src[from].data();
    wr.length = static_cast<std::uint32_t>(bytes);
    wr.lkey = src_mr[from].lkey;
    if (bytes < kRdmaFrom) {
      qp[to]->post_recv({.wr_id = 0, .dst = dst[to].data(),
                         .length = static_cast<std::uint32_t>(bytes), .lkey = dst_mr[to].lkey});
      wr.opcode = ib::Opcode::Send;
    } else {
      wr.opcode = ib::Opcode::RdmaWrite;
      wr.remote_addr = dst_mr[to].addr;
      wr.rkey = dst_mr[to].rkey;
    }
    qp[from]->post_send(wr);
    ++p.wqes;
  };
  auto drain = [&] {
    sim.run();
    ib::Wc wc;
    for (int s = 0; s < 2; ++s) {
      while (scq[s].poll(wc)) {
      }
      while (rcq[s].poll(wc)) {
      }
    }
  };

  const std::int64_t t0 = host_ns();
  for (const PtOp& op : plan) {
    switch (op.kind) {
      case PtOp::Kind::PingPong:
        post(0, op.bytes);
        drain();
        post(1, op.bytes);
        drain();
        break;
      case PtOp::Kind::Uni:
        for (int m = 0; m < kWindow; ++m) post(0, op.bytes);
        drain();
        break;
      case PtOp::Kind::Bi:
        for (int m = 0; m < kWindow; ++m) {
          post(0, op.bytes);
          post(1, op.bytes);
        }
        drain();
        break;
    }
  }
  p.host_s = static_cast<double>(host_ns() - t0) / 1e9;
  p.virt_us = sim::to_us(sim.now());
  return p;
}

double fft_gflops() {
  using ib12x::nas::Complex;
  using ib12x::nas::Fft;
  const auto ft = ib12x::nas::ft_params(ib12x::nas::NasClass::A);
  std::vector<Fft> ffts;
  for (int n : {ft.nx, ft.ny, ft.nz}) ffts.emplace_back(static_cast<std::size_t>(n));
  std::vector<Complex> data(static_cast<std::size_t>(std::max({ft.nx, ft.ny, ft.nz})));
  sim::Rng rng(7);
  for (Complex& c : data) c = Complex(rng.next_double() - 0.5, rng.next_double() - 0.5);

  constexpr double kMinSeconds = 0.2;
  double flops = 0;
  const std::int64_t t0 = host_ns();
  std::int64_t t1 = t0;
  while (static_cast<double>(t1 - t0) / 1e9 < kMinSeconds) {
    for (int rep = 0; rep < 64; ++rep) {
      for (const Fft& f : ffts) {
        f.transform(data.data(), -1);
        f.transform(data.data(), +1);
        flops += 2 * f.flops();
      }
    }
    t1 = host_ns();
  }
  return flops / (static_cast<double>(t1 - t0) / 1e9) / 1e9;
}

PaperPoint measure_paper_point(std::uint64_t seed) {
  using ib12x::harness::Runner;
  ib12x::harness::BenchParams bp;
  bp.lat_iters = 20;
  bp.lat_skip = 4;
  bp.bw_iters = 4;
  bp.bw_skip = 1;
  const mvx::ClusterSpec two{2, 1};
  const mvx::Config orig = mvx::Config::original();
  const mvx::Config epc = mvx::Config::enhanced(4, mvx::Policy::EPC);

  sim::Rng rng(seed ^ 0x9a9e);
  auto size = [&rng](std::int64_t bytes) {
    return bytes - static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(bytes / 256)));
  };

  PaperPoint p;
  // As in the headline bench: the latency gain is the best of the
  // large-message sizes, and each bandwidth peak gets a fresh cluster.
  Runner lat_o(two, orig, bp), lat_e(two, epc, bp);
  for (std::int64_t bytes : {64 * 1024, 256 * 1024, 1 << 20}) {
    const std::int64_t n = size(bytes);
    p.lat_gain_pct =
        std::max(p.lat_gain_pct, (1.0 - lat_e.latency_us(n) / lat_o.latency_us(n)) * 100.0);
  }
  p.uni_orig_mbs = Runner(two, orig, bp).uni_bw_mbs(size(1 << 20));
  p.uni_epc_mbs = Runner(two, epc, bp).uni_bw_mbs(size(1 << 20));
  p.bi_epc_mbs = Runner(two, epc, bp).bi_bw_mbs(size(1 << 20));
  return p;
}

}  // namespace perfbench
