// Ablation: connection scaling — what the lazy connection manager and the
// SRQ-pooled eager path buy as the job grows.  For each rank count the same
// nearest-neighbour ring exchange runs under (a) the legacy eager wiring
// (all-pairs QPs at startup, per-QP eager slots) and (b) lazy connect with
// the shared-receive-queue arena.  Reported per cell: host-side setup wall
// time, QPs actually created, and modelled pinned eager-buffer memory —
// the §2.1 memory wall this refactor attacks.  A message-rate sanity check
// at 64 ranks confirms the pooled path costs no throughput.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

namespace {

constexpr std::size_t kMsgBytes = 512;

/// Scaled-down knobs shared by both modes so the 256-rank all-pairs column
/// stays runnable on a laptop: the footprint *ratio* is what the ablation
/// measures, not absolute bytes.
mvx::Config scaled_config(bool lazy_srq) {
  mvx::Config cfg = mvx::Config::original();
  cfg.rndv_threshold = 2048;   // slot = header + 2 KiB
  cfg.eager_credits = 2;       // wired mode: slots per rail per peer
  cfg.send_bounce_bufs = 16;
  cfg.srq_pool_slots = 32;     // pooled mode: slots per HCA, total
  cfg.lazy_connect = lazy_srq;
  cfg.use_srq = lazy_srq;
  return cfg;
}

struct Cell {
  double setup_ms = 0;   ///< World construction wall time (host side)
  double qps = 0;        ///< conn.qps_created after the exchange
  double eager_mb = 0;   ///< eager.pool_bytes after the exchange (modelled pinned)
  double end_us = 0;     ///< virtual completion time of the ring exchange
};

Cell run_cell(int ranks, bool lazy_srq) {
  const mvx::Config cfg = scaled_config(lazy_srq);
  const auto t0 = std::chrono::steady_clock::now();
  mvx::World w(mvx::ClusterSpec{ranks, 1}, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  w.run([](mvx::Communicator& c) {
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() + c.size() - 1) % c.size();
    std::vector<std::byte> out(kMsgBytes, std::byte{0x12});
    std::vector<std::byte> in(kMsgBytes);
    c.sendrecv(out.data(), out.size(), mvx::BYTE, right, 0, in.data(), in.size(), mvx::BYTE,
               left, 0);
  });
  Cell cell;
  cell.setup_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  cell.qps = static_cast<double>(w.telemetry().counter_value("conn.qps_created"));
  cell.eager_mb = static_cast<double>(w.telemetry().counter_value("eager.pool_bytes")) / 1e6;
  cell.end_us = sim::to_s(w.end_time()) * 1e6;
  return cell;
}

/// Virtual-time message rate of a windowed many-to-many burst at `ranks`.
double message_rate(int ranks, bool lazy_srq) {
  constexpr int kMsgsPerRank = 64;
  mvx::World w(mvx::ClusterSpec{ranks, 1}, scaled_config(lazy_srq));
  w.run([&](mvx::Communicator& c) {
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() + c.size() - 1) % c.size();
    std::vector<std::byte> out(kMsgBytes, std::byte{0x34});
    std::vector<std::byte> in(kMsgBytes);
    for (int i = 0; i < kMsgsPerRank; ++i) {
      c.sendrecv(out.data(), out.size(), mvx::BYTE, right, i, in.data(), in.size(), mvx::BYTE,
                 left, i);
    }
  });
  const double secs = sim::to_s(w.end_time());
  return static_cast<double>(ranks) * kMsgsPerRank / secs;
}

}  // namespace

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Ablation — connection scaling: eager all-pairs wiring vs lazy connect + SRQ\n");
  std::printf("  ring exchange, %zu B messages; scaled-down slots (2 KiB, 2 credits, "
              "32-slot pool)\n", kMsgBytes);

  const int kRankCounts[] = {4, 16, 64, 256};
  harness::Table t("connection scaling", "config");
  t.add_column("setup ms");
  t.add_column("QPs");
  t.add_column("eager MB");
  t.add_column("ring us");
  Cell wired256, lazy256;
  for (int ranks : kRankCounts) {
    const Cell wired = run_cell(ranks, /*lazy_srq=*/false);
    const Cell lazy = run_cell(ranks, /*lazy_srq=*/true);
    char label[48];
    std::snprintf(label, sizeof(label), "%d ranks eager-wired", ranks);
    t.add_row(label, {wired.setup_ms, wired.qps, wired.eager_mb, wired.end_us});
    std::snprintf(label, sizeof(label), "%d ranks lazy+SRQ", ranks);
    t.add_row(label, {lazy.setup_ms, lazy.qps, lazy.eager_mb, lazy.end_us});
    if (ranks == 256) {
      wired256 = wired;
      lazy256 = lazy;
    }
  }
  emit(t);

  // Message-rate sanity: the pooled eager path must not tax throughput at a
  // size where both modes run comfortably.
  const double rate_wired = message_rate(64, /*lazy_srq=*/false);
  const double rate_lazy = message_rate(64, /*lazy_srq=*/true);
  harness::Table r("message rate @ 64 ranks", "config");
  r.add_column("msgs/s");
  r.add_row("eager-wired", {rate_wired});
  r.add_row("lazy+SRQ", {rate_lazy});
  emit(r);

  // The headline claims of the refactor.
  harness::print_check("eager-buffer memory ratio @ 256 ranks (wired / lazy+SRQ)",
                       wired256.eager_mb / lazy256.eager_mb, 10.0, 1e9);
  harness::print_check("QP ratio @ 256 ranks (wired / lazy+SRQ)",
                       wired256.qps / lazy256.qps, 10.0, 1e9);
  harness::print_check("message-rate ratio @ 64 ranks (lazy+SRQ / wired)",
                       rate_lazy / rate_wired, 0.7, 1.5);
  return harness::checks_status();
}
