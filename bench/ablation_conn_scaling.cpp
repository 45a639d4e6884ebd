// Ablation: connection scaling — what lazy wiring and the SRQ-pooled eager
// path buy as the job grows.  For each rank count the same nearest-neighbour
// ring exchange runs under (a) all-pairs wiring at startup
// (World::connect_all()) and (b) lazy connect, both over the shared receive
// queue.  Reported per cell: host-side setup wall time (World construction
// plus any all-pairs wiring), QPs actually created, and pinned eager-buffer
// memory — the §2.1 memory wall.  For the all-pairs rows that memory is
// computed, not measured: the per-QP receive slots of MVAPICH-era wiring,
// QPs × eager_credits × (header + rndv_threshold) bytes.  A message-rate
// check at 64 ranks compares lazy wiring with all-pairs wiring over the same
// SRQ, so its ratio is the cost of the connection handshakes landing inside
// the timed burst.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "mvx/wire.hpp"

using namespace ib12x;
using namespace ib12x::bench;

namespace {

constexpr std::size_t kMsgBytes = 512;

/// Scaled-down knobs shared by both wirings so the 256-rank all-pairs column
/// stays runnable on a laptop: the footprint *ratio* is what the ablation
/// measures, not absolute bytes.
mvx::Config scaled_config() {
  mvx::Config cfg = mvx::Config::original();
  cfg.rndv_threshold = 2048;   // slot = header + 2 KiB
  cfg.eager_credits = 2;       // per-QP slots per rail per peer (all-pairs rows)
  cfg.send_bounce_bufs = 16;
  cfg.srq_pool_slots = 32;     // pooled slots per HCA, total
  return cfg;
}

struct Cell {
  double setup_ms = 0;   ///< World construction (+ all-pairs wiring) wall time
  double qps = 0;        ///< conn.qps_created after the exchange
  double eager_mb = 0;   ///< pinned eager receive memory (modelled)
  double end_us = 0;     ///< virtual completion time of the ring exchange
};

Cell run_cell(int ranks, bool all_pairs) {
  const mvx::Config cfg = scaled_config();
  const auto t0 = std::chrono::steady_clock::now();
  mvx::World w(mvx::ClusterSpec{ranks, 1}, cfg);
  if (all_pairs) w.connect_all();
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
  // All-pairs rows: what per-QP receive queues would pin on every QP.  Lazy
  // rows: the SRQ arenas the run actually allocated.
  const double eager_bytes =
      all_pairs ? cell.qps * cfg.eager_credits *
                      static_cast<double>(mvx::kHeaderBytes + cfg.rndv_threshold)
                : static_cast<double>(w.telemetry().counter_value("eager.pool_bytes"));
  cell.eager_mb = eager_bytes / 1e6;
  cell.end_us = sim::to_s(w.end_time()) * 1e6;
  return cell;
}

/// Virtual-time message rate of a windowed many-to-many burst at `ranks`.
double message_rate(int ranks, bool all_pairs) {
  constexpr int kMsgsPerRank = 64;
  mvx::World w(mvx::ClusterSpec{ranks, 1}, scaled_config());
  if (all_pairs) w.connect_all();
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
  std::printf("  eager-wired eager MB is computed, not measured: QPs x eager_credits x "
              "slot bytes (per-QP receive slots); both wirings run over the SRQ\n");

  const int kRankCounts[] = {4, 16, 64, 256};
  harness::Table t("connection scaling", "config");
  t.add_column("setup ms");
  t.add_column("QPs");
  t.add_column("eager MB");
  t.add_column("ring us");
  Cell wired256, lazy256;
  for (int ranks : kRankCounts) {
    const Cell wired = run_cell(ranks, /*all_pairs=*/true);
    const Cell lazy = run_cell(ranks, /*all_pairs=*/false);
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

  // Message-rate sanity: lazy wiring's handshakes must not tax a burst's
  // throughput much at a size where both wirings run comfortably.
  const double rate_wired = message_rate(64, /*all_pairs=*/true);
  const double rate_lazy = message_rate(64, /*all_pairs=*/false);
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
