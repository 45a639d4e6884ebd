// Ablation: multi-rail failover — windowed uni-directional bandwidth while a
// rail drops and later recovers.  With 2 HCAs × 2 QPs (4 rails) and even
// striping, losing one HCA's port should step bandwidth down roughly in
// proportion to the surviving rails (one of two GX+ buses remains), and the
// timed recovery probe should restore the full rate once the link re-arms.
// The fault schedule is deterministic, so this bench is bit-stable run to run.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

namespace {

constexpr std::size_t kMsgBytes = 256 * 1024;
constexpr int kWindow = 8;
constexpr double kDownUs = 2000.0;
constexpr double kUpUs = 4000.0;

struct PhaseStats {
  double mbs = 0;
  double msgs = 0;
};

/// Bytes completed inside [lo_us, hi_us) over that phase's duration.
PhaseStats phase_bw(const std::vector<double>& done_us, double lo_us, double hi_us) {
  PhaseStats st;
  for (double t : done_us) {
    if (t >= lo_us && t < hi_us) st.msgs += 1;
  }
  st.mbs = st.msgs * static_cast<double>(kMsgBytes) / ((hi_us - lo_us) * 1e-6) / 1e6;
  return st;
}

}  // namespace

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Ablation — rail failover: uni-BW while one HCA's link flaps\n");
  std::printf("  4 rails (2 HCAs x 2 QPs, even striping); link down %.0f us, up %.0f us\n",
              kDownUs, kUpUs);

  mvx::Config cfg = mvx::Config::enhanced(2, mvx::Policy::EvenStriping);
  cfg.hcas_per_node = 2;
  cfg.fault.enabled = true;
  {
    mvx::Config::FaultConfig::LinkFlap f;
    f.node = 0;
    f.hca = 1;
    f.port = 0;
    f.down_at = sim::microseconds(kDownUs);
    f.up_at = sim::microseconds(kUpUs);
    cfg.fault.link_flaps.push_back(f);
  }

  // Stream enough fixed-size messages that the run comfortably spans the
  // flap and a recovery tail; record each message's completion time.
  constexpr int kMsgs = 160;
  std::vector<double> done_us;
  double end_us = 0;
  mvx::World w(mvx::ClusterSpec{2, 1}, cfg);
  w.run([&](mvx::Communicator& c) {
    std::vector<std::byte> buf(kMsgBytes, std::byte{0x6b});
    if (c.rank() == 0) {
      std::vector<mvx::Request> win;
      for (int i = 0; i < kMsgs; ++i) {
        win.push_back(c.isend(buf.data(), buf.size(), mvx::BYTE, 1, i));
        if (static_cast<int>(win.size()) == kWindow) {
          c.waitall(win);
          win.clear();
        }
      }
      c.waitall(win);
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        c.recv(buf.data(), buf.size(), mvx::BYTE, 0, i);
        done_us.push_back(sim::to_s(c.now()) * 1e6);
      }
      end_us = sim::to_s(c.now()) * 1e6;
    }
    c.barrier();
  });

  const PhaseStats before = phase_bw(done_us, 500.0, kDownUs);  // skip warmup
  const PhaseStats during = phase_bw(done_us, kDownUs + 100.0, kUpUs);
  const PhaseStats after = phase_bw(done_us, kUpUs + 200.0, end_us);

  harness::Table t("failover bandwidth phases", "phase");
  t.add_column("MB/s");
  t.add_column("msgs");
  t.add_column("rel to healthy");
  t.add_row("healthy (pre-fault)", {before.mbs, before.msgs, 1.0});
  t.add_row("degraded (1 HCA down)", {during.mbs, during.msgs, during.mbs / before.mbs});
  t.add_row("recovered (post-up)", {after.mbs, after.msgs, after.mbs / before.mbs});
  emit(t);

  std::printf("  telemetry: rail.down=%llu rail.recovered=%llu fault.send_errors=%llu "
              "fault.rndv_restriped=%llu\n",
              static_cast<unsigned long long>(w.telemetry().counter_value("rail.down")),
              static_cast<unsigned long long>(w.telemetry().counter_value("rail.recovered")),
              static_cast<unsigned long long>(w.telemetry().counter_value("fault.send_errors")),
              static_cast<unsigned long long>(w.telemetry().counter_value("fault.rndv_restriped")));

  // Losing one of two HCAs halves the bus bandwidth; the surviving rails
  // should land well below healthy but far from zero, and recovery should
  // return to the full rate.
  harness::print_check("degraded / healthy BW (one of two buses left)",
                       during.mbs / before.mbs, 0.30, 0.85);
  harness::print_check("recovered / healthy BW", after.mbs / before.mbs, 0.90, 1.10);
  return harness::checks_status();
}
