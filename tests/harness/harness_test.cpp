// Bench-harness plumbing: the table printer, band checks, size labels, the
// sweep helper, and the Runner's measurement semantics (determinism,
// steady-state skipping, direction accounting).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/table.hpp"

namespace ib12x::harness {
namespace {

TEST(Table, ValuesRoundTrip) {
  Table t("demo", "size");
  t.add_column("a");
  t.add_column("b");
  t.add_row("1K", {1.5, 2.5});
  t.add_row("2K", {3.5, 4.5});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.value(0, 1), 2.5);
  EXPECT_EQ(t.value(1, 0), 3.5);
  EXPECT_EQ(t.row_label(1), "2K");
}

TEST(Table, CsvOutput) {
  Table t("demo", "size");
  t.add_column("col");
  t.add_row("8", {1.25});
  char buf[256] = {};
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  t.print_csv(mem, 2);
  std::fclose(mem);
  EXPECT_STREQ(buf, "size,col\n8,1.25\n");
}

TEST(PrintCheck, OutOfBandCheckFailsTheRun) {
  // One process-wide tally: in-band checks leave the status at 0, and one
  // out-of-band check makes it 1 for the rest of the process.
  print_check("in band", 1.0, 0.5, 1.5);
  print_check("on the floor", 30.0, 30.0, 40.0);
  EXPECT_EQ(checks_status(), 0);
  print_check("below the floor", 29.99, 30.0, 40.0);
  EXPECT_EQ(checks_status(), 1);
  print_check("in band again", 1.0, 0.5, 1.5);
  EXPECT_EQ(checks_status(), 1);
}

TEST(SizeLabel, HumanUnits) {
  EXPECT_EQ(size_label(1), "1");
  EXPECT_EQ(size_label(512), "512");
  EXPECT_EQ(size_label(1024), "1K");
  EXPECT_EQ(size_label(16 * 1024), "16K");
  EXPECT_EQ(size_label(1 << 20), "1M");
  EXPECT_EQ(size_label(1500), "1500");  // non-round sizes stay in bytes
}

TEST(Pow2Sizes, SweepRange) {
  auto v = pow2_sizes(16, 128);
  EXPECT_EQ(v, (std::vector<std::int64_t>{16, 32, 64, 128}));
  EXPECT_THROW(pow2_sizes(0, 8), std::invalid_argument);
  EXPECT_THROW(pow2_sizes(64, 16), std::invalid_argument);
}

TEST(TelemetryTable, ExposesRendezvousAndDoorbellCounters) {
  // The per-layer telemetry table every bench prints must carry the
  // rendezvous-pipeline counters and the HCA doorbell gauge, so bench output
  // records pin-down-cache and batching behaviour alongside bandwidth.
  mvx::Config cfg = mvx::Config::enhanced(4, mvx::Policy::EPC);
  cfg.rndv_pipeline_chunk = 64 * 1024;
  mvx::World w(mvx::ClusterSpec{2, 1}, cfg);
  w.run([](mvx::Communicator& c) {
    constexpr std::size_t kBytes = 1 << 20;
    std::vector<std::byte> buf(kBytes);
    if (c.rank() == 0) {
      c.send(buf.data(), kBytes, mvx::BYTE, 1, 0);
    } else {
      c.recv(buf.data(), kBytes, mvx::BYTE, 0, 0);
    }
  });

  const Table t = telemetry_table(w);
  std::map<std::string, double> rows;
  for (std::size_t i = 0; i < t.row_count(); ++i) rows[t.row_label(i)] = t.value(i, 0);
  for (const char* name :
       {"rndv.rts_sent", "rndv.bytes_sent", "rndv.stripes_posted", "rndv.reg_cache_hits",
        "rndv.reg_cache_misses", "rndv.cts_chunks", "rndv.pipeline_depth", "hca.doorbells"}) {
    ASSERT_TRUE(rows.count(name)) << name << " missing from telemetry table";
  }
  EXPECT_GT(rows["rndv.cts_chunks"], 0.0);
  EXPECT_GT(rows["rndv.pipeline_depth"], 0.0);
  EXPECT_GT(rows["hca.doorbells"], 0.0);
}

TEST(TelemetryTable, ExposesSwitchGaugesOnRoutedTopologies) {
  // On a routed topology the per-layer table must carry the fabric.switch.*
  // group: switch count, routed packets, stall/drop counters, the output
  // queue high-water mark, and the hops histogram.
  mvx::Config cfg = mvx::Config::enhanced(2, mvx::Policy::EPC);
  cfg.topo.shape = ib::TopoShape::FatTree;
  cfg.topo.contention = true;
  mvx::World w(mvx::ClusterSpec{4, 1}, cfg);
  w.run([](mvx::Communicator& c) {
    constexpr std::size_t kBytes = 256 * 1024;
    const int peer = (c.rank() + c.size() / 2) % c.size();
    std::vector<std::byte> out(kBytes), in(kBytes);
    c.sendrecv(out.data(), kBytes, mvx::BYTE, peer, 0, in.data(), kBytes, mvx::BYTE, peer, 0);
  });

  const Table t = telemetry_table(w);
  std::map<std::string, double> rows;
  for (std::size_t i = 0; i < t.row_count(); ++i) rows[t.row_label(i)] = t.value(i, 0);
  for (const char* name :
       {"fabric.switch.count", "fabric.switch.routed_pkts", "fabric.switch.stalls",
        "fabric.switch.drops", "fabric.switch.queue_hwm_bytes", "fabric.switch.hops.h1",
        "fabric.switch.hops.h3", "fabric.switch.hops.h5"}) {
    ASSERT_TRUE(rows.count(name)) << name << " missing from telemetry table";
  }
  EXPECT_GT(rows["fabric.switch.count"], 1.0);
  EXPECT_GT(rows["fabric.switch.routed_pkts"], 0.0);
  EXPECT_GT(rows["fabric.switch.queue_hwm_bytes"], 0.0);
  EXPECT_EQ(rows["fabric.switch.drops"], 0.0);  // lossless fabric
  EXPECT_GT(rows["fabric.switch.hops.h1"] + rows["fabric.switch.hops.h3"] +
                rows["fabric.switch.hops.h5"],
            0.0);
}

TEST(TelemetryTable, ExposesSwitchGaugesOnTheCrossbar) {
  // The fabric.switch.* group is registered on every topology: the default
  // crossbar reports its one switch and a one-hop path for every packet.
  mvx::World w(mvx::ClusterSpec{2, 1}, mvx::Config{});
  w.run([](mvx::Communicator& c) {
    std::vector<std::byte> buf(64);
    if (c.rank() == 0) {
      c.send(buf.data(), buf.size(), mvx::BYTE, 1, 0);
    } else {
      c.recv(buf.data(), buf.size(), mvx::BYTE, 0, 0);
    }
  });

  const Table t = telemetry_table(w);
  std::map<std::string, double> rows;
  for (std::size_t i = 0; i < t.row_count(); ++i) rows[t.row_label(i)] = t.value(i, 0);
  ASSERT_TRUE(rows.count("fabric.switch.count"));
  EXPECT_EQ(rows["fabric.switch.count"], 1.0);
  EXPECT_GT(rows["fabric.switch.hops.h1"], 0.0);
  EXPECT_EQ(rows["fabric.switch.stalls"], 0.0);
}

TEST(TelemetryTable, ExposesVciCountersWhenEnabled) {
  // With several VCIs and modeled threads the per-layer table must surface
  // the vci.* group: per-VCI send counts, shared-VCI lock contentions, the
  // progress-fiber wakeups, and the credit-split high-water mark.
  mvx::Config cfg;
  cfg.vci.count = 2;
  cfg.vci.threads = 2;
  mvx::World w(mvx::ClusterSpec{2, 1}, cfg);
  w.run([](mvx::Communicator& c) {
    const int t = c.thread_id();
    for (int i = 0; i < 8; ++i) {
      std::vector<std::byte> buf(512);
      if (c.rank() == 0) {
        c.send(buf.data(), buf.size(), mvx::BYTE, 1, t * 100 + i);
      } else {
        c.recv(buf.data(), buf.size(), mvx::BYTE, 0, t * 100 + i);
      }
    }
  });

  const Table t = telemetry_table(w);
  std::map<std::string, double> rows;
  for (std::size_t i = 0; i < t.row_count(); ++i) rows[t.row_label(i)] = t.value(i, 0);
  for (const char* name : {"vci.sends.v0", "vci.sends.v1", "vci.lock_contentions",
                           "vci.progress_wakeups", "vci.credit_split"}) {
    ASSERT_TRUE(rows.count(name)) << name << " missing from telemetry table";
  }
  EXPECT_GT(rows["vci.sends.v0"] + rows["vci.sends.v1"], 0.0);
  EXPECT_GT(rows["vci.progress_wakeups"], 0.0);
  EXPECT_GT(rows["vci.credit_split"], 0.0);
}

TEST(Runner, MeasurementsAreDeterministic) {
  BenchParams bp;
  bp.lat_iters = 30;
  bp.lat_skip = 5;
  Runner a(mvx::ClusterSpec{2, 1}, mvx::Config::enhanced(4, mvx::Policy::EPC), bp);
  Runner b(mvx::ClusterSpec{2, 1}, mvx::Config::enhanced(4, mvx::Policy::EPC), bp);
  EXPECT_DOUBLE_EQ(a.latency_us(1024), b.latency_us(1024));
  EXPECT_DOUBLE_EQ(a.uni_bw_mbs(65536), b.uni_bw_mbs(65536));
}

TEST(Runner, LatencyMonotoneInSize) {
  Runner r(mvx::ClusterSpec{2, 1}, mvx::Config::original());
  double prev = 0;
  for (std::int64_t bytes : {1L, 1024L, 65536L, 1L << 20}) {
    const double us = r.latency_us(bytes);
    EXPECT_GT(us, prev) << bytes;
    prev = us;
  }
}

TEST(Runner, BiBwExceedsUniBw) {
  BenchParams bp;
  bp.bw_iters = 8;
  bp.bw_skip = 2;
  Runner r(mvx::ClusterSpec{2, 1}, mvx::Config::enhanced(4, mvx::Policy::EPC), bp);
  const double uni = r.uni_bw_mbs(1 << 20);
  const double bi = r.bi_bw_mbs(1 << 20);
  EXPECT_GT(bi, uni * 1.5);
  EXPECT_LT(bi, uni * 2.0);
}

TEST(Runner, AlltoallScalesWithSize) {
  Runner r(mvx::ClusterSpec{2, 2}, mvx::Config::enhanced(4, mvx::Policy::EPC));
  const double small = r.alltoall_us(16 * 1024);
  const double large = r.alltoall_us(256 * 1024);
  EXPECT_GT(large, small * 4);  // 16x the data, at least 4x the time
}

TEST(Runner, ExtraRanksAreHarmlessForPairTests) {
  // latency/bw use ranks 0 and 1 only; additional ranks must not deadlock.
  Runner r(mvx::ClusterSpec{2, 2}, mvx::Config::original());
  EXPECT_GT(r.latency_us(8), 0.0);
}

}  // namespace
}  // namespace ib12x::harness
