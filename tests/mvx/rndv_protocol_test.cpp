// Rendezvous protocol diversity: the equivalence oracle.
//
// The oracle (RndvProtocol suite) runs the same seeded mixed-size traffic
// under each wire protocol — WriteRtsCts, ReadRts, WriteImm, each with
// whole-message and 64 KiB registration chunks — and asserts what must NOT
// vary with the protocol choice:
//   1. every payload is byte-exact;
//   2. matcher-visible ordering: wildcard receives observe each sender's
//      messages in posting order, and all protocols deliver the identical
//      message set;
//   3. protocol-specific telemetry appears exactly on the protocols that own
//      it (read stripes only under ReadRts, immediates only under WriteImm,
//      neither in the default snapshot).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "harness/runner.hpp"
#include "mvx/mpi.hpp"
#include "mvx_test_util.hpp"
#include "sim/rng.hpp"

namespace ib12x::mvx {
namespace {

using testutil::payload;

struct Plan {
  int src, dst, tag;
  std::size_t bytes;
  bool nonblocking;
};

/// Identical global pt2pt plan on every rank, derived from the seed.  Sizes
/// are weighted toward the rendezvous regime so every protocol actually runs.
std::vector<Plan> make_plan(std::uint64_t seed, int ranks, int messages) {
  sim::Rng rng(seed);
  std::vector<Plan> plan;
  for (int i = 0; i < messages; ++i) {
    Plan p;
    p.src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
    p.dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks - 1)));
    if (p.dst >= p.src) ++p.dst;
    p.tag = i;
    switch (rng.next_below(4)) {
      case 0: p.bytes = 1 + rng.next_below(512); break;                   // eager
      case 1: p.bytes = 16 * 1024 + rng.next_below(8 * 1024); break;      // 1-stripe rndv
      case 2: p.bytes = 32 * 1024 + rng.next_below(96 * 1024); break;     // striped rndv
      default: p.bytes = 256 * 1024 + rng.next_below(256 * 1024); break;  // big striped
    }
    p.nonblocking = rng.next_below(2) == 0;
    plan.push_back(p);
  }
  return plan;
}

/// Multi-rail base configuration: 2 HCAs × 1 port × 2 QPs = 4 rails/peer.
Config make_rails_config() {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.hcas_per_node = 2;
  return cfg;
}

struct TrafficResult {
  sim::Time end_time = 0;
  /// (src, tag, bytes) per rank in wildcard completion order — the
  /// matcher-visible arrival sequence at each receiver.
  std::vector<std::vector<std::tuple<int, int, std::int64_t>>> order;
  /// The full delivered message set, sorted (protocol-independent).
  std::vector<std::tuple<int, int, int, std::int64_t>> delivered;  ///< (dst, src, tag, bytes)
};

/// Runs the seeded plan on a 2×2 world with wildcard receives and verifies
/// every payload in place; returns the observable ordering facts.  `inspect`
/// (optional) sees the finished world before it is torn down.
TrafficResult run_traffic(std::uint64_t seed, int messages,
                          const std::function<void(Config&)>& tweak,
                          const std::function<void(World&)>& inspect = {}) {
  Config cfg = make_rails_config();
  if (tweak) tweak(cfg);
  World w(ClusterSpec{2, 2}, cfg);
  TrafficResult res;
  res.order.resize(static_cast<std::size_t>(4));
  w.run([&](Communicator& c) {
    const auto plan = make_plan(seed, c.size(), messages);
    std::size_t nrecv = 0, maxb = 0;
    for (const Plan& p : plan) {
      if (p.dst == c.rank()) {
        ++nrecv;
        maxb = std::max(maxb, p.bytes);
      }
    }
    std::vector<std::vector<std::byte>> rbufs(nrecv);
    std::vector<Request> rreqs;
    for (std::size_t k = 0; k < nrecv; ++k) {
      rbufs[k].assign(maxb, std::byte{0});
      rreqs.push_back(c.irecv(rbufs[k].data(), maxb, BYTE, ANY_SOURCE, ANY_TAG));
    }
    std::vector<std::vector<std::byte>> sbufs;
    std::vector<Request> sreqs;
    for (const Plan& p : plan) {
      if (p.src != c.rank()) continue;
      sbufs.push_back(payload(p.bytes, p.src, p.tag));
      if (p.nonblocking) {
        sreqs.push_back(c.isend(sbufs.back().data(), p.bytes, BYTE, p.dst, p.tag));
      } else {
        c.send(sbufs.back().data(), p.bytes, BYTE, p.dst, p.tag);
      }
    }
    c.waitall(sreqs);
    for (std::size_t k = 0; k < nrecv; ++k) {
      Status st;
      c.wait(rreqs[k], &st);
      res.order[static_cast<std::size_t>(c.rank())].emplace_back(st.source, st.tag, st.bytes);
      rbufs[k].resize(static_cast<std::size_t>(st.bytes));
      ASSERT_EQ(rbufs[k], payload(static_cast<std::size_t>(st.bytes), st.source, st.tag))
          << "seed " << seed << " recv " << k << " at rank " << c.rank() << " ("
          << st.source << " tag " << st.tag << ", " << st.bytes << " B)";
    }
    c.barrier();
  });
  for (int r = 0; r < 4; ++r) {
    for (const auto& [src, tag, bytes] : res.order[static_cast<std::size_t>(r)]) {
      res.delivered.emplace_back(r, src, tag, bytes);
    }
  }
  std::sort(res.delivered.begin(), res.delivered.end());
  res.end_time = w.end_time();
  if (inspect) inspect(w);
  return res;
}

/// Row lookup in a telemetry table; -1 when the metric is absent.
double table_value(const harness::Table& t, const std::string& name) {
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    if (t.row_label(r) == name) return t.value(r, 0);
  }
  return -1.0;
}

void set_protocol(Config& cfg, Config::RndvConfig::Protocol p, std::int64_t chunk) {
  cfg.rndv.protocol = p;
  cfg.rndv_pipeline_chunk = chunk;
}

TEST(RndvProtocol, EquivalenceOracleAcrossProtocols) {
  using P = Config::RndvConfig::Protocol;
  const std::uint64_t seed = 0x0eac1e5eed;
  const int messages = 36;
  std::vector<TrafficResult> runs;
  for (std::int64_t chunk : {0, 64 * 1024}) {
    for (P p : {P::WriteRtsCts, P::ReadRts, P::WriteImm}) {
      runs.push_back(run_traffic(seed, messages,
                                 [&](Config& cfg) { set_protocol(cfg, p, chunk); }));
    }
  }
  const auto plan = make_plan(seed, 4, messages);
  for (std::size_t v = 0; v < runs.size(); ++v) {
    // Every protocol delivers the identical message set (payloads were
    // checked byte-exact in place)...
    EXPECT_EQ(runs[v].delivered, runs[0].delivered) << "variant " << v;
    // ...and each sender's messages reach every receiver's matcher in
    // posting order (per-pair sequencing is protocol-independent).
    for (int rank = 0; rank < 4; ++rank) {
      std::map<int, std::vector<int>> tags_by_src;
      for (const auto& [src, tag, bytes] : runs[v].order[static_cast<std::size_t>(rank)]) {
        tags_by_src[src].push_back(tag);
      }
      std::map<int, std::vector<int>> want;
      for (const Plan& p : plan) {
        if (p.dst == rank) want[p.src].push_back(p.tag);
      }
      EXPECT_EQ(tags_by_src, want) << "variant " << v << " rank " << rank;
    }
  }
}

TEST(RndvProtocol, TelemetryShapesPerProtocol) {
  using P = Config::RndvConfig::Protocol;
  const std::uint64_t seed = 0x7e1e7ab1e;
  auto snapshot = [&](P p) {
    harness::Table t("empty", "metric");
    run_traffic(seed, 24, [&](Config& cfg) { set_protocol(cfg, p, 0); },
                [&](World& w) { t = harness::telemetry_table(w); });
    return t;
  };

  const harness::Table def = snapshot(P::WriteRtsCts);
  // Every protocol's counters are registered; the default uses none of them.
  EXPECT_EQ(table_value(def, "rndv.read_stripes"), 0.0);
  EXPECT_EQ(table_value(def, "rndv.imm_sent"), 0.0);
  EXPECT_EQ(table_value(def, "rndv.done_sent"), 0.0);
  EXPECT_GT(table_value(def, "rndv.rts_sent"), 0.0);

  const harness::Table rd = snapshot(P::ReadRts);
  EXPECT_GT(table_value(rd, "rndv.read_stripes"), 0.0);
  EXPECT_GT(table_value(rd, "rndv.done_sent"), 0.0);
  EXPECT_EQ(table_value(rd, "rndv.imm_sent"), 0.0);
  EXPECT_EQ(table_value(rd, "rndv.imm_folded"), 0.0);

  const harness::Table wi = snapshot(P::WriteImm);
  EXPECT_GT(table_value(wi, "rndv.imm_sent") + table_value(wi, "rndv.imm_folded"), 0.0);
  EXPECT_EQ(table_value(wi, "rndv.read_stripes"), 0.0);
  EXPECT_EQ(table_value(wi, "rndv.done_sent"), 0.0);
}

TEST(RndvProtocol, WriteImmElidesFinAcrossVcis) {
  // Regression: FIN handling used to assume the CTS-echoed vci/chunk fields
  // were present when a transfer finished.  With WriteImm the FIN is elided,
  // so completion must run entirely off the immediate word — including on a
  // non-zero VCI — and the PinCache references must still come back.
  for (std::int64_t chunk : {0, 64 * 1024}) {
    Config cfg = make_rails_config();
    set_protocol(cfg, Config::RndvConfig::Protocol::WriteImm, chunk);
    cfg.vci.count = 2;
    cfg.vci.mapping = Config::VciConfig::Mapping::PerComm;
    cfg.stripe_threshold = 64 * 1024;  // keep a one-stripe (folded-imm) regime open
    World w(ClusterSpec{2, 1}, cfg);
    w.run([&](Communicator& c) {
      Communicator d = c.dup();  // PerComm: the dup'd communicator rides VCI 1
      const std::size_t folded = 32 * 1024;   // one stripe: imm rides the data write
      const std::size_t striped = 192 * 1024; // many stripes: trailing imm
      // Every rendezvous buffer lives until the end, then is freed at once:
      // the pin cache drops an unpinned registration with its host block but
      // keeps a still-pinned one registered (a zombie waiting for a release
      // that, once leaked, never comes).
      std::vector<std::vector<std::byte>> keep;
      for (int round = 0; round < 4; ++round) {
        for (Communicator* comm : {&c, &d}) {
          for (std::size_t n : {folded, striped}) {
            const int tag = round * 10 + (comm == &d ? 1 : 0) + (n == striped ? 4 : 0);
            if (comm->rank() == 0) {
              keep.push_back(payload(n, 0, tag));
              comm->send(keep.back().data(), n, BYTE, 1, tag);
            } else {
              keep.emplace_back(n);
              comm->recv(keep.back().data(), n, BYTE, 0, tag);
              ASSERT_EQ(keep.back(), payload(n, 0, tag))
                  << "chunk=" << chunk << " tag " << tag;
            }
          }
        }
      }
      c.barrier();
    });
    auto& tel = w.telemetry();
    // The 32 KiB message is one chunk of one stripe at either chunk size, so
    // its imm rides the data write; the striped one appends the zero-byte
    // trailing imm.
    EXPECT_GT(tel.counter_value("rndv.imm_folded"), 0u) << "chunk=" << chunk;
    EXPECT_GT(tel.counter_value("rndv.imm_sent"), 0u) << "chunk=" << chunk;
    EXPECT_GT(tel.counter_value("rndv.reg_cache_misses"), 0u) << "chunk=" << chunk;
    // With the buffers freed, each HCA holds only its rank's bounce-pool and
    // SRQ-arena registrations: the elided-FIN path released every receiver-
    // and sender-side pin.
    for (int h = 0; h < w.fabric().hca_count(); ++h) {
      EXPECT_EQ(w.fabric().hca(h).mem().region_count(), 2u) << "chunk=" << chunk << " hca " << h;
    }
  }
}

TEST(RndvProtocol, ConfigValidationRejectsBadKnobs) {
  Config cfg;
  cfg.rndv_pipeline_chunk = -1;
  try {
    World w(ClusterSpec{2, 1}, cfg);
    ADD_FAILURE() << "a negative rndv_pipeline_chunk was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rndv_pipeline_chunk"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace ib12x::mvx
