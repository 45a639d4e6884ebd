// Shared pieces of the repository benchmark: host clocks, the in-memory span
// recorder used in traced runs, telemetry snapshots and their digest, and the
// per-round record every workload fills.
//
// Every layer is measured from outside: the benchmark times its own calls
// into the simulator's public API and reads the public World::telemetry()
// snapshot.  Nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mvx/mpi.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace mvx = ib12x::mvx;
namespace sim = ib12x::sim;

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory and written out when the benchmark ends.  A span
/// that runs inside a rank's fiber is *inclusive*: while the fiber waits,
/// the simulator runs every other rank, so its duration covers their work
/// too and must not be read as self time.
class Tracer {
 public:
  struct Span {
    const char* name;
    int tid;       ///< 0 = benchmark thread, rank + 1 = that rank's fiber
    int parent;    ///< index of the enclosing span, -1 at top level
    bool inclusive;
    std::int64_t t0;
    std::int64_t t1;
  };

  int begin(const char* name, int tid, int parent, bool inclusive) {
    spans_.push_back({name, tid, parent, inclusive, host_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].t1 = host_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (viewable in Perfetto).  Returns false if the
  /// file cannot be written.
  bool write_chrome(const std::string& path) const;

  /// Per-name count, total duration and self time (duration minus the time
  /// covered by direct children) — self time only for non-inclusive spans.
  void print_summary(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span; free when `t` is null (untraced runs).
class Scope {
 public:
  Scope(Tracer* t, const char* name, int tid = 0, int parent = -1, bool inclusive = false)
      : t_(t), id_(t != nullptr ? t->begin(name, tid, parent, inclusive) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

/// Telemetry snapshot keyed by metric name.
using Snapshot = std::map<std::string, double>;

Snapshot snapshot(const mvx::World& w);

/// a += (after - before), name by name.
void add_delta(Snapshot& a, const Snapshot& before, const Snapshot& after);

/// Hash of every simulated statistic: the snapshot minus the wall-clock
/// `sim.wall.*` gauges, plus the virtual end time and the event count,
/// chained onto `h`.  Two runs of one program on one input must agree.
std::uint64_t digest(std::uint64_t h, const Snapshot& s, sim::Time end, std::uint64_t events);

inline constexpr std::uint64_t kDigestBasis = 1469598103934665603ULL;

/// Value of `name` in `s`, 0 if absent.
inline double get(const Snapshot& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

/// Seeded read-only byte stream every payload is cut from, so a receiver
/// can check a message against the slice the sender used.
std::vector<std::byte> make_stream(std::uint64_t seed, std::size_t bytes);

/// Process CPU time and faults so far (getrusage).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double max_rss_mb = 0;
};
Usage usage_now();

/// What one round of a workload measured.  A round builds fresh Worlds, warms
/// them up and runs the timed phase once.
struct Round {
  double setup_s = 0;       ///< World construction + warm-up pass (host)
  double conn_setup_s = 0;  ///< host time of the warm-up World::run alone
  double run_s = 0;         ///< host wall time of the timed World::run calls
  double virt_us = 0;       ///< virtual time of the timed phase
  std::vector<double> op_us;  ///< virtual call-to-return time per timed operation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  Snapshot tel;        ///< telemetry accumulated during the timed phase
  Snapshot tel_total;  ///< telemetry at the end of the round (incl. warm-up)
  std::uint64_t digest = kDigestBasis;
  Usage cpu;           ///< user/sys/fault deltas over the timed phase

  int ranks = 0;  ///< ranks of the round's largest World
  int hcas = 0;   ///< HCAs of the round's largest World
  std::uint64_t pt2pt_msgs = 0;  ///< MPI messages the timed phase sent
  std::uint64_t coll_calls = 0;  ///< collective calls (per rank) in the timed phase
  double nas_host_s = 0;         ///< first entry to last exit of run_is + run_ft
  double nas_virt_s = 0;         ///< kernel-timed virtual seconds (slowest rank)
};

/// Shared state of one World::run inside a round: where the rank fibers
/// record samples and spans.
struct RunCtx {
  Round* round = nullptr;
  Tracer* tracer = nullptr;
  int run_span = -1;
  bool timed = false;

  /// Times one MPI operation issued by `rank` (virtual call-to-return) and
  /// records an inclusive span around it.
  template <class F>
  void op(mvx::Communicator& c, const char* name, F&& f) {
    Scope s(tracer, name, c.rank() + 1, run_span, /*inclusive=*/true);
    const sim::Time t0 = c.now();
    f();
    if (timed) round->op_us.push_back(sim::to_us(c.now() - t0));
    ++round->attempted;
  }

  /// Counts a payload check.
  void check(bool ok, const char* what) {
    if (!ok) {
      ++round->failed;
      if (round->errors.size() < 8) round->errors.emplace_back(what);
    }
  }
};

/// Runs `fn` on every rank of `w` as one phase of a round.  Timed phases add
/// host time, virtual time, telemetry deltas and CPU usage to the round.
/// Returns the phase's host seconds.  Exceptions (payload exceptions,
/// deadlock) propagate.
double run_phase(mvx::World& w, Round& r, Tracer* tr, bool timed,
                 const std::function<void(mvx::Communicator&, RunCtx&)>& fn);

/// Folds a finished World into the round: end-of-round telemetry totals and
/// the digest of its simulated statistics.
void close_world(mvx::World& w, Round& r);

class Workload {
 public:
  virtual ~Workload() = default;
  /// One round: fresh Worlds, warm-up, timed phase.  `tr` is null when
  /// untraced.
  virtual Round round(Tracer* tr) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

// ---- pt2pt_paper's operation mix (shared with the verbs-level probe) ------

struct PtOp {
  enum class Kind { PingPong, Uni, Bi } kind;
  std::int64_t bytes;
  int slot;  ///< ping-pong payload offset slot
};

inline constexpr int kWindow = 64;           ///< messages per bandwidth window
inline constexpr int kPingPongSlots = 8;     ///< payload offsets per direction
inline constexpr std::size_t kSlotStride = 4096;

/// Ping-pongs at every power of two from 1 B to 1 MiB, then 64-deep uni and
/// bi windows from 16 KiB to 1 MiB, in ascending size as the paper's
/// figures run them.  The seed lengthens each size by up to 1/256 or 8
/// bytes, whichever is more (capped at 1 MiB), and picks each ping-pong's
/// payload slot.
std::vector<PtOp> make_pt2pt_plan(std::uint64_t seed);

// ---- layer probes (probes.cpp) --------------------------------------------

struct VerbsProbe {
  double host_s = 0;
  std::uint64_t wqes = 0;  ///< one message each
  double virt_us = 0;
};
/// Replays pt2pt_paper's size mix on raw ib::Fabric QPs: Send/Recv below
/// the rendezvous threshold, RDMA Write above, CQs drained after each step.
VerbsProbe run_verbs_probe(const std::vector<PtOp>& plan);

/// Standalone Fft::transform at NAS FT class A sizes, GFLOP/s (5·n·log2 n).
double fft_gflops();

/// The paper's four headline values, measured with the figure harness:
/// uni-BW original and EPC-4QP at 1 MiB, bi-BW EPC-4QP at 1 MiB, and the
/// best ping-pong latency gain (%) at 64 KiB, 256 KiB and 1 MiB.  The seed
/// shortens each size by up to 1/256, as the workloads jitter theirs.
struct PaperPoint {
  double uni_orig_mbs = 0;
  double uni_epc_mbs = 0;
  double bi_epc_mbs = 0;
  double lat_gain_pct = 0;
};
PaperPoint measure_paper_point(std::uint64_t seed);

}  // namespace perfbench
