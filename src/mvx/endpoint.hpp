// The ADI-layer endpoint: one per MPI rank.
//
// Since the channel decomposition this is a thin facade over the layered
// architecture (paper fig. 2, DESIGN.md "Architecture"):
//
//   * channels — ShmChannel (intra-node) and NetChannel (rails, credits,
//     eager protocol, completion filter); each owns its per-peer transport
//     state;
//   * Matcher — posted/unexpected queues, per-(pair, ctx) sequencing and
//     reordering, probe semantics;
//   * Rendezvous — RTS/CTS/FIN state machine, stripe planning, the
//     registration cache;
//   * TelemetryRegistry — named counters/gauges every layer registers.
//
// The facade routes each send to the shm channel when it reaches the peer,
// else to the net channel (eager below the rendezvous threshold, the
// rendezvous protocol above it), glues in-order arrivals into matching and
// protocol dispatch, and owns the two cross-cutting resources: one
// serialized progress server per VCI for event-context protocol work, and
// the progress waitable blocking calls park on.
//
// Threading model: the owning rank's code runs in process context (and is
// charged CPU via Process::compute); network completions arrive in event
// context and communicate with the process through the progress Waitable.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mvx/channel.hpp"
#include "mvx/config.hpp"
#include "mvx/policy.hpp"
#include "mvx/request.hpp"
#include "mvx/wire.hpp"
#include "sim/process.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"

namespace ib12x::ib {
class Hca;
}

namespace ib12x::mvx {

namespace coll {
class CollEngine;
}

class ConnManager;
class Counter;
class Matcher;
class NetChannel;
class Rendezvous;
class ShmChannel;
class TelemetryRegistry;

class Endpoint final : public ChannelHost {
 public:
  Endpoint(sim::Simulator& sim, int rank, int node, std::vector<ib::Hca*> node_hcas,
           const Config& cfg, TelemetryRegistry& tel);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Builds the rail set (hcas × ports × qps QP pairs) between two endpoints
  /// on different nodes.
  static void connect_net(Endpoint& a, Endpoint& b);

  /// Connects two endpoints on the same node through the shm channel.
  static void connect_shm(Endpoint& a, Endpoint& b);

  /// The lazy connection manager (always constructed; only consulted when
  /// Config::lazy_connect is on).  World injects the wire function.
  [[nodiscard]] ConnManager& conn() { return *conn_; }

  /// Binds the simulated process that runs this rank's code.
  void attach_process(sim::Process* p) { proc_ = p; }

  /// Registers one modeled application thread's fiber (vci.threads > 1).
  /// Thread 0 is the rank's main fiber; every registered fiber may issue
  /// sends/recvs concurrently and is mapped to a VCI by vci_for().
  void register_thread(sim::Process* p, int tid);

  /// Index of the modeled app thread running right now (0 when the current
  /// fiber is not a registered app thread — e.g. the collective-progress
  /// helper, or any fiber in the default single-threaded configuration).
  [[nodiscard]] int current_thread() const;

  /// The VCI carrying an operation issued from the current thread on
  /// communicator context `ctx`, per the configured thread → VCI mapping.
  [[nodiscard]] int vci_for(int ctx) const;

  // ---- process-context API (called by Communicator) ----

  /// `lane >= 0` pins the transfer to rail (lane % nrails) instead of letting
  /// the EPC policy schedule it — the multi-lane collective decomposition.
  Request start_send(CommKind kind, const void* buf, std::int64_t bytes, int dst, int tag, int ctx,
                     int lane = -1);
  Request start_recv(void* buf, std::int64_t capacity, int src, int tag, int ctx);
  void wait(const Request& r);
  [[nodiscard]] bool test(const Request& r) const { return r->done; }
  /// A fresh request from this endpoint's pool.
  [[nodiscard]] Request new_request() { return requests_.make(); }

  /// Non-blocking probe of the unexpected queue (MPI_Iprobe semantics: an
  /// in-order message matching (src, tag, ctx) has arrived but not been
  /// received).  Fills `st` on a hit.
  bool iprobe(int src, int tag, int ctx, Status* st);
  /// Blocking probe: waits until iprobe succeeds.
  void probe(int src, int tag, int ctx, Status* st);

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int node() const { return node_; }
  /// The process to charge CPU to: the currently executing fiber when there
  /// is one (the rank's own, or its collective-progress helper), otherwise
  /// the attached rank process.  This is what routes channel-level compute()
  /// charges to whichever fiber is actually driving the endpoint.
  [[nodiscard]] sim::Process& process() const override {
    if (sim::Process* cur = sim::Process::current()) return *cur;
    return *proc_;
  }
  /// The schedule executor for this rank's collectives.
  [[nodiscard]] coll::CollEngine& coll_engine() { return *coll_engine_; }
  [[nodiscard]] sim::Simulator& simulator() const override { return sim_; }
  [[nodiscard]] const Config& config() const override { return cfg_; }

  // ---- ChannelHost surface (channels and protocol modules call these) ----

  Matcher& matcher() override { return *matcher_; }
  TelemetryRegistry& telemetry() override { return tel_; }
  sim::Waitable& progress() override { return progress_; }
  void schedule_cpu_vci(int vci, sim::Time cost, sim::Event fn) override;
  [[nodiscard]] sim::Time memcpy_time(std::int64_t bytes) const override;
  void ingress(int peer, const MsgHeader& hdr, Payload payload) override;
  void on_ctl(const MsgHeader& hdr, const CtsRkeys& rkeys) override;
  void on_rndv_write_done(int peer, std::uint64_t req_id) override;
  void on_rndv_write_failed(int peer, const RndvStripe& st) override;
  void on_rndv_read_done(int peer, std::uint64_t req_id) override;
  void on_rndv_read_failed(int peer, const RndvStripe& st) override;
  void on_rndv_imm(std::uint32_t imm_data) override;
  void on_eager_resources_freed(int peer) override;
  void complete_request(const Request& req) override;

 private:
  /// Drains `peer`'s queued sends in FIFO order through the channels'
  /// event-context paths, stopping at the first one that cannot get
  /// resources (a later CQE re-flushes).
  void flush_queued(int peer);
  /// Matched eager arrival: copy out, then complete after the copy's CPU
  /// time has been charged (on the message's VCI progress server).
  void complete_recv(const Request& req, const MsgHeader& hdr, const std::byte* payload,
                     sim::Time extra_delay);

  /// Fiber-level VCI critical section, modeled only when vci.threads > 1:
  /// a thread entering a VCI's issue path acquires the VCI's lock (charging
  /// vci.lock_cpu) and contended acquisitions serialize behind the holder —
  /// the Zambre shared-VCI flatline.  No-ops in single-threaded ranks.
  void lock_vci(int vci);
  void unlock_vci(int vci);

  sim::Simulator& sim_;
  int rank_;
  int node_;
  Config cfg_;
  TelemetryRegistry& tel_;
  sim::Process* proc_ = nullptr;
  RequestPool requests_;

  std::unique_ptr<Matcher> matcher_;
  std::unique_ptr<ConnManager> conn_;
  std::unique_ptr<NetChannel> net_;
  std::unique_ptr<ShmChannel> shm_;
  std::unique_ptr<Rendezvous> rndv_;
  std::unique_ptr<coll::CollEngine> coll_engine_;

  sim::Waitable progress_;

  /// An inbound RTS or CTS waiting out its CPU charge on a VCI progress
  /// server: the header does not fit an event capture, so the event carries
  /// the slot id instead.
  struct ParkedCtl {
    MsgHeader hdr;
    CtsRkeys rkeys;
    Request req;  ///< the matched receive (RTS only)
  };
  sim::Slab<ParkedCtl> parked_ctl_;

  // ---- VCI state ----
  /// One progress server per VCI: each serializes its own VCI's
  /// event-context protocol work and runs in parallel with the others.
  std::vector<sim::Server> vci_cpu_;
  /// Registered app-thread fibers, indexed by thread id.
  std::vector<sim::Process*> thread_procs_;
  /// Per-VCI lock word (allocated only when vci.threads > 1).
  std::vector<std::uint8_t> vci_locked_;
  std::vector<Counter*> vci_sends_;  ///< vci.sends.v<n>, one per VCI
  Counter& vci_lock_contentions_;
  Counter& vci_wakeups_;
};

}  // namespace ib12x::mvx
