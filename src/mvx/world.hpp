// World: the "mpirun" of the simulation.  Builds the cluster (fabric, HCAs,
// endpoints, rails, shm channels), spawns one simulated process per rank,
// and runs the user's rank function to completion in virtual time.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "ib/verbs.hpp"
#include "mvx/comm.hpp"
#include "mvx/config.hpp"
#include "mvx/endpoint.hpp"
#include "mvx/telemetry.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace ib12x::mvx {

class World {
 public:
  World(ClusterSpec spec, Config cfg);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs `rank_main` on every rank; returns when all ranks finish.  The
  /// simulation clock keeps its value across multiple run() calls.
  void run(const std::function<void(Communicator&)>& rank_main);

  [[nodiscard]] int ranks() const { return spec_.total_ranks(); }
  [[nodiscard]] const ClusterSpec& spec() const { return spec_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] std::uint64_t events_processed() const { return sim_.events_processed(); }
  [[nodiscard]] ib::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] Endpoint& endpoint(int rank) { return *eps_.at(static_cast<std::size_t>(rank)); }

  /// Process-wide telemetry: counters from every rank's channels, matcher,
  /// and rendezvous engine, plus gauges sampled from the ib HCA model.
  [[nodiscard]] TelemetryRegistry& telemetry() { return tel_; }
  [[nodiscard]] const TelemetryRegistry& telemetry() const { return tel_; }

  /// Virtual time when the last rank finished the most recent run().
  [[nodiscard]] sim::Time end_time() const { return end_time_; }

  // Context-id allocation for dup/split (see Communicator): monotone.
  [[nodiscard]] int peek_next_ctx() const { return next_ctx_; }
  void bump_ctx(int at_least) { next_ctx_ = std::max(next_ctx_, at_least); }

 private:
  /// Builds the channel between ranks `i` and `j` (shm or net)
  /// and marks both connection managers Ready.  Idempotent; used by both the
  /// legacy all-pairs loop and the lazy managers' wire function.
  void wire_pair(int i, int j);

  ClusterSpec spec_;
  Config cfg_;
  sim::Simulator sim_;
  std::unique_ptr<ib::Fabric> fabric_;
  std::vector<std::vector<ib::Hca*>> node_hcas_;
  TelemetryRegistry tel_;  ///< declared before eps_: endpoints hold handles into it
  std::vector<std::unique_ptr<Endpoint>> eps_;
  sim::Time end_time_ = 0;
  int next_ctx_ = 2;  // ctx 0/1 belong to the world communicator
};

}  // namespace ib12x::mvx
