// Deterministic fault injection for the fabric model.
//
// A FaultPlan owns every source of modelled failure:
//   * scheduled link events — a port goes down (all QPs behind it, and their
//     peers, transition to the error state and flush) and later comes back up
//     (QPs re-arm once both endpoints' ports are up);
//   * per-message completion errors — each serviced send WQE draws from a
//     seeded RNG and may be dropped (retries exhaust, data never arrives) or
//     ack-dropped (data arrives but the requester still completes in error);
//   * RNR drops — with a plan attached, an inbound message meeting an empty
//     receive queue is counted and dropped instead of aborting the run.
//
// Everything is driven by one seeded sim::Rng stream, so a given plan
// replays identically run to run.  Without an attached plan the HCA
// pipeline's fault hooks are single null checks and behaviour is
// bit-identical to the fault-free model.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ib12x::ib {

class Hca;

/// Fate of one serviced send WQE.
enum class MsgFault : std::uint8_t {
  None,     ///< delivered normally
  Drop,     ///< transport retries exhausted; no data delivered, error CQE
  AckDrop,  ///< data delivered, ACK lost; error CQE despite remote success
};

class FaultPlan {
 public:
  struct Params {
    std::uint64_t seed = 1;
    /// Per-WQE probability of a transport fault (0 disables message faults).
    double msg_error_rate = 0.0;
    /// Of faulted WQEs, the fraction whose data still lands (lost ACK).
    double ack_drop_fraction = 0.25;
    /// Modelled time between servicing a faulted WQE and its error CQE
    /// (retry exhaustion on the wire).
    sim::Time retry_latency = sim::microseconds(2.0);
  };

  explicit FaultPlan(const Params& p) : params_(p), rng_(p.seed) {}

  /// Schedules a link transition for port `port_idx` of `hca` at time `at`.
  void add_link_event(sim::Time at, Hca* hca, int port_idx, bool up);

  /// Registers every scheduled link event with the simulator.  Call once,
  /// after all add_link_event calls and before the simulation runs.
  void arm(sim::Simulator& sim);

  /// Draws the fate of one serviced send WQE (advances the RNG stream only
  /// when msg_error_rate is non-zero).
  MsgFault draw_msg_fault();

  [[nodiscard]] sim::Time retry_latency() const { return params_.retry_latency; }
  [[nodiscard]] bool port_down(const Hca* hca, int port_idx) const;

  void count_rnr_drop() { ++rnr_drops_; }

  [[nodiscard]] std::uint64_t injected_errors() const { return injected_errors_; }
  [[nodiscard]] std::uint64_t link_transitions() const { return link_transitions_; }
  [[nodiscard]] std::uint64_t rnr_drops() const { return rnr_drops_; }

 private:
  struct LinkEvent {
    sim::Time at = 0;
    Hca* hca = nullptr;
    int port = 0;
    bool up = false;
  };

  void apply(const LinkEvent& ev);

  Params params_;
  sim::Rng rng_;
  std::vector<LinkEvent> events_;
  std::vector<std::pair<const Hca*, int>> down_;  ///< ports currently down
  std::uint64_t injected_errors_ = 0;
  std::uint64_t link_transitions_ = 0;
  std::uint64_t rnr_drops_ = 0;
};

}  // namespace ib12x::ib
