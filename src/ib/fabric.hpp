// Fabric: the switched InfiniBand subnet plus the HCAs attached to it.
// Owns the simulator reference, the global QP number space and the topology
// (switches, links, LID forwarding tables).  The default topology is the
// paper's testbed: a single crossbar switch with one 12x downlink per HCA
// port and contention modelling off, which reproduces the legacy closed-form
// latency path bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ib/hca.hpp"
#include "ib/params.hpp"
#include "ib/topology.hpp"
#include "sim/simulator.hpp"

namespace ib12x::ib {

class FaultPlan;

class Fabric {
 public:
  // Ctor/dtor out of line: fault_ is a unique_ptr to a forward declaration.
  explicit Fabric(sim::Simulator& sim, HcaParams hca_params = {}, FabricParams fabric_params = {},
                  TopologySpec topo_spec = {});
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Attaches a new HCA for the given node id.
  Hca& add_hca(int node);

  /// Connects two QPs into an RC pair (both directions).
  static void connect(QueuePair& a, QueuePair& b);

  /// Installs the fault-injection plan.  Without one (the default) every
  /// fault hook in the HCA pipeline reduces to a null check.
  void attach_fault(std::unique_ptr<FaultPlan> plan);
  [[nodiscard]] FaultPlan* fault_plan() const { return fault_.get(); }

  [[nodiscard]] sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] const HcaParams& hca_params() const { return hca_params_; }
  [[nodiscard]] const FabricParams& fabric_params() const { return fabric_params_; }
  [[nodiscard]] Topology& topology() { return *topology_; }
  [[nodiscard]] const Topology& topology() const { return *topology_; }
  [[nodiscard]] int hca_count() const { return static_cast<int>(hcas_.size()); }
  [[nodiscard]] Hca& hca(int i) { return *hcas_.at(static_cast<std::size_t>(i)); }

  QpNum next_qp_num() { return next_qp_num_++; }

  /// Pipeline state of every WQE in flight on this fabric.
  [[nodiscard]] TransferPool& transfers() { return transfers_; }

 private:
  sim::Simulator& sim_;
  HcaParams hca_params_;
  FabricParams fabric_params_;
  std::unique_ptr<Topology> topology_;
  std::vector<std::unique_ptr<Hca>> hcas_;
  std::unique_ptr<FaultPlan> fault_;
  TransferPool transfers_;
  QpNum next_qp_num_ = 1;
};

}  // namespace ib12x::ib
