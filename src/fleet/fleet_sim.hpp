// Fleet-scale single-scenario simulation: many ServerRigs advanced in
// lockstep control epochs with a hierarchical budget cascade on top.
//
// A FleetSim makes a whole multi-rig topology one schedulable scenario.
// The rigs are sharded into contiguous topology-order blocks and stepped
// in parallel on the work-stealing runner::ThreadPool; every epoch ends at
// a barrier, after which the facility budget cascades facility → row →
// rack (fleet::cascade_tiers) and each rack's RackCoordinator — health
// management and quarantine intact — divides its grant across its rigs.
//
// Determinism is the contract, not a best effort: each rig's telemetry
// (metrics, traces, SLO entries, flight records, energy ledger) accumulates
// in a private telemetry::Context and is merged in fixed topology order
// after the run, and every cascade input is sampled at a barrier.
// Prometheus/energy/flight exports and the cascade decisions are
// byte-identical for any --shards/--jobs combination, and the decisions
// are bit-equal to run_serial_reference(), which executes the same model
// serially in the caller's telemetry context with no pool and no private
// contexts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "faults/domain_tree.hpp"
#include "fleet/cascade.hpp"
#include "rack/coordinator.hpp"

namespace capgpu::fleet {

/// One fleet scenario: every rig runs the same saturated (or open-loop)
/// ResNet-50 serving stack under a hardened CapGPU control loop, differing
/// only by RNG seed and fault plan.
struct FleetConfig {
  std::string name{"fleet"};
  faults::DomainTopology topology{};
  std::uint64_t seed{42};
  /// Facility budget in watts; 0 = rigs * 560 W (between the default
  /// per-rig floor and ceiling, so the cascade has real work to do).
  double facility_budget_w{0.0};
  std::size_t periods{8};
  double period_s{4.0};
  /// Cascade + rack rebalance cadence in control periods.
  std::size_t rebalance_every{2};
  /// 0 = saturated; otherwise fraction of peak throughput (open-loop).
  double offered_load{0.0};
  double slo_s{0.45};
  /// Undegraded per-rig budget bounds (the rack tier's registration
  /// bounds; feed degradations lower the effective max per epoch).
  rack::AllocationBounds rig_bounds{500.0, 650.0};
  /// Rack-tier rig-health management; .enabled toggles it fleet-wide.
  rack::RigHealthConfig health{};
  /// Burn clamp for the cascade's steering weights.
  double burn_weight_clamp{10.0};
  /// Per-rig energy attribution ledgers (merged into the parent
  /// EnergyRegistry in topology order).
  bool energy_attribution{false};
};

/// Checks the config's domain, fills the facility-budget default; throws
/// InvalidArgument naming the offending field.
[[nodiscard]] FleetConfig validated(FleetConfig config);

/// Execution-shape knobs. Neither affects any output byte.
struct FleetOptions {
  /// Rig shards stepped as units; 0 = min(rigs, 4 * jobs).
  std::size_t shards{0};
  /// Worker threads; 0 = ThreadPool::hardware_jobs(), 1 = step inline.
  std::size_t jobs{0};
};

/// One cascade solve plus the rack-tier grants the coordinators pushed.
struct FleetDecisionRecord {
  CascadeDecision tiers;
  std::vector<double> rig_w;  ///< per rig, topology order

  [[nodiscard]] bool operator==(const FleetDecisionRecord& other) const {
    return tiers == other.tiers && rig_w == other.rig_w;
  }
};

/// Per-epoch observation of the whole fleet or rack (per-rig vectors are
/// in topology order): what the chaos-campaign scorer reads.
struct FleetPeriodSnap {
  double t{0.0};
  double fleet_power_w{0.0};
  double budget_w{0.0};  ///< deliverable watts in force this epoch
  std::vector<int> failsafe;
  std::vector<int> health;
  std::vector<std::uint64_t> checked;
  std::vector<std::uint64_t> missed;
  std::vector<std::uint64_t> engagements;
};

/// Run outcome: the decision trail, the epoch snapshots, and fleet-wide
/// tallies. Identical (operator==-wise on decisions, value-wise on the
/// rest) across every shard/worker layout.
struct FleetResult {
  std::size_t rigs{0};
  std::size_t epochs{0};
  std::size_t shards{1};
  std::size_t jobs{1};
  std::vector<FleetDecisionRecord> decisions;
  std::vector<FleetPeriodSnap> snaps;
  /// Rack coordinators' health logs, concatenated in rack order.
  std::vector<rack::RigHealthTransition> health_log;
  /// Trace pid of rig 0 after the merge (rig i's pid is base_pid + i):
  /// resilience entries written post-run stay aligned with the trace.
  int base_pid{0};
  double images{0.0};
  double mean_power_w{0.0};
  std::uint64_t checked{0};
  std::uint64_t missed{0};
  std::uint64_t failsafe_engagements{0};
  /// SLO objective from the burn monitors (for error-budget scoring).
  double objective{0.0};
};

/// The sharded fleet scenario. One run() per instance.
class FleetSim {
 public:
  explicit FleetSim(FleetConfig config, FleetOptions options = {});

  /// Attaches a fault to a topology node (DomainTree path grammar).
  /// Call before run().
  void add_fault(const std::string& node, faults::DomainFault fault);

  [[nodiscard]] const faults::DomainTree& tree() const { return tree_; }
  [[nodiscard]] const FleetConfig& config() const { return config_; }

  FleetResult run();

 private:
  FleetConfig config_;
  FleetOptions options_;
  faults::DomainTree tree_;
  bool ran_{false};
};

/// The serial reference: same rigs, same cascade, same epoch arithmetic,
/// executed one rig at a time in the caller's telemetry context with no
/// thread pool and no scenario contexts. The perf baseline, and the oracle
/// the sharded path must match bit-for-bit.
[[nodiscard]] FleetResult run_serial_reference(
    const FleetConfig& config,
    const std::vector<std::pair<std::string, faults::DomainFault>>&
        fault_list = {});

/// One rack-level run: the same rigs and epoch arithmetic as the fleet,
/// but every rig of `tree` answers to a single RackCoordinator (health
/// management per config.health.enabled) and there is no cascade — the
/// whole budget, config.facility_budget_w, scales by every budget event
/// in force (DomainTree::budget_scale) at each rebalance. Runs serially in
/// the caller's telemetry context; no fleet metrics, no fleet trace
/// process. The plant of the rack chaos campaign (run_rack_campaign).
[[nodiscard]] FleetResult run_rack(const FleetConfig& config,
                                   const faults::DomainTree& tree);

}  // namespace capgpu::fleet
