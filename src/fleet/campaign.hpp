// Chaos campaigns: a staged fault timeline run against CapGPU rigs and
// scored stage by stage.
//
// A campaign is a faults::CampaignConfig (the JSON document of
// docs/fault_model.md): a domain topology, a workload shape, the
// coordinator's health knobs, and stages that each attach one scripted
// fault to one domain node. Every stage is scored into a
// telemetry::ResilienceEntry (detection, MTTR, SLO error budget burned
// during and after the fault, recovery overshoot, fail-safe dwell) and
// appended to telemetry::ResilienceRegistry::current(), so --resilience-out
// renders the scorecard. Two drivers share the one scorer:
//
//  * run_rack_campaign — the rack A/B over run_rack: every rig under one
//    RackCoordinator whose whole budget `rack_budget_w` scales by every
//    budget event in force. Variants "baseline" (coordinator rig-health
//    management off) and "hardened" (on); every loop runs hardened either
//    way, so the A/B isolates the coordinator. The root node scores as
//    domain "row". Hardened must burn strictly less error budget:
//    quarantining dark rigs at their minimum frees watts for the healthy,
//    burning ones.
//  * run_fleet_campaign — a whole FleetSim: facility budget
//    `rack_budget_w` * racks, cascaded facility -> row -> rack with each
//    budget event applied at its own node, health management always on.
//    Variant "fleet"; the root scores as domain "facility". Scoring runs
//    on the caller's thread after the sharded run has merged, so the
//    scorecard bytes are identical for any --shards/--jobs combination.
#pragma once

#include <string>
#include <vector>

#include "faults/campaign.hpp"
#include "fleet/fleet_sim.hpp"
#include "telemetry/resilience.hpp"

namespace capgpu::fleet {

/// Aggregate outcome of one campaign run.
struct FleetCampaignResult {
  std::string variant;  ///< "baseline" / "hardened" / "fleet"
  FleetResult fleet;
  /// Lifetime error-budget fraction consumed, summed misses over summed
  /// checks across every rig: (miss rate) / (1 - objective).
  double total_burn{0.0};
  std::vector<telemetry::ResilienceEntry> stages;  ///< copy of the entries
};

/// Runs the campaign once on one rack (run_rack). `health_managed` switches
/// the coordinator's rig-health layer; variant "hardened" / "baseline".
[[nodiscard]] FleetCampaignResult run_rack_campaign(
    const faults::CampaignConfig& config, bool health_managed);

/// Runs the campaign against the fleet, health management always on (the
/// fleet campaign scores the hierarchy, not the health A/B). Facility
/// budget = config.rack_budget_w * racks.
[[nodiscard]] FleetCampaignResult run_fleet_campaign(
    const faults::CampaignConfig& config, FleetOptions options = {});

}  // namespace capgpu::fleet
