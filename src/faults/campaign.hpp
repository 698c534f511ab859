// Declarative chaos campaigns: the campaign document.
//
// A campaign is a staged fault timeline over CapGPU-capped rigs: a JSON
// document names the domain topology, the workload shape, the
// coordinator's health-management knobs, and a list of stages, each
// attaching one scripted fault (faults::DomainFault) to one domain node.
// This header is the document model and its parser; the drivers that run
// and score a campaign live in the fleet layer (fleet/campaign.hpp:
// run_rack_campaign for the rack A/B, run_fleet_campaign for a whole
// FleetSim).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/domain_tree.hpp"
#include "rack/allocation.hpp"
#include "rack/coordinator.hpp"

namespace capgpu::faults {

/// One stage of the campaign timeline: a named fault on a domain node.
struct CampaignStage {
  std::string name;
  std::string node;  ///< domain path ("", "rackR", "rackR/pduP", ...)
  DomainFault fault;
};

/// The parsed campaign document.
struct CampaignConfig {
  std::string name{"campaign"};
  std::uint64_t seed{0xC0FFEEULL};
  DomainTopology topology{};
  double rack_budget_w{2400.0};
  std::size_t periods{150};
  double period_s{4.0};
  /// Coordinator rebalance cadence, in control periods.
  std::size_t rebalance_every{2};
  /// Offered load as a fraction of each stream's peak throughput
  /// (0 = saturated closed-loop serving).
  double offered_load{0.0};
  /// Latency SLO applied to every stream (seconds).
  double slo_s{0.05};
  /// Per-rig budget bounds handed to the coordinator. The default min sits
  /// at a single-resnet50 rig's feasible floor (~500 W at minimum clocks),
  /// so a quarantined rig's pinned budget is watts it actually stops using.
  rack::AllocationBounds bounds{500.0, 650.0};
  /// Health-management knobs; `enabled` is overridden by the driver
  /// (fleet::run_rack_campaign's `health_managed`, always on for
  /// fleet::run_fleet_campaign).
  rack::RigHealthConfig health{};
  std::vector<CampaignStage> stages;
};

/// Parses a campaign JSON document (see docs/fault_model.md for the
/// schema). Throws InvalidArgument on malformed JSON, unknown fault
/// kinds, bad domain paths, out-of-domain numbers, or a count that is not
/// a non-negative integer (naming its key).
[[nodiscard]] CampaignConfig parse_campaign(const std::string& json_text);

/// Checks the config's domain; throws InvalidArgument naming the field.
[[nodiscard]] CampaignConfig validated(CampaignConfig config);

}  // namespace capgpu::faults
