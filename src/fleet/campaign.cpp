#include "fleet/campaign.hpp"

#include <utility>

namespace capgpu::fleet {

namespace {

/// The FleetConfig a campaign document describes, with `budget_w` as the
/// top tier's budget.
FleetConfig fleet_config_of(const faults::CampaignConfig& cc, double budget_w,
                            bool health_managed) {
  FleetConfig fc;
  fc.name = cc.name;
  fc.topology = cc.topology;
  fc.seed = cc.seed;
  fc.facility_budget_w = budget_w;
  fc.periods = cc.periods;
  fc.period_s = cc.period_s;
  fc.rebalance_every = cc.rebalance_every;
  fc.offered_load = cc.offered_load;
  fc.slo_s = cc.slo_s;
  fc.rig_bounds = cc.bounds;
  fc.health = cc.health;
  fc.health.enabled = health_managed;
  return fc;
}

/// Index of the last snap with t <= `time` (-1 when none).
int snap_at(const std::vector<FleetPeriodSnap>& snaps, double time) {
  int idx = -1;
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    if (snaps[k].t <= time) idx = static_cast<int>(k);
  }
  return idx;
}

/// Error-budget fraction burned between two snaps (exclusive, inclusive]
/// summed over every rig: miss rate over the window divided by the budget.
double burn_between(const std::vector<FleetPeriodSnap>& snaps, int from,
                    int to, double objective) {
  if (to < 0) return 0.0;
  std::uint64_t checked = 0;
  std::uint64_t missed = 0;
  for (std::size_t i = 0; i < snaps[to].checked.size(); ++i) {
    const std::uint64_t c0 = from >= 0 ? snaps[from].checked[i] : 0;
    const std::uint64_t m0 = from >= 0 ? snaps[from].missed[i] : 0;
    checked += snaps[to].checked[i] - c0;
    missed += snaps[to].missed[i] - m0;
  }
  if (checked == 0) return 0.0;
  const double miss_rate =
      static_cast<double>(missed) / static_cast<double>(checked);
  return miss_rate / (1.0 - objective);
}

/// Scores every stage of `cc` against a finished run under `variant` and
/// appends the scorecards to the current resilience registry. The root
/// node's domain reads `root`.
FleetCampaignResult score(const faults::CampaignConfig& cc,
                          const faults::DomainTree& tree, FleetResult run,
                          std::string variant, const char* root) {
  FleetCampaignResult out;
  out.variant = std::move(variant);
  out.fleet = std::move(run);
  const FleetResult& fleet = out.fleet;
  const auto& snaps = fleet.snaps;

  auto& registry = telemetry::ResilienceRegistry::current();
  for (const auto& stage : cc.stages) {
    const std::vector<std::size_t> affected = tree.rigs_under(stage.node);
    const auto is_affected = [&](const std::string& server) {
      for (std::size_t i : affected) {
        if (server == tree.rig_path(i)) return true;
      }
      return false;
    };
    const double fault_start = stage.fault.start_s;
    const double fault_end = stage.fault.end_s();

    telemetry::ResilienceEntry entry;
    entry.pid = fleet.base_pid;
    entry.campaign = cc.name;
    entry.variant = out.variant;
    entry.stage = stage.name;
    entry.fault_kind = faults::fault_kind_name(stage.fault.kind);
    entry.domain = stage.node.empty() ? root : stage.node;
    entry.fault_start_s = fault_start;
    entry.fault_end_s = fault_end;

    // Detection: the earliest coordinator demotion of an affected rig at
    // or after fault onset. A fleet's health log concatenates its racks'
    // logs, so it is not globally time-sorted — take the minimum.
    for (const auto& tr : fleet.health_log) {
      if (tr.time_s < fault_start || tr.to == rack::RigHealth::kHealthy ||
          !is_affected(tr.server)) {
        continue;
      }
      if (entry.detected_at_s < 0.0 || tr.time_s < entry.detected_at_s) {
        entry.detected_at_s = tr.time_s;
      }
    }

    // Recovery: the first of 3 consecutive post-fault snaps in which every
    // affected rig's governor is nominal and its coordinator holds it
    // healthy (always true while health management is off).
    const auto snap_good = [&](const FleetPeriodSnap& s) {
      for (std::size_t i : affected) {
        if (s.failsafe[i] != 0 || s.health[i] != 0) return false;
      }
      return true;
    };
    constexpr std::size_t kSustain = 3;
    for (std::size_t k = 0; k + kSustain <= snaps.size(); ++k) {
      if (snaps[k].t < fault_end) continue;
      bool good = true;
      for (std::size_t j = 0; j < kSustain; ++j) {
        good &= snap_good(snaps[k + j]);
      }
      if (good) {
        entry.recovered_at_s = snaps[k].t;
        entry.mttr_s = entry.recovered_at_s - fault_end;
        break;
      }
    }

    const int idx_start = snap_at(snaps, fault_start);
    const int idx_end = snap_at(snaps, fault_end);
    const int idx_last = static_cast<int>(snaps.size()) - 1;
    // Burn over every rig, not just the faulted domain: health management
    // and the cascade exist so the other rigs absorb the slack.
    entry.slo_burn_during =
        burn_between(snaps, idx_start, idx_end, fleet.objective);
    entry.slo_burn_after =
        burn_between(snaps, idx_end, idx_last, fleet.objective);

    const double recovery_horizon = entry.recovered_at_s >= 0.0
                                        ? entry.recovered_at_s
                                        : snaps.back().t;
    for (const FleetPeriodSnap& s : snaps) {
      if (s.t <= fault_end || s.t > recovery_horizon) continue;
      const double over = s.fleet_power_w - s.budget_w;
      if (over > entry.recovery_overshoot_w) entry.recovery_overshoot_w = over;
    }
    for (const FleetPeriodSnap& s : snaps) {
      if (s.t < fault_start) continue;
      for (std::size_t i : affected) {
        if (s.failsafe[i] != 0) entry.failsafe_dwell_s += cc.period_s;
      }
    }
    for (std::size_t i : affected) {
      const std::uint64_t e0 =
          idx_start >= 0 ? snaps[idx_start].engagements[i] : 0;
      entry.failsafe_entries += snaps.back().engagements[i] - e0;
    }
    for (const auto& tr : fleet.health_log) {
      if (tr.time_s >= fault_start && is_affected(tr.server)) {
        ++entry.health_transitions;
      }
    }

    out.stages.push_back(entry);
    registry.add(std::move(entry));
  }

  if (fleet.checked > 0) {
    const double miss_rate = static_cast<double>(fleet.missed) /
                             static_cast<double>(fleet.checked);
    out.total_burn = miss_rate / (1.0 - fleet.objective);
  }
  return out;
}

}  // namespace

FleetCampaignResult run_rack_campaign(const faults::CampaignConfig& config,
                                      bool health_managed) {
  const faults::CampaignConfig cc = faults::validated(config);
  faults::DomainTree tree(cc.topology, cc.seed);
  for (const auto& stage : cc.stages) tree.add_fault(stage.node, stage.fault);
  FleetResult run =
      run_rack(fleet_config_of(cc, cc.rack_budget_w, health_managed), tree);
  return score(cc, tree, std::move(run),
               health_managed ? "hardened" : "baseline", "row");
}

FleetCampaignResult run_fleet_campaign(const faults::CampaignConfig& config,
                                       FleetOptions options) {
  const faults::CampaignConfig cc = faults::validated(config);
  FleetSim sim(
      fleet_config_of(
          cc, cc.rack_budget_w * static_cast<double>(cc.topology.total_racks()),
          /*health_managed=*/true),
      options);
  for (const auto& stage : cc.stages) sim.add_fault(stage.node, stage.fault);
  FleetResult run = sim.run();
  return score(cc, sim.tree(), std::move(run), "fleet", "facility");
}

}  // namespace capgpu::fleet
