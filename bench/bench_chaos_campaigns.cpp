// Extension bench: scored chaos campaigns over a fault-domain tree.
//
// The reference campaign browns out one PDU of a 2-PDU rack (4 single-GPU
// CapGPU rigs, saturated resnet50 serving): the two rigs on the sagged
// feed lose their power meters for two minutes while the deliverable rack
// budget drops 12%. The campaign runs twice through
// fleet::run_rack_campaign — coordinator rig-health management off
// ("baseline") and on ("hardened"); both variants run
// hardened control loops, so the delta isolates the rack layer. The
// hardened coordinator detects the dark rigs via its watchdogs,
// quarantines them at their minimum budget, and drains the freed watts
// toward the healthy rigs whose SLOs are burning — so it must finish with
// strictly less total SLO error-budget burned. Each stage's scorecard
// (detection latency, MTTR, burn split, fail-safe dwell) is pushed to the
// resilience registry; --resilience-out renders it for
// scripts/check_resilience.sh and tools/capgpu_report.
//
// A second, fleet-scale campaign then browns out one row-PDU feed of a
// 256-rig fleet (fleet::run_fleet_campaign over a FleetSim: 2 rows x 4
// racks x 8 PDUs x 4 rigs, hierarchical budget cascade on top of the same
// rack coordinators). Its scorecard lands under variant "fleet" — distinct
// from baseline/hardened so the A/B extraction above stays unambiguous —
// and is byte-identical for any --shards/--jobs combination (--shards
// overrides the fleet shard count; scripts/check_fleet.sh compares 1 vs
// 8).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "faults/campaign.hpp"
#include "fleet/campaign.hpp"
#include "runner/scenario_runner.hpp"
#include "telemetry/table.hpp"

using namespace capgpu;

namespace {

// Kept in sync with the schema in docs/fault_model.md.
constexpr const char* kReferenceCampaign = R"({
  "name": "pdu0_brownout",
  "seed": 3405691582,
  "topology": {"racks": 1, "pdus_per_rack": 2, "rigs_per_pdu": 2},
  "rack_budget_w": 2400,
  "periods": 150,
  "period_s": 4.0,
  "rebalance_every": 2,
  "offered_load": 0.0,
  "slo_s": 0.45,
  "bounds": {"min_w": 500, "max_w": 650},
  "health": {
    "stale_report_s": 12.0,
    "dead_after_s": 60.0,
    "residual_anomaly_watts": 150.0,
    "reintegrate_rebalances": 3
  },
  "stages": [
    {
      "name": "pdu_brownout",
      "node": "rack0/pdu0",
      "fault": {
        "kind": "brownout",
        "start_s": 200.0,
        "duration_s": 120.0,
        "magnitude": 0.12
      }
    }
  ]
})";

// The fleet-scale campaign: one row-PDU feed of a 256-rig fleet sags 30%
// for 40 s, darkening its four rigs' meters. rack_budget_w is the
// per-rack share (32 rigs x 560 W); the facility budget is 8x that.
constexpr const char* kFleetCampaign = R"({
  "name": "fleet_row_pdu_brownout",
  "seed": 3405691582,
  "topology": {"rows": 2, "racks": 4, "pdus_per_rack": 8, "rigs_per_pdu": 4},
  "rack_budget_w": 17920,
  "periods": 30,
  "period_s": 4.0,
  "rebalance_every": 2,
  "offered_load": 0.0,
  "slo_s": 0.45,
  "bounds": {"min_w": 500, "max_w": 650},
  "health": {
    "stale_report_s": 12.0,
    "dead_after_s": 60.0,
    "residual_anomaly_watts": 150.0,
    "reintegrate_rebalances": 3
  },
  "stages": [
    {
      "name": "row_pdu_brownout",
      "node": "row1/rack2/pdu5",
      "fault": {
        "kind": "brownout",
        "start_s": 24.0,
        "duration_s": 40.0,
        "magnitude": 0.3
      }
    }
  ]
})";

// The file named by a `--campaign <path>` flag (bench::init leaves unknown
// flags in argv), or nullptr for the embedded reference campaign.
const char* campaign_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--campaign") return argv[i + 1];
  }
  return nullptr;
}

// Returns the campaign JSON: the embedded reference, or the file's text.
std::string campaign_text(const char* path) {
  if (path == nullptr) return kReferenceCampaign;
  std::ifstream in(path);
  if (!in.good()) throw InvalidArgument("cannot read the campaign file");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  capgpu::bench::init(argc, argv);
  std::size_t fleet_shards = 0;  // 0 = FleetSim's default shard count
  try {
    const auto flags = extract_flags(argc, argv, {"shards"});
    if (auto it = flags.find("shards"); it != flags.end())
      fleet_shards = static_cast<std::size_t>(std::stoul(it->second));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  bench::print_banner(
      "Extension: chaos campaigns over correlated fault domains",
      "rig health management under a PDU brownout");

  // A rejected document (malformed JSON, nesting past the parser's limit,
  // a negative or fractional count, an out-of-domain number) is a usage
  // error, like a bad flag.
  faults::CampaignConfig cfg;
  const char* const path = campaign_path(argc, argv);
  try {
    cfg = faults::parse_campaign(campaign_text(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0],
                 path != nullptr ? path : "reference campaign", e.what());
    return 2;
  }
  std::printf(
      "campaign '%s': %zu rigs (%zux%zux%zu), %.0f W rack budget, "
      "%zu periods x %.0f s\n",
      cfg.name.c_str(), cfg.topology.total_rigs(), cfg.topology.racks,
      cfg.topology.pdus_per_rack, cfg.topology.rigs_per_pdu,
      cfg.rack_budget_w, cfg.periods, cfg.period_s);

  // Scenario 0 = health management off, 1 = on; the runner merges
  // telemetry (and the resilience entries) in scenario order, so the
  // scorecard is byte-identical for any --jobs count.
  runner::ScenarioRunner sr({bench::jobs()});
  const std::vector<fleet::FleetCampaignResult> outcomes =
      sr.map(2, [&](std::size_t idx) {
        return fleet::run_rack_campaign(cfg, /*health_managed=*/idx == 1);
      });

  telemetry::Table t("campaign '" + cfg.name + "': baseline vs hardened");
  t.set_header({"Variant", "rack W", "images", "burn", "fs entries",
                "health transitions"});
  for (const auto& o : outcomes) {
    t.add_row(
        {o.variant, telemetry::fmt(o.fleet.mean_power_w, 1),
         telemetry::fmt(o.fleet.images, 0), telemetry::fmt(o.total_burn, 4),
         telemetry::fmt(static_cast<double>(o.fleet.failsafe_engagements), 0),
         telemetry::fmt(static_cast<double>(o.fleet.health_log.size()), 0)});
  }
  t.print();

  // Fleet-scale campaign: same scoring rules, one level up the hierarchy.
  // Runs on the caller's thread (FleetSim shards internally); its entries
  // join the same resilience registry the A/B above filled.
  const faults::CampaignConfig fleet_cfg =
      faults::parse_campaign(kFleetCampaign);
  std::printf(
      "campaign '%s': %zu rigs (%zu rows x %zux%zux%zu), %.0f W facility "
      "budget, %zu periods x %.0f s\n",
      fleet_cfg.name.c_str(), fleet_cfg.topology.total_rigs(),
      fleet_cfg.topology.rows, fleet_cfg.topology.racks,
      fleet_cfg.topology.pdus_per_rack, fleet_cfg.topology.rigs_per_pdu,
      fleet_cfg.rack_budget_w *
          static_cast<double>(fleet_cfg.topology.total_racks()),
      fleet_cfg.periods, fleet_cfg.period_s);
  const fleet::FleetCampaignResult fleet_outcome =
      fleet::run_fleet_campaign(fleet_cfg, {fleet_shards, bench::jobs()});

  telemetry::Table st("per-stage resilience scorecard");
  st.set_header({"Variant", "Stage", "detect s", "MTTR s", "burn during",
                 "burn after", "overshoot W", "fs dwell s"});
  const auto scorecard_row = [&st](const std::string& variant,
                                   const telemetry::ResilienceEntry& e) {
    st.add_row({variant, e.stage, telemetry::fmt(e.detected_at_s, 1),
                telemetry::fmt(e.mttr_s, 1),
                telemetry::fmt(e.slo_burn_during, 4),
                telemetry::fmt(e.slo_burn_after, 4),
                telemetry::fmt(e.recovery_overshoot_w, 1),
                telemetry::fmt(e.failsafe_dwell_s, 1)});
  };
  for (const auto& o : outcomes) {
    for (const auto& e : o.stages) scorecard_row(o.variant, e);
  }
  for (const auto& e : fleet_outcome.stages) scorecard_row(e.variant, e);
  st.print();

  const auto& baseline = outcomes[0];
  const auto& hardened = outcomes[1];
  std::printf("\nShape checks:\n");
  std::printf("  hardened burns strictly less error budget:  %s\n",
              hardened.total_burn < baseline.total_burn ? "PASS" : "FAIL");
  std::printf("  hardened coordinator detected the fault:    %s\n",
              (!hardened.stages.empty() &&
               hardened.stages[0].detected_at_s >= 0.0)
                  ? "PASS"
                  : "FAIL");
  std::printf("  baseline (health off) never detected it:    %s\n",
              (!baseline.stages.empty() &&
               baseline.stages[0].detected_at_s < 0.0)
                  ? "PASS"
                  : "FAIL");
  std::printf("  hardened recovered after the fault cleared: %s\n",
              (!hardened.stages.empty() && hardened.stages[0].mttr_s >= 0.0)
                  ? "PASS"
                  : "FAIL");
  std::printf("  fleet campaign detected the row-PDU fault:  %s\n",
              (!fleet_outcome.stages.empty() &&
               fleet_outcome.stages[0].detected_at_s >= 0.0)
                  ? "PASS"
                  : "FAIL");
  std::printf("  fleet recovered after the fault cleared:    %s\n",
              (!fleet_outcome.stages.empty() &&
               fleet_outcome.stages[0].mttr_s >= 0.0)
                  ? "PASS"
                  : "FAIL");
  return 0;
}
