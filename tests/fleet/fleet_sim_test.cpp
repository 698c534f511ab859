#include "fleet/fleet_sim.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "fleet/campaign.hpp"
#include "telemetry/context.hpp"
#include "telemetry/prometheus.hpp"

namespace capgpu::fleet {
namespace {

FleetConfig small_fleet() {
  FleetConfig fc;
  fc.topology = {2, 2, 2, 2};  // 2 rows x 2 racks x 2 PDUs x 2 rigs = 16
  fc.periods = 4;
  fc.health.enabled = true;
  fc.energy_attribution = true;
  return fc;
}

faults::DomainFault brownout(double start, double duration,
                             double magnitude) {
  faults::DomainFault f;
  f.kind = faults::DomainFaultKind::kBrownout;
  f.start_s = start;
  f.duration_s = duration;
  f.magnitude = magnitude;
  return f;
}

/// Everything shard-layout-independent in one comparable bundle.
struct Observables {
  std::vector<FleetDecisionRecord> decisions;
  std::vector<std::uint64_t> checked;
  std::vector<std::uint64_t> missed;
  std::vector<double> power;
  double images;
  std::uint64_t engagements;

  explicit Observables(const FleetResult& r)
      : decisions(r.decisions), images(r.images),
        engagements(r.failsafe_engagements) {
    for (const auto& s : r.snaps) {
      checked.insert(checked.end(), s.checked.begin(), s.checked.end());
      missed.insert(missed.end(), s.missed.begin(), s.missed.end());
      power.push_back(s.fleet_power_w);
    }
  }

  bool operator==(const Observables& o) const {
    return decisions == o.decisions && checked == o.checked &&
           missed == o.missed && power == o.power && images == o.images &&
           engagements == o.engagements;
  }
};

TEST(FleetSim, ShardedMatchesSerialReferenceBitExactly) {
  const FleetConfig fc = small_fleet();
  const Observables ref(run_serial_reference(fc));

  FleetSim inline_sim(fc, {1, 1});
  const Observables one(inline_sim.run());

  FleetSim sharded(fc, {5, 3});
  const FleetResult sharded_result = sharded.run();
  const Observables many(sharded_result);

  EXPECT_GT(sharded_result.shards, 1u);
  EXPECT_GT(sharded_result.jobs, 1u);
  ASSERT_FALSE(ref.decisions.empty());
  EXPECT_TRUE(ref == one);
  EXPECT_TRUE(ref == many);
}

TEST(FleetSim, TelemetryExportsByteIdenticalAcrossShardLayouts) {
  const FleetConfig fc = small_fleet();

  // Each run under a private parent context so the exports are comparable.
  const auto run_with = [&](std::size_t shards, std::size_t jobs) {
    telemetry::Context parent;
    parent.flight().set_enabled(true);
    struct Exports {
      std::string prometheus;
      std::string flight;
      std::string energy;
    } out;
    {
      telemetry::Context::Binding bind(parent);
      FleetSim sim(fc, {shards, jobs});
      (void)sim.run();
    }
    out.prometheus = telemetry::to_prometheus(parent.metrics());
    std::ostringstream flight;
    parent.flight().write_jsonl(flight);
    out.flight = flight.str();
    std::ostringstream energy;
    telemetry::write_energy_report(parent.energy(), energy);
    out.energy = energy.str();
    return out;
  };

  const auto a = run_with(1, 1);
  const auto b = run_with(8, 4);
  EXPECT_FALSE(a.prometheus.empty());
  EXPECT_FALSE(a.energy.empty());
  EXPECT_EQ(a.prometheus, b.prometheus);
  EXPECT_EQ(a.flight, b.flight);
  EXPECT_EQ(a.energy, b.energy);
}

TEST(FleetSim, RowBrownoutShiftsBudgetAwayFromFaultedRow) {
  FleetConfig fc = small_fleet();
  fc.periods = 6;
  FleetSim sim(fc, {2, 2});
  // Row 1 browns out from the start of epoch 1 through the run.
  sim.add_fault("row1", brownout(0.0, 100.0, 0.5));
  const FleetResult r = sim.run();
  ASSERT_FALSE(r.decisions.empty());
  const CascadeDecision& d = r.decisions.front().tiers;
  ASSERT_EQ(d.row_w.size(), 2u);
  EXPECT_LT(d.row_w[1], d.row_w[0]);
}

TEST(FleetSim, RunIsSingleUse) {
  FleetSim sim(small_fleet(), {1, 1});
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), InvalidArgument);
  EXPECT_THROW(sim.add_fault("", brownout(0.0, 1.0, 0.1)), InvalidArgument);
}

TEST(FleetSim, ValidationThrows) {
  FleetConfig fc = small_fleet();
  fc.periods = 0;
  EXPECT_THROW((void)validated(fc), InvalidArgument);
  fc = small_fleet();
  fc.rig_bounds = {0.0, 650.0};
  EXPECT_THROW((void)validated(fc), InvalidArgument);
  fc = small_fleet();
  fc.rebalance_every = 0;
  EXPECT_THROW((void)validated(fc), InvalidArgument);
  fc = small_fleet();
  fc.offered_load = 1.5;
  EXPECT_THROW((void)validated(fc), InvalidArgument);
}

TEST(FleetSim, DefaultFacilityBudgetScalesWithTopology) {
  FleetConfig fc = small_fleet();
  fc.facility_budget_w = 0.0;
  const FleetConfig v = validated(fc);
  EXPECT_DOUBLE_EQ(v.facility_budget_w, 16 * 560.0);
}

TEST(FleetCampaign, ScoresStagesUnderFleetVariant) {
  faults::CampaignConfig cc;
  cc.name = "fleet_unit";
  cc.topology = {2, 2, 2, 2};
  cc.rack_budget_w = 4 * 560.0;
  cc.periods = 10;
  cc.period_s = 4.0;
  cc.slo_s = 0.45;
  faults::CampaignStage stage;
  stage.name = "row_pdu_brownout";
  stage.node = "row1/rack0/pdu0";
  stage.fault = brownout(8.0, 12.0, 0.6);
  cc.stages.push_back(stage);

  telemetry::Context parent;
  telemetry::Context::Binding bind(parent);
  const FleetCampaignResult r = run_fleet_campaign(cc, {4, 2});
  ASSERT_EQ(r.stages.size(), 1u);
  EXPECT_EQ(r.stages[0].variant, "fleet");
  EXPECT_EQ(r.stages[0].domain, "row1/rack0/pdu0");
  EXPECT_EQ(parent.resilience().entries().size(), 1u);
  EXPECT_GE(r.total_burn, 0.0);
  EXPECT_EQ(r.fleet.rigs, 16u);
}

TEST(RackCampaign, HardenedDetectsRecoversAndBurnsLessThanBaseline) {
  // A short run of the reference PDU brownout: two of four rigs go dark
  // for a minute while the rack budget sags 12%, then the whole row's
  // budget is slashed for 20 s (a root-node stage).
  faults::CampaignConfig cc;
  cc.name = "rack_unit";
  cc.seed = 3405691582ULL;
  cc.topology = {1, 2, 2};
  cc.rack_budget_w = 2400.0;
  cc.periods = 40;
  cc.period_s = 4.0;
  cc.slo_s = 0.45;
  cc.health.stale_report_s = 12.0;
  cc.health.dead_after_s = 60.0;
  cc.health.residual_anomaly_watts = 150.0;
  cc.health.reintegrate_rebalances = 3;
  faults::CampaignStage brownout_stage;
  brownout_stage.name = "pdu_brownout";
  brownout_stage.node = "rack0/pdu0";
  brownout_stage.fault = brownout(24.0, 60.0, 0.12);
  cc.stages.push_back(brownout_stage);
  faults::CampaignStage slash_stage;
  slash_stage.name = "row_slash";
  slash_stage.fault.kind = faults::DomainFaultKind::kBudgetSlash;
  slash_stage.fault.start_s = 100.0;
  slash_stage.fault.duration_s = 20.0;
  slash_stage.fault.magnitude = 0.1;
  cc.stages.push_back(slash_stage);

  telemetry::Context parent;
  telemetry::Context::Binding bind(parent);
  const FleetCampaignResult baseline = run_rack_campaign(cc, false);
  const FleetCampaignResult hardened = run_rack_campaign(cc, true);

  EXPECT_EQ(baseline.variant, "baseline");
  EXPECT_EQ(hardened.variant, "hardened");
  EXPECT_EQ(hardened.fleet.rigs, 4u);
  ASSERT_EQ(baseline.stages.size(), 2u);
  ASSERT_EQ(hardened.stages.size(), 2u);
  EXPECT_LT(baseline.stages[0].detected_at_s, 0.0);
  EXPECT_TRUE(baseline.fleet.health_log.empty());
  EXPECT_GE(hardened.stages[0].detected_at_s, 24.0);
  EXPECT_GE(hardened.stages[0].mttr_s, 0.0);
  EXPECT_LT(hardened.total_burn, baseline.total_burn);

  const auto& entries = parent.resilience().entries();
  ASSERT_EQ(entries.size(), 4u);
  const char* variants[] = {"baseline", "baseline", "hardened", "hardened"};
  const char* domains[] = {"rack0/pdu0", "row", "rack0/pdu0", "row"};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].campaign, "rack_unit");
    EXPECT_EQ(entries[i].variant, variants[i]);
    EXPECT_EQ(entries[i].domain, domains[i]);
  }
}

}  // namespace
}  // namespace capgpu::fleet
