#include "faults/campaign.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace capgpu::faults {

namespace {

DomainFault parse_fault(const json::Value& v) {
  DomainFault fault;
  fault.kind = fault_kind_from(v.string_or("kind", "brownout"));
  fault.start_s = v.number_or("start_s", 0.0);
  fault.duration_s = v.number_or("duration_s", 0.0);
  fault.magnitude = v.number_or("magnitude", fault.magnitude);
  return fault;
}

/// Member `key` of `v` as a count (a non-negative integer), `fallback`
/// when absent.
std::size_t count_at(const json::Value& v, const char* key,
                     std::size_t fallback) {
  return static_cast<std::size_t>(v.integer_or(
      key, static_cast<long long>(fallback), 0, json::kMaxExactInteger));
}

}  // namespace

CampaignConfig parse_campaign(const std::string& json_text) {
  const json::Value doc = json::parse(json_text);
  CAPGPU_REQUIRE(doc.is_object(), "campaign document must be a JSON object");
  CampaignConfig cfg;
  cfg.name = doc.string_or("name", cfg.name);
  cfg.seed = count_at(doc, "seed", cfg.seed);
  if (doc.contains("topology")) {
    const json::Value& t = doc.at("topology");
    cfg.topology.rows = count_at(t, "rows", 1);
    cfg.topology.racks = count_at(t, "racks", 1);
    cfg.topology.pdus_per_rack = count_at(t, "pdus_per_rack", 2);
    cfg.topology.rigs_per_pdu = count_at(t, "rigs_per_pdu", 2);
  }
  cfg.rack_budget_w = doc.number_or("rack_budget_w", cfg.rack_budget_w);
  cfg.periods = count_at(doc, "periods", cfg.periods);
  cfg.period_s = doc.number_or("period_s", cfg.period_s);
  cfg.rebalance_every = count_at(doc, "rebalance_every", cfg.rebalance_every);
  cfg.offered_load = doc.number_or("offered_load", cfg.offered_load);
  cfg.slo_s = doc.number_or("slo_s", cfg.slo_s);
  if (doc.contains("bounds")) {
    const json::Value& b = doc.at("bounds");
    cfg.bounds.min = b.number_or("min_w", cfg.bounds.min);
    cfg.bounds.max = b.number_or("max_w", cfg.bounds.max);
  }
  if (doc.contains("health")) {
    const json::Value& h = doc.at("health");
    cfg.health.stale_report_s =
        h.number_or("stale_report_s", cfg.health.stale_report_s);
    cfg.health.dead_after_s =
        h.number_or("dead_after_s", cfg.health.dead_after_s);
    cfg.health.residual_anomaly_watts = h.number_or(
        "residual_anomaly_watts", cfg.health.residual_anomaly_watts);
    cfg.health.reintegrate_rebalances = count_at(
        h, "reintegrate_rebalances", cfg.health.reintegrate_rebalances);
  }
  if (doc.contains("stages")) {
    for (const json::Value& s : doc.at("stages").as_array()) {
      CAPGPU_REQUIRE(s.is_object(), "each stage must be a JSON object");
      CampaignStage stage;
      stage.node = s.string_or("node", "");
      stage.fault = parse_fault(s.at("fault"));
      stage.name = s.string_or("name", fault_kind_name(stage.fault.kind));
      cfg.stages.push_back(std::move(stage));
    }
  }
  return validated(std::move(cfg));
}

CampaignConfig validated(CampaignConfig config) {
  config.topology = validated(config.topology);
  CAPGPU_REQUIRE(config.rack_budget_w > 0.0,
                 "rack_budget_w must be positive");
  CAPGPU_REQUIRE(config.periods > 0, "periods must be positive");
  CAPGPU_REQUIRE(config.period_s > 0.0, "period_s must be positive");
  CAPGPU_REQUIRE(config.rebalance_every >= 1,
                 "rebalance_every must be >= 1");
  CAPGPU_REQUIRE(config.offered_load >= 0.0 && config.offered_load <= 1.0,
                 "offered_load must be in [0, 1]");
  CAPGPU_REQUIRE(config.slo_s > 0.0, "slo_s must be positive");
  CAPGPU_REQUIRE(
      config.bounds.min > 0.0 && config.bounds.max >= config.bounds.min,
      "bounds must satisfy 0 < min_w <= max_w");
  // Validates the stage nodes and fault shapes (and, as a side effect,
  // the health knobs once health management is enabled).
  DomainTree tree(config.topology, config.seed);
  for (const auto& stage : config.stages) {
    tree.add_fault(stage.node, stage.fault);
  }
  rack::RigHealthConfig health = config.health;
  health.enabled = true;
  (void)rack::validated(health);
  return config;
}

}  // namespace capgpu::faults
