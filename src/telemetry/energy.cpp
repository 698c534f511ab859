#include "telemetry/energy.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "telemetry/context.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sketch.hpp"

namespace capgpu::telemetry {

EnergyLedger::EnergyLedger(std::string policy, int pid, std::size_t gpus,
                           std::vector<std::string> model_names)
    : policy_(std::move(policy)),
      pid_(pid),
      gpus_(gpus),
      model_names_(std::move(model_names)) {
  CAPGPU_REQUIRE(gpus_ > 0, "energy ledger needs at least one GPU slot");
  auto& registry = MetricsRegistry::current();
  stage_counters_.resize(model_names_.size());
  request_sketches_.resize(model_names_.size());
  period_batches_.resize(model_names_.size());
  for (std::size_t i = 0; i < model_names_.size(); ++i) {
    for (std::size_t s = 0; s < kEnergyStageCount; ++s) {
      stage_counters_[i][s] = &registry.counter(
          metric::kEnergyJoules,
          "Metered energy attributed to requests, by pipeline stage",
          {{"model", model_names_[i]}, {"stage", kEnergyStageNames[s]}});
    }
    request_sketches_[i] = &registry.sketch(
        metric::kRequestEnergyJoules,
        "Per-request attributed energy", {{"model", model_names_[i]}});
  }
  idle_counter_ = &registry.counter(
      metric::kEnergyIdleJoules,
      "Metered energy not attributable to batch execution (idle GPU time)",
      {});
}

void EnergyLedger::begin_period(double cap_watts, double avg_power_watts,
                                double period_s) {
  CAPGPU_REQUIRE(!period_open_, "energy period already open");
  CAPGPU_REQUIRE(period_s > 0.0, "energy period length must be positive");
  period_open_ = true;
  period_s_ = period_s;
  period_energy_j_ = avg_power_watts * period_s;
  const auto key = static_cast<long long>(std::llround(cap_watts * 10.0));
  CapAccum& cap = caps_[key];
  if (cap.periods == 0) {
    cap.cap_watts = cap_watts;
    cap.models.resize(model_names_.size());
  }
  period_cap_ = &cap;
}

void EnergyLedger::add_batches(std::size_t stream, const EnergyBatch* batches,
                               std::size_t count) {
  CAPGPU_REQUIRE(period_open_, "add_batches outside an open energy period");
  CAPGPU_REQUIRE(stream < period_batches_.size(),
                 "energy ledger stream index out of range");
  period_batches_[stream].insert(period_batches_[stream].end(), batches,
                                 batches + count);
}

void EnergyLedger::end_period() {
  CAPGPU_REQUIRE(period_open_, "end_period without begin_period");
  period_open_ = false;
  CapAccum& cap = *period_cap_;
  ++cap.periods;
  cap.total_joules += period_energy_j_;
  total_joules_ += period_energy_j_;

  // GPU-seconds the period's batches actually occupied; the duty cycle
  // caps at 1 (a batch straddling the period boundary is attributed
  // wholly to its completion period, so busy_s can slightly exceed the
  // period's capacity).
  double busy_s = 0.0;
  for (const auto& batches : period_batches_) {
    for (const EnergyBatch& b : batches) busy_s += b.end_s - b.start_s;
  }
  const double capacity_s = static_cast<double>(gpus_) * period_s_;
  const double duty = busy_s > 0.0 ? std::min(1.0, busy_s / capacity_s) : 0.0;
  const double active_j = period_energy_j_ * duty;
  const double idle_j = period_energy_j_ - active_j;
  cap.active_joules += active_j;
  cap.idle_joules += idle_j;
  idle_counter_->inc(idle_j);

  for (std::size_t i = 0; i < period_batches_.size(); ++i) {
    auto& batches = period_batches_[i];
    if (batches.empty()) continue;
    ModelAccum& model = cap.models[i];
    for (const EnergyBatch& b : batches) {
      // Active energy apportioned by GPU-exec occupancy share; within the
      // batch, stages split by summed request residency.
      const double batch_j = active_j * ((b.end_s - b.start_s) / busy_s);
      double residency_s = 0.0;
      for (double s : b.stage_s) residency_s += s;
      model.energy_joules += batch_j;
      model.requests += b.images;
      ++model.batches;
      cap.requests += b.images;
      ++cap.batches;
      for (std::size_t s = 0; s < kEnergyStageCount; ++s) {
        const double stage_j =
            residency_s > 0.0 ? batch_j * (b.stage_s[s] / residency_s) : 0.0;
        model.stage_joules[s] += stage_j;
        stage_counters_[i][s]->inc(stage_j);
      }
      if (b.images > 0) {
        request_sketches_[i]->observe_many(
            batch_j / static_cast<double>(b.images), b.images);
      }
    }
    batches.clear();
  }
  period_cap_ = nullptr;
}

void EnergyLedger::finalize(EnergyRegistry& registry) const {
  CAPGPU_REQUIRE(!period_open_, "finalize with an open energy period");
  for (const auto& [key, cap] : caps_) {
    (void)key;
    EnergyCapSummary summary;
    summary.pid = pid_;
    summary.policy = policy_;
    summary.cap_watts = cap.cap_watts;
    summary.periods = cap.periods;
    summary.total_joules = cap.total_joules;
    summary.active_joules = cap.active_joules;
    summary.idle_joules = cap.idle_joules;
    summary.requests = cap.requests;
    summary.batches = cap.batches;
    registry.add_cap(std::move(summary));
    for (std::size_t i = 0; i < cap.models.size(); ++i) {
      const ModelAccum& model = cap.models[i];
      if (model.batches == 0) continue;
      EnergyEntry entry;
      entry.pid = pid_;
      entry.policy = policy_;
      entry.model = model_names_[i];
      entry.cap_watts = cap.cap_watts;
      entry.energy_joules = model.energy_joules;
      entry.stage_joules = model.stage_joules;
      entry.requests = model.requests;
      entry.batches = model.batches;
      registry.add_entry(std::move(entry));
    }
  }
}

void EnergyRegistry::add_entry(EnergyEntry entry) {
  entries_.push_back(std::move(entry));
}

void EnergyRegistry::add_cap(EnergyCapSummary cap) {
  caps_.push_back(std::move(cap));
}

void EnergyRegistry::merge_from(const EnergyRegistry& other, int pid_offset) {
  append_shifted(entries_, other.entries_, pid_offset);
  append_shifted(caps_, other.caps_, pid_offset);
}

namespace {

/// Stage with the largest attributed joules across every entry matching
/// the cap summary (same pid + cap bucket); "" when nothing attributed.
std::string dominant_stage(const EnergyRegistry& energy,
                           const EnergyCapSummary& cap) {
  std::array<double, kEnergyStageCount> totals{};
  const auto key = std::llround(cap.cap_watts * 10.0);
  for (const EnergyEntry& e : energy.entries()) {
    if (e.pid != cap.pid || std::llround(e.cap_watts * 10.0) != key) continue;
    for (std::size_t s = 0; s < kEnergyStageCount; ++s) {
      totals[s] += e.stage_joules[s];
    }
  }
  std::size_t best = 0;
  double best_j = 0.0;
  for (std::size_t s = 0; s < kEnergyStageCount; ++s) {
    if (totals[s] > best_j) {
      best_j = totals[s];
      best = s;
    }
  }
  return best_j > 0.0 ? kEnergyStageNames[best] : "";
}

}  // namespace

void write_energy_report(const EnergyRegistry& energy, std::ostream& out) {
  out << "{\n  \"entries\": [";
  bool first = true;
  for (const EnergyEntry& e : energy.entries()) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    const double jpr =
        e.requests ? e.energy_joules / static_cast<double>(e.requests) : 0.0;
    out << "{\"pid\":" << e.pid << ",\"policy\":\"" << json::escape(e.policy)
        << "\",\"model\":\"" << json::escape(e.model)
        << "\",\"cap_watts\":" << json::render_number(e.cap_watts)
        << ",\"energy_joules\":" << json::render_number(e.energy_joules)
        << ",\"stage_joules\":{";
    for (std::size_t s = 0; s < kEnergyStageCount; ++s) {
      out << (s ? "," : "") << '"' << kEnergyStageNames[s]
          << "\":" << json::render_number(e.stage_joules[s]);
    }
    out << "},\"requests\":" << e.requests << ",\"batches\":" << e.batches
        << ",\"joules_per_request\":" << json::render_number(jpr) << '}';
  }
  out << "\n  ],\n  \"caps\": [";
  first = true;
  for (const EnergyCapSummary& c : energy.caps()) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    const double jpr =
        c.requests ? c.total_joules / static_cast<double>(c.requests) : 0.0;
    const double rpkj =
        c.total_joules > 0.0
            ? static_cast<double>(c.requests) / (c.total_joules / 1e3)
            : 0.0;
    const double idle_frac =
        c.total_joules > 0.0 ? c.idle_joules / c.total_joules : 0.0;
    out << "{\"pid\":" << c.pid << ",\"policy\":\"" << json::escape(c.policy)
        << "\",\"cap_watts\":" << json::render_number(c.cap_watts)
        << ",\"periods\":" << c.periods
        << ",\"total_joules\":" << json::render_number(c.total_joules)
        << ",\"active_joules\":" << json::render_number(c.active_joules)
        << ",\"idle_joules\":" << json::render_number(c.idle_joules)
        << ",\"idle_fraction\":" << json::render_number(idle_frac)
        << ",\"requests\":" << c.requests << ",\"batches\":" << c.batches
        << ",\"joules_per_request\":" << json::render_number(jpr)
        << ",\"requests_per_kilojoule\":" << json::render_number(rpkj)
        << ",\"dominant_stage\":\""
        << json::escape(dominant_stage(energy, c)) << "\"}";
  }
  out << "\n  ]\n}\n";
}

std::string to_energy_report(const EnergyRegistry& energy) {
  std::ostringstream out;
  write_energy_report(energy, out);
  return out.str();
}

void save_energy_report(const EnergyRegistry& energy,
                        const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot write energy report file: " + path);
  write_energy_report(energy, out);
}

}  // namespace capgpu::telemetry
