#include "telemetry/slo.hpp"

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

SloBurnMonitor::SloBurnMonitor(SloBurnConfig config) : config_(config) {
  CAPGPU_REQUIRE(config.objective > 0.0 && config.objective < 1.0,
                 "SLO objective must be in (0, 1)");
  CAPGPU_REQUIRE(config.fast_window_s > 0.0 &&
                     config.slow_window_s >= config.fast_window_s,
                 "burn windows must be positive with slow >= fast");
  CAPGPU_REQUIRE(config.burn_threshold > 0.0,
                 "burn threshold must be positive");
  CAPGPU_REQUIRE(config.clear_fraction > 0.0 && config.clear_fraction <= 1.0,
                 "clear fraction must be in (0, 1]");
}

double SloBurnMonitor::burn(std::uint64_t checked,
                            std::uint64_t missed) const {
  if (checked == 0) return 0.0;
  const double miss_rate =
      static_cast<double>(missed) / static_cast<double>(checked);
  return miss_rate / (1.0 - config_.objective);
}

SloBurnMonitor::Transition SloBurnMonitor::record(double now,
                                                  std::uint64_t checked,
                                                  std::uint64_t missed) {
  if (!config_.enabled) return Transition::kNone;
  CAPGPU_REQUIRE(missed <= checked, "missed cannot exceed checked");
  CAPGPU_REQUIRE(samples_.empty() || now >= samples_.back().time,
                 "SLO samples must not go back in time");
  samples_.push_back({now, checked, missed});
  fast_checked_ += checked;
  fast_missed_ += missed;
  slow_checked_ += checked;
  slow_missed_ += missed;
  // Age samples out of the fast window first: one at or before the slow
  // cutoff is also at or before the fast one, so the cursor has passed it
  // by the time the slow window pops it.
  const double fast_cutoff = now - config_.fast_window_s;
  while (fast_begin_ < samples_.size() &&
         samples_[fast_begin_].time <= fast_cutoff) {
    fast_checked_ -= samples_[fast_begin_].checked;
    fast_missed_ -= samples_[fast_begin_].missed;
    ++fast_begin_;
  }
  const double slow_cutoff = now - config_.slow_window_s;
  while (!samples_.empty() && samples_.front().time <= slow_cutoff) {
    slow_checked_ -= samples_.front().checked;
    slow_missed_ -= samples_.front().missed;
    samples_.pop_front();
    --fast_begin_;
  }
  checked_total_ += checked;
  missed_total_ += missed;
  fast_burn_ = burn(fast_checked_, fast_missed_);
  slow_burn_ = burn(slow_checked_, slow_missed_);

  // A tiny epsilon keeps ">= threshold" robust against the float division
  // in burn(): a burn landing exactly on the threshold must fire.
  const double eps = 1e-9 * config_.burn_threshold;
  if (!alerting_) {
    if (fast_burn_ >= config_.burn_threshold - eps &&
        slow_burn_ >= config_.burn_threshold - eps) {
      alerting_ = true;
      ++alerts_fired_;
      return Transition::kFired;
    }
  } else {
    const double clear_level = config_.burn_threshold * config_.clear_fraction;
    if (fast_burn_ < clear_level && slow_burn_ < clear_level) {
      alerting_ = false;
      return Transition::kCleared;
    }
  }
  return Transition::kNone;
}

double SloBurnMonitor::budget_consumed() const {
  if (checked_total_ == 0) return 0.0;
  const double miss_rate = static_cast<double>(missed_total_) /
                           static_cast<double>(checked_total_);
  return miss_rate / (1.0 - config_.objective);
}

void SloRegistry::add(SloEntry entry) { entries_.push_back(std::move(entry)); }

void SloRegistry::merge_from(const SloRegistry& other, int pid_offset) {
  append_shifted(entries_, other.entries_, pid_offset);
}

namespace {

void write_quantile_entry(std::ostream& out, const std::string& model,
                          const std::string& stage, const QuantileSketch& s,
                          bool& first) {
  out << (first ? "\n    " : ",\n    ");
  first = false;
  out << "{\"model\":\"" << json::escape(model) << "\",\"stage\":\""
      << json::escape(stage) << "\",\"relative_error\":"
      << json::render_number(s.spec().relative_error)
      << ",\"count\":" << s.count();
  static constexpr const char* kQuantileKeys[kSummaryQuantileCount] = {
      "p50", "p95", "p99", "p999"};
  for (std::size_t q = 0; q < kSummaryQuantileCount; ++q) {
    out << ",\"" << kQuantileKeys[q]
        << "\":" << json::render_number(s.quantile(kSummaryQuantiles[q]));
  }
  const double mean =
      s.count() ? s.sum() / static_cast<double>(s.count()) : 0.0;
  out << ",\"mean\":" << json::render_number(mean)
      << ",\"max\":" << json::render_number(s.max()) << '}';
}

std::string label_value(const Labels& labels, const std::string& key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return "";
}

}  // namespace

void write_slo_report(const SloRegistry& slo, const MetricsRegistry& metrics,
                      std::ostream& out) {
  out << "{\n  \"entries\": [";
  bool first = true;
  for (const SloEntry& e : slo.entries()) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << "{\"pid\":" << e.pid << ",\"policy\":\"" << json::escape(e.policy)
        << "\",\"model\":\"" << json::escape(e.model)
        << "\",\"objective\":" << json::render_number(e.objective)
        << ",\"slo_seconds\":" << json::render_number(e.slo_seconds)
        << ",\"checked\":" << e.checked << ",\"missed\":" << e.missed
        << ",\"budget_consumed\":" << json::render_number(e.budget_consumed)
        << ",\"fast_burn\":" << json::render_number(e.final_fast_burn)
        << ",\"slow_burn\":" << json::render_number(e.final_slow_burn)
        << ",\"alerts\":" << e.alerts << ",\"episodes\":[";
    for (std::size_t i = 0; i < e.episodes.size(); ++i) {
      const SloAlertEpisode& ep = e.episodes[i];
      if (i) out << ',';
      out << "{\"fired_at_s\":" << json::render_number(ep.fired_at_s)
          << ",\"cleared_at_s\":"
          << json::render_number(ep.cleared ? ep.cleared_at_s : 0.0)
          << ",\"cleared\":" << (ep.cleared ? "true" : "false") << '}';
    }
    out << "]}";
  }
  out << "\n  ],\n  \"stage_quantiles\": [";

  first = true;
  for (const auto* family : metrics.families()) {
    const bool is_stage = family->name == metric::kStageLatencySeconds;
    const bool is_total = family->name == metric::kRequestLatencySeconds;
    if (!is_stage && !is_total) continue;
    for (const auto& [key, inst] : family->series) {
      (void)key;
      if (!inst->sketch) continue;
      write_quantile_entry(out, label_value(inst->labels, "model"),
                           is_stage ? label_value(inst->labels, "stage")
                                    : "total",
                           *inst->sketch, first);
    }
  }
  out << "\n  ]\n}\n";
}

std::string to_slo_report(const SloRegistry& slo,
                          const MetricsRegistry& metrics) {
  std::ostringstream out;
  write_slo_report(slo, metrics, out);
  return out.str();
}

void save_slo_report(const SloRegistry& slo, const MetricsRegistry& metrics,
                     const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot write SLO report file: " + path);
  write_slo_report(slo, metrics, out);
}

}  // namespace capgpu::telemetry
