#include "common.hpp"

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "runner/scenario_runner.hpp"
#include "runner/thread_pool.hpp"
#include "telemetry/context.hpp"
#include "telemetry/csv.hpp"
#include "telemetry/energy.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/resilience.hpp"
#include "telemetry/sketch.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/table.hpp"
#include "telemetry/trace.hpp"
#include "workload/request_timeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

namespace capgpu::bench {

namespace {

struct ObservabilityOutputs {
  std::optional<std::string> metrics_path;
  std::optional<std::string> trace_path;
  std::optional<std::string> events_path;
  std::optional<std::string> summary_path;
  std::optional<std::string> slo_report_path;
  std::optional<std::string> flight_path;
  std::optional<std::string> resilience_path;
  std::optional<std::string> energy_path;
  std::chrono::steady_clock::time_point started;
};

ObservabilityOutputs& outputs() {
  static ObservabilityOutputs out;
  return out;
}

// Numbers keep the spellings they have always had: %.10g (the stream's
// default float format at precision 10) and %.3f for the wall time.
void write_summary(const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw Error("cannot write summary file: " + path);
  file.precision(10);
  const auto& out = outputs();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    out.started)
          .count();
  file << "{\n  \"scenarios\": " << runner::ScenarioRunner::scenarios_executed()
       << ",\n  \"jobs\": " << jobs()
       << ",\n  \"wall_time_s\": " << telemetry::fmt(wall_s, 3);
  if (out.flight_path) {
    file << ",\n  \"flight_log\": \"" << json::escape(*out.flight_path)
         << "\",\n  \"flight_records\": "
         << telemetry::FlightRecorder::global().records().size();
  }
  const auto& resilience = telemetry::ResilienceRegistry::global();
  if (!resilience.entries().empty()) {
    file << ",\n  \"resilience\": [";
    bool first_entry = true;
    for (const auto& e : resilience.entries()) {
      file << (first_entry ? "\n    " : ",\n    ") << "{\"variant\":\""
           << json::escape(e.variant) << "\",\"stage\":\""
           << json::escape(e.stage) << "\",\"mttr_s\":" << e.mttr_s
           << ",\"failsafe_entries\":" << e.failsafe_entries << '}';
      first_entry = false;
    }
    file << "\n  ]";
  }
  const auto& energy = telemetry::EnergyRegistry::global();
  if (!energy.caps().empty()) {
    double total_j = 0.0;
    double idle_j = 0.0;
    std::uint64_t requests = 0;
    for (const auto& c : energy.caps()) {
      total_j += c.total_joules;
      idle_j += c.idle_joules;
      requests += c.requests;
    }
    const double jpr =
        requests ? total_j / static_cast<double>(requests) : 0.0;
    file << ",\n  \"energy\": {\"total_joules\":" << total_j
         << ",\"idle_joules\":" << idle_j << ",\"requests\":" << requests
         << ",\"joules_per_request\":" << jpr << '}';
  }
  file << ",\n  \"stage_p99_s\": [";
  bool first = true;
  for (const auto* family : telemetry::MetricsRegistry::global().families()) {
    if (family->name != telemetry::metric::kStageLatencySeconds) continue;
    for (const auto& [key, inst] : family->series) {
      (void)key;
      if (!inst->sketch) continue;
      std::string model;
      std::string stage;
      for (const auto& [k, v] : inst->labels) {
        if (k == "model") model = v;
        if (k == "stage") stage = v;
      }
      file << (first ? "\n    " : ",\n    ") << "{\"model\":\""
           << json::escape(model) << "\",\"stage\":\"" << json::escape(stage)
           << "\",\"p99\":" << inst->sketch->quantile(0.99) << '}';
      first = false;
    }
  }
  file << "\n  ]\n}\n";
}

void flush_outputs() {
  const auto& out = outputs();
  try {
    if (out.metrics_path) {
      telemetry::save_prometheus(telemetry::MetricsRegistry::global(),
                                 *out.metrics_path);
      std::printf("[telemetry] metrics: %s\n", out.metrics_path->c_str());
    }
    if (out.trace_path) {
      telemetry::Tracer::global().save_chrome_json(*out.trace_path);
      std::printf("[telemetry] trace: %s\n", out.trace_path->c_str());
    }
    if (out.events_path) {
      telemetry::Tracer::global().save_jsonl(*out.events_path);
      std::printf("[telemetry] events: %s\n", out.events_path->c_str());
    }
    if (out.flight_path) {
      telemetry::FlightRecorder::global().save_jsonl(*out.flight_path);
      std::printf("[telemetry] flight log: %s (%zu records)\n",
                  out.flight_path->c_str(),
                  telemetry::FlightRecorder::global().records().size());
    }
    if (out.slo_report_path) {
      telemetry::save_slo_report(telemetry::SloRegistry::global(),
                                 telemetry::MetricsRegistry::global(),
                                 *out.slo_report_path);
      std::printf("[telemetry] slo report: %s\n",
                  out.slo_report_path->c_str());
    }
    if (out.resilience_path) {
      telemetry::save_resilience_report(telemetry::ResilienceRegistry::global(),
                                        *out.resilience_path);
      std::printf("[telemetry] resilience report: %s (%zu stages)\n",
                  out.resilience_path->c_str(),
                  telemetry::ResilienceRegistry::global().entries().size());
    }
    if (out.energy_path) {
      telemetry::save_energy_report(telemetry::EnergyRegistry::global(),
                                    *out.energy_path);
      std::printf("[telemetry] energy report: %s (%zu caps)\n",
                  out.energy_path->c_str(),
                  telemetry::EnergyRegistry::global().caps().size());
    }
    if (out.summary_path) {
      write_summary(*out.summary_path);
      std::printf("[telemetry] summary: %s\n", out.summary_path->c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[telemetry] export failed: %s\n", e.what());
  }
}

std::optional<LogLevel> parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return std::nullopt;
}

std::size_t& jobs_slot() {
  static std::size_t jobs = 1;
  return jobs;
}

}  // namespace

void init(int& argc, char** argv) {
  auto& out = outputs();
  out.started = std::chrono::steady_clock::now();
  std::map<std::string, std::string> flags;
  try {
    flags = extract_flags(argc, argv,
                          {"metrics-out", "trace-out", "events-out",
                           "summary-out", "slo-report-out", "flight-out",
                           "resilience-out", "energy-out", "log-level",
                           "jobs"});
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    std::exit(2);
  }
  if (auto it = flags.find("metrics-out"); it != flags.end()) {
    out.metrics_path = it->second;
  }
  if (auto it = flags.find("trace-out"); it != flags.end()) {
    out.trace_path = it->second;
  }
  if (auto it = flags.find("events-out"); it != flags.end()) {
    out.events_path = it->second;
  }
  if (auto it = flags.find("summary-out"); it != flags.end()) {
    out.summary_path = it->second;
  }
  if (auto it = flags.find("slo-report-out"); it != flags.end()) {
    out.slo_report_path = it->second;
  }
  if (auto it = flags.find("flight-out"); it != flags.end()) {
    out.flight_path = it->second;
    telemetry::FlightRecorder::global().set_enabled(true);
  }
  if (auto it = flags.find("resilience-out"); it != flags.end()) {
    out.resilience_path = it->second;
  }
  if (auto it = flags.find("energy-out"); it != flags.end()) {
    out.energy_path = it->second;
  }
  if (auto it = flags.find("log-level"); it != flags.end()) {
    if (auto level = parse_log_level(it->second)) {
      Log::set_level(*level);
    } else {
      std::fprintf(stderr, "[telemetry] unknown log level '%s'\n",
                   it->second.c_str());
    }
  }
  if (auto it = flags.find("jobs"); it != flags.end()) {
    char* end = nullptr;
    const long n = std::strtol(it->second.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || n < 0) {
      std::fprintf(stderr, "%s: option --jobs expects a non-negative integer\n",
                   argv[0]);
      std::exit(2);
    }
    jobs_slot() = n == 0 ? runner::ThreadPool::hardware_jobs()
                         : static_cast<std::size_t>(n);
  }
  if (out.trace_path || out.events_path) {
    telemetry::Tracer::global().set_enabled(true);
  }
  if (out.metrics_path || out.trace_path || out.events_path ||
      out.summary_path || out.slo_report_path || out.flight_path ||
      out.resilience_path || out.energy_path) {
    static bool registered = false;
    if (!registered) {
      registered = true;
      // Force-construct the global context before registering the flush
      // so its sinks are destroyed after it runs (atexit and static
      // destructors share one LIFO list).
      (void)telemetry::Context::global();
      std::atexit(flush_outputs);
    }
  }
}

std::size_t jobs() { return jobs_slot(); }

const control::IdentifiedModel& testbed_model() {
  static const control::IdentifiedModel model = [] {
    core::ServerRig rig;
    control::IdentifiedModel m = rig.identify();
    std::printf("[setup] system identification: R^2=%.4f rmse=%.2f W  A=[",
                m.r_squared, m.rmse_watts);
    for (std::size_t j = 0; j < m.model.device_count(); ++j) {
      std::printf("%s%.4f", j ? ", " : "", m.model.gain(j));
    }
    std::printf("] C=%.1f W\n", m.model.offset());
    return m;
  }();
  return model;
}

core::CapGpuController make_capgpu(core::ServerRig& rig, Watts set_point) {
  return core::CapGpuController(core::CapGpuConfig{}, rig.device_ranges(),
                                testbed_model().model, set_point,
                                rig.latency_models());
}

void print_banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=============================================================\n"
            << title << "\n(" << paper_ref << ")\n"
            << "=============================================================\n";
}

void print_strip(const std::string& label, const telemetry::TimeSeries& ts,
                 double lo, double hi, std::size_t periods_per_char) {
  static constexpr const char* kGlyphs[] = {"_", ".", "-", "~", "+", "*",
                                            "#", "@"};
  std::string strip;
  for (std::size_t i = 0; i < ts.size(); i += periods_per_char) {
    double v = 0.0;
    std::size_t n = 0;
    for (std::size_t k = i; k < std::min(i + periods_per_char, ts.size());
         ++k) {
      v += ts.value_at(k);
      ++n;
    }
    v /= static_cast<double>(n);
    const double t = std::clamp((v - lo) / (hi - lo), 0.0, 0.999);
    strip += kGlyphs[static_cast<std::size_t>(t * 8.0)];
  }
  std::printf("  %-22s [%7.1f..%7.1f] %s\n", label.c_str(), lo, hi,
              strip.c_str());
}

void print_power_summary(const std::string& name, const core::RunResult& res,
                         double set_point_watts, std::size_t skip) {
  const auto s = res.steady_power(skip);
  const telemetry::CappingAudit audit = telemetry::audit_capping(
      res.power, Watts{set_point_watts}, 4.0, 5.0, skip);
  std::printf(
      "  %-22s mean=%7.1f W  err=%+6.1f W  std=%5.1f W  max=%7.1f W  "
      "violations=%zu (worst %+.1f W, streak %zu, %.0f J over cap)\n",
      name.c_str(), s.mean(), s.mean() - set_point_watts, s.stddev(), s.max(),
      audit.violation_samples, audit.worst_excess_watts,
      audit.longest_streak, audit.excess_joules);
}

void print_stage_quantiles() {
  const auto& registry = telemetry::MetricsRegistry::global();
  bool any = false;
  for (const auto* family : registry.families()) {
    const bool is_stage =
        family->name == telemetry::metric::kStageLatencySeconds;
    const bool is_total =
        family->name == telemetry::metric::kRequestLatencySeconds;
    if (!is_stage && !is_total) continue;
    if (!any) {
      any = true;
      std::printf(
          "\n  %-10s %-18s %10s %10s %10s %10s %10s\n", "model", "stage",
          "count", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms");
    }
    for (const auto& [key, inst] : family->series) {
      (void)key;
      if (!inst->sketch || inst->sketch->count() == 0) continue;
      std::string model;
      std::string stage = "total";
      for (const auto& [k, v] : inst->labels) {
        if (k == "model") model = v;
        if (is_stage && k == "stage") stage = v;
      }
      const auto& s = *inst->sketch;
      std::printf("  %-10s %-18s %10llu %10.2f %10.2f %10.2f %10.2f\n",
                  model.c_str(), stage.c_str(),
                  static_cast<unsigned long long>(s.count()),
                  s.quantile(0.5) * 1e3, s.quantile(0.95) * 1e3,
                  s.quantile(0.99) * 1e3, s.quantile(0.999) * 1e3);
    }
  }
}

double steady_mean(const telemetry::TimeSeries& ts, std::size_t skip) {
  return ts.stats_from(skip).mean();
}

void export_result_csv(const std::string& name, const core::RunResult& res) {
  try {
    std::filesystem::create_directories("results");
    const std::string path = "results/" + name + ".csv";
    std::vector<const telemetry::TimeSeries*> series{&res.power,
                                                     &res.set_point};
    for (const auto& f : res.device_freqs) series.push_back(&f);
    for (const auto& t : res.gpu_throughput) series.push_back(&t);
    for (const auto& l : res.gpu_latency) series.push_back(&l);
    for (const auto& s : res.gpu_slo) series.push_back(&s);
    telemetry::save_series_csv(path, series);
    std::printf("  [csv] %s\n", path.c_str());
  } catch (const std::exception& e) {
    std::printf("  [csv] export skipped: %s\n", e.what());
  }
}

}  // namespace capgpu::bench
