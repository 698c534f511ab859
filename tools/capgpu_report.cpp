// Offline latency-attribution report.
//
// Ingests the structured event log written by --events-out (JSONL, one
// trace event per line) and, optionally, the --slo-report-out JSON, and
// prints:
//   1. a per-cap latency attribution table — mean per-stage latency and
//      the dominant pipeline stage for every (set point, model) pair,
//      joined by bucketing each per-period "stage_latency_s/<model>"
//      counter sample into the "control_period" span that contains it;
//   2. the burn-rate alert log correlated with protection events
//      (fail-safe and emergency engagements shortly before each alert);
//   3. the per-model SLO summary and stage quantiles from the SLO report;
//   4. when a --flight-out log is supplied, each burn alert joined with the
//      controller health recorded in the minute before it — did the
//      prediction-error residuals spike (model error) or were the MPC's
//      frequency constraints binding (constraint pressure)?
//   5. when a --resilience-out JSON is supplied, the chaos-campaign
//      scorecard (detection latency, MTTR, SLO-burn split per stage);
//   6. when an --energy-out JSON is supplied, the efficiency frontier —
//      joules per inference vs. power cap, with requests/kJ, idle fraction
//      and the dominant energy stage at each cap (the paper's energy-
//      optimal cap reading).
//
// Usage: capgpu_report <events.jsonl> [slo_report.json] [flight.jsonl]
//                      [resilience.json] [energy.json]
// Pass "-" to skip an optional position (e.g. feed an energy report
// without a flight log). Exit status: 0 on success, 2 on usage errors and
// on an input that cannot be read or is rejected; the message names the
// file, and the line for the JSONL inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "telemetry/flight.hpp"
#include "workload/request_timeline.hpp"

namespace {

using capgpu::json::Value;
using capgpu::workload::kStageCount;
using capgpu::workload::kStageNames;

struct ControlPeriod {
  double start_us{0.0};
  double end_us{0.0};
  double set_point_w{0.0};
};

struct StageSample {
  double ts_us{0.0};
  std::string model;
  double stage_mean_s[kStageCount]{};
};

struct InstantEvent {
  double ts_us{0.0};
  std::string name;
  std::string model;  // empty for protection events
};

struct PidLog {
  std::vector<ControlPeriod> periods;
  std::vector<StageSample> samples;
  std::vector<InstantEvent> alerts;      // slo_burn_alert / slo_burn_clear
  std::vector<InstantEvent> protection;  // failsafe/emergency engage+release
};

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw capgpu::Error("cannot open the file");
  std::ostringstream buf;
  buf << file.rdbuf();
  return buf.str();
}

/// Calls `on_record` with every document of the JSONL file at `path`. An
/// error while parsing or handling a record is rethrown naming its line.
template <typename OnRecord>
void for_each_record(const std::string& path, OnRecord&& on_record) {
  const std::string text = read_file(path);
  std::size_t pos = 0;
  std::size_t line = 1;
  while (true) {
    while (pos < text.size() &&
           (text[pos] == '\n' || text[pos] == '\r' || text[pos] == ' ')) {
      if (text[pos] == '\n') ++line;
      ++pos;
    }
    if (pos >= text.size()) break;
    const std::size_t start = pos;
    try {
      on_record(capgpu::json::parse_prefix(text, pos));
    } catch (const std::exception& e) {
      throw capgpu::Error("line " + std::to_string(line) + ": " + e.what());
    }
    line += static_cast<std::size_t>(
        std::count(text.begin() + static_cast<std::ptrdiff_t>(start),
                   text.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
  }
}

constexpr const char* kStagePrefix = "stage_latency_s/";

// Parses the JSONL event stream into per-pid logs.
std::map<int, PidLog> load_events(const std::string& path) {
  std::map<int, PidLog> logs;
  for_each_record(path, [&logs](const Value& ev) {
    if (!ev.is_object()) return;
    const std::string ph = ev.string_or("ph", "");
    const std::string name = ev.string_or("name", "");
    const int pid = static_cast<int>(ev.number_or("pid", 0.0));
    const double ts = ev.number_or("ts", 0.0);
    PidLog& log = logs[pid];
    if (ph == "X" && name == "control_period") {
      const Value& args = ev.at("args");
      const double dur = ev.number_or("dur", 0.0);
      log.periods.push_back(
          {ts, ts + dur, args.number_or("set_point_w", 0.0)});
    } else if (ph == "C" && name.rfind(kStagePrefix, 0) == 0) {
      StageSample s;
      s.ts_us = ts;
      s.model = name.substr(std::string(kStagePrefix).size());
      const Value& args = ev.at("args");
      for (std::size_t i = 0; i < kStageCount; ++i) {
        s.stage_mean_s[i] = args.number_or(kStageNames[i], 0.0);
      }
      log.samples.push_back(std::move(s));
    } else if (ph == "i" &&
               (name == "slo_burn_alert" || name == "slo_burn_clear")) {
      std::string model;
      if (ev.contains("args")) model = ev.at("args").string_or("model", "");
      log.alerts.push_back({ts, name, std::move(model)});
    } else if (ph == "i" &&
               (name == "failsafe_engage" || name == "failsafe_release" ||
                name == "emergency_engage" || name == "emergency_release")) {
      log.protection.push_back({ts, name, ""});
    }
  });
  return logs;
}

// Finds the set point of the control period containing `ts_us`, or NaN.
// Stage counters are emitted from the end-of-period callback, so their
// timestamp coincides with the period's end — use a half-open match with
// a microsecond of slack for the shared rounding.
double set_point_at(const std::vector<ControlPeriod>& periods, double ts_us) {
  for (const auto& p : periods) {
    if (ts_us > p.start_us + 0.5 && ts_us <= p.end_us + 1.5) {
      return p.set_point_w;
    }
  }
  return std::nan("");
}

struct StageAccum {
  double sum_s[kStageCount]{};
  std::size_t periods{0};
};

void print_attribution(const std::map<int, PidLog>& logs) {
  // Key: (set point, model). Caps are rounded to 0.1 W so float noise in
  // the args does not split buckets.
  std::map<std::pair<long long, std::string>, StageAccum> table;
  std::size_t unmatched = 0;
  for (const auto& [pid, log] : logs) {
    (void)pid;
    for (const auto& s : log.samples) {
      const double cap = set_point_at(log.periods, s.ts_us);
      if (std::isnan(cap)) {
        ++unmatched;
        continue;
      }
      auto& acc = table[{static_cast<long long>(std::llround(cap * 10.0)),
                         s.model}];
      for (std::size_t i = 0; i < kStageCount; ++i) {
        acc.sum_s[i] += s.stage_mean_s[i];
      }
      ++acc.periods;
    }
  }

  std::printf("Latency attribution by power cap\n");
  std::printf("--------------------------------\n");
  if (table.empty()) {
    std::printf("  (no stage samples joined a control period — run the\n"
                "   bench with --events-out and tracing-enabled outputs)\n");
    return;
  }
  std::printf("  %-9s %-10s %8s", "cap W", "model", "periods");
  for (std::size_t i = 0; i < kStageCount; ++i) {
    std::printf(" %16s", kStageNames[i]);
  }
  std::printf("  %s\n", "dominant stage");

  // Per-cap totals drive the per-cap dominant stage line.
  std::map<long long, StageAccum> cap_totals;
  for (const auto& [key, acc] : table) {
    const auto& [cap_tenths, model] = key;
    std::printf("  %-9.1f %-10s %8zu", static_cast<double>(cap_tenths) / 10.0,
                model.c_str(), acc.periods);
    std::size_t dominant = 0;
    auto& total = cap_totals[cap_tenths];
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const double mean_ms =
          acc.sum_s[i] / static_cast<double>(acc.periods) * 1e3;
      std::printf(" %13.3f ms", mean_ms);
      total.sum_s[i] += acc.sum_s[i];
      if (acc.sum_s[i] > acc.sum_s[dominant]) dominant = i;
    }
    total.periods += acc.periods;
    std::printf("  %s\n", kStageNames[dominant]);
  }
  std::printf("\n");
  for (const auto& [cap_tenths, total] : cap_totals) {
    std::size_t dominant = 0;
    for (std::size_t i = 1; i < kStageCount; ++i) {
      if (total.sum_s[i] > total.sum_s[dominant]) dominant = i;
    }
    std::printf("  dominant stage at %.1f W (all models): %s\n",
                static_cast<double>(cap_tenths) / 10.0,
                kStageNames[dominant]);
  }
  if (unmatched > 0) {
    std::printf("  note: %zu stage sample(s) fell outside every control "
                "period and were dropped\n", unmatched);
  }
}

void print_alert_correlation(const std::map<int, PidLog>& logs) {
  std::printf("\nBurn-rate alerts vs protection events\n");
  std::printf("-------------------------------------\n");
  constexpr double kWindowUs = 60e6;  // look back one fast burn window
  std::size_t alerts = 0;
  std::size_t with_failsafe = 0;
  std::size_t with_emergency = 0;
  for (const auto& [pid, log] : logs) {
    for (const auto& a : log.alerts) {
      if (a.name != "slo_burn_alert") continue;
      ++alerts;
      const InstantEvent* failsafe = nullptr;
      const InstantEvent* emergency = nullptr;
      for (const auto& p : log.protection) {
        if (p.ts_us > a.ts_us || p.ts_us < a.ts_us - kWindowUs) continue;
        if (p.name == "failsafe_engage") failsafe = &p;
        if (p.name == "emergency_engage") emergency = &p;
      }
      if (failsafe) ++with_failsafe;
      if (emergency) ++with_emergency;
      std::printf("  pid %-3d %-10s alert at %9.3f s", pid, a.model.c_str(),
                  a.ts_us / 1e6);
      if (failsafe) {
        std::printf("  failsafe_engage %.3f s before",
                    (a.ts_us - failsafe->ts_us) / 1e6);
      }
      if (emergency) {
        std::printf("  emergency_engage %.3f s before",
                    (a.ts_us - emergency->ts_us) / 1e6);
      }
      if (!failsafe && !emergency) {
        std::printf("  no protection event within 60 s");
      }
      std::printf("\n");
    }
  }
  if (alerts == 0) {
    std::printf("  no burn-rate alerts in the event log\n");
    return;
  }
  std::printf("  total: %zu alert(s), %zu preceded by fail-safe engagement, "
              "%zu by emergency throttling\n",
              alerts, with_failsafe, with_emergency);
}

// One flight record reduced to what the alert join needs.
struct FlightPoint {
  double t_s{0.0};
  bool has_residual{false};
  double abs_residual_w{0.0};
  bool acted{false};        // MPC replay state present
  bool floor_bound{false};  // any device's floor constraint active
};

std::map<int, std::vector<FlightPoint>> load_flight(const std::string& path) {
  std::map<int, std::vector<FlightPoint>> points;
  for_each_record(path, [&points](const Value& v) {
    const capgpu::telemetry::FlightRecord rec =
        capgpu::telemetry::FlightRecord::from_json(v);
    FlightPoint p;
    p.t_s = rec.t_s;
    p.has_residual = rec.outcome_filled && rec.mpc.present;
    p.abs_residual_w = std::abs(rec.power_residual_w);
    p.acted = rec.mpc.present;
    for (const int b : rec.mpc.floor_binding) {
      p.floor_bound = p.floor_bound || b != 0;
    }
    points[rec.pid].push_back(p);
  });
  return points;
}

struct FlightWindowStats {
  double mean_residual_w{0.0};
  std::size_t residuals{0};
  double floor_fraction{0.0};
  std::size_t acted{0};
};

FlightWindowStats flight_stats(const std::vector<FlightPoint>& points,
                               double from_s, double to_s) {
  FlightWindowStats s;
  double resid_sum = 0.0;
  std::size_t floor_bound = 0;
  for (const auto& p : points) {
    if (p.t_s < from_s || p.t_s > to_s) continue;
    if (p.has_residual) {
      resid_sum += p.abs_residual_w;
      ++s.residuals;
    }
    if (p.acted) {
      ++s.acted;
      if (p.floor_bound) ++floor_bound;
    }
  }
  if (s.residuals > 0) {
    s.mean_residual_w = resid_sum / static_cast<double>(s.residuals);
  }
  if (s.acted > 0) {
    s.floor_fraction =
        static_cast<double>(floor_bound) / static_cast<double>(s.acted);
  }
  return s;
}

// Joins each burn alert with the controller health recorded in the minute
// before it. A "model error" verdict means the prediction-error residuals
// in the window ran at least twice the run's mean; "constraint pressure"
// means the floor-binding fraction rose 25 points above the run's mean
// (the SLO floor, not the power model, was shaping the caps).
void print_flight_join(const std::map<int, PidLog>& logs,
                       const std::string& path) {
  std::printf("\nBurn-rate alerts vs controller health (%s)\n", path.c_str());
  std::printf("---------------------------------------\n");
  const std::map<int, std::vector<FlightPoint>> flight = load_flight(path);
  constexpr double kWindowS = 60.0;  // one fast burn window
  constexpr double kResidualSpike = 2.0;
  constexpr double kBindingSpike = 0.25;
  std::size_t alerts = 0;
  std::size_t model_error = 0;
  std::size_t constraint_pressure = 0;
  for (const auto& [pid, log] : logs) {
    const auto it = flight.find(pid);
    if (it == flight.end()) continue;
    const std::vector<FlightPoint>& points = it->second;
    const FlightWindowStats run =
        flight_stats(points, -1e300, 1e300);  // whole-run baseline
    for (const auto& a : log.alerts) {
      if (a.name != "slo_burn_alert") continue;
      ++alerts;
      const double at_s = a.ts_us / 1e6;
      const FlightWindowStats w =
          flight_stats(points, at_s - kWindowS, at_s);
      const bool resid_spiked = w.residuals > 0 && run.mean_residual_w > 0.0 &&
                                w.mean_residual_w >=
                                    kResidualSpike * run.mean_residual_w;
      const bool binding_spiked =
          w.acted > 0 && w.floor_fraction >= run.floor_fraction + kBindingSpike;
      if (resid_spiked) ++model_error;
      if (binding_spiked) ++constraint_pressure;
      std::printf(
          "  pid %-3d %-10s alert at %9.3f s  residual %6.2f W (run mean "
          "%6.2f W)  floor binding %5.1f%% (run %5.1f%%)",
          pid, a.model.c_str(), at_s, w.mean_residual_w, run.mean_residual_w,
          w.floor_fraction * 100.0, run.floor_fraction * 100.0);
      if (resid_spiked) std::printf("  <- model error");
      if (binding_spiked) std::printf("  <- constraint pressure");
      if (!resid_spiked && !binding_spiked) std::printf("  steady");
      std::printf("\n");
    }
  }
  if (alerts == 0) {
    std::printf("  no burn-rate alerts to join with flight records\n");
    return;
  }
  std::printf(
      "  total: %zu alert(s), %zu preceded by a prediction-error spike, "
      "%zu by rising constraint pressure\n",
      alerts, model_error, constraint_pressure);
}

void print_slo_report(const std::string& path) {
  const Value report = capgpu::json::parse(read_file(path));
  std::printf("\nSLO error-budget summary (%s)\n", path.c_str());
  std::printf("--------------------------------\n");
  const Value& entries = report.at("entries");
  if (entries.as_array().empty()) {
    std::printf("  no SLO entries (burn monitoring disabled or no checks)\n");
  } else {
    std::printf("  %-10s %-18s %9s %8s %8s %10s %7s\n", "model", "policy",
                "objective", "checked", "missed", "budget", "alerts");
    for (const Value& e : entries.as_array()) {
      std::printf("  %-10s %-18s %9.4f %8.0f %8.0f %9.1f%% %7.0f\n",
                  e.string_or("model", "?").c_str(),
                  e.string_or("policy", "?").c_str(),
                  e.number_or("objective", 0.0), e.number_or("checked", 0.0),
                  e.number_or("missed", 0.0),
                  e.number_or("budget_consumed", 0.0) * 100.0,
                  e.number_or("alerts", 0.0));
    }
  }
  if (!report.contains("stage_quantiles")) return;
  const auto& quantiles = report.at("stage_quantiles").as_array();
  if (quantiles.empty()) return;
  std::printf("\n  stage quantiles (relative error +/-%.1f%%):\n",
              quantiles.front().number_or("relative_error", 0.01) * 100.0);
  std::printf("  %-10s %-18s %10s %10s %10s %10s %10s\n", "model", "stage",
              "count", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms");
  for (const Value& q : quantiles) {
    std::printf("  %-10s %-18s %10.0f %10.2f %10.2f %10.2f %10.2f\n",
                q.string_or("model", "?").c_str(),
                q.string_or("stage", "?").c_str(), q.number_or("count", 0.0),
                q.number_or("p50", 0.0) * 1e3, q.number_or("p95", 0.0) * 1e3,
                q.number_or("p99", 0.0) * 1e3, q.number_or("p999", 0.0) * 1e3);
  }
}

// Renders the chaos-campaign scorecard written by --resilience-out: one
// row per (campaign, variant, stage) with detection latency, MTTR and the
// SLO burn split at fault end.
void print_resilience_report(const std::string& path) {
  const Value report = capgpu::json::parse(read_file(path));
  std::printf("\nChaos-campaign resilience scorecard (%s)\n", path.c_str());
  std::printf("----------------------------------------\n");
  if (!report.contains("campaigns") ||
      report.at("campaigns").as_array().empty()) {
    std::printf("  no campaign stages (run a bench that executes chaos "
                "campaigns with --resilience-out)\n");
    return;
  }
  std::printf("  %-16s %-9s %-14s %-12s %9s %8s %11s %10s %9s\n", "campaign",
              "variant", "stage", "domain", "detect s", "MTTR s",
              "burn during", "burn after", "dwell s");
  for (const Value& e : report.at("campaigns").as_array()) {
    std::printf("  %-16s %-9s %-14s %-12s %9.1f %8.1f %11.4f %10.4f %9.1f\n",
                e.string_or("campaign", "?").c_str(),
                e.string_or("variant", "?").c_str(),
                e.string_or("stage", "?").c_str(),
                e.string_or("domain", "?").c_str(),
                e.number_or("detected_at_s", -1.0),
                e.number_or("mttr_s", -1.0),
                e.number_or("slo_burn_during", 0.0),
                e.number_or("slo_burn_after", 0.0),
                e.number_or("failsafe_dwell_s", 0.0));
  }
}

// Renders the energy attribution written by --energy-out: the efficiency
// frontier table (joules per inference vs. power cap) plus the per-model
// attribution split.
void print_energy_frontier(const std::string& path) {
  const Value report = capgpu::json::parse(read_file(path));
  std::printf("\nEnergy efficiency frontier by power cap (%s)\n", path.c_str());
  std::printf("----------------------------------------\n");
  if (!report.contains("caps") || report.at("caps").as_array().empty()) {
    std::printf("  no energy accounting (run a closed-loop bench with "
                "--energy-out)\n");
    return;
  }
  std::printf("  %-9s %-18s %8s %9s %10s %12s %9s %7s  %s\n", "cap W",
              "policy", "periods", "requests", "total kJ", "J/inference",
              "req/kJ", "idle %", "dominant energy stage");
  for (const Value& c : report.at("caps").as_array()) {
    const std::string dominant = c.string_or("dominant_stage", "");
    std::printf("  %-9.1f %-18s %8.0f %9.0f %10.2f %12.4f %9.1f %6.1f%%  %s\n",
                c.number_or("cap_watts", 0.0),
                c.string_or("policy", "?").c_str(),
                c.number_or("periods", 0.0), c.number_or("requests", 0.0),
                c.number_or("total_joules", 0.0) / 1e3,
                c.number_or("joules_per_request", 0.0),
                c.number_or("requests_per_kilojoule", 0.0),
                c.number_or("idle_fraction", 0.0) * 100.0,
                dominant.empty() ? "(none)" : dominant.c_str());
  }
  if (!report.contains("entries") || report.at("entries").as_array().empty()) {
    return;
  }
  std::printf("\n  per-model attribution:\n");
  std::printf("  %-9s %-10s %9s %12s", "cap W", "model", "requests",
              "J/inference");
  for (std::size_t i = 0; i < kStageCount; ++i) {
    std::printf(" %16s", kStageNames[i]);
  }
  std::printf("\n");
  for (const Value& e : report.at("entries").as_array()) {
    std::printf("  %-9.1f %-10s %9.0f %12.4f", e.number_or("cap_watts", 0.0),
                e.string_or("model", "?").c_str(),
                e.number_or("requests", 0.0),
                e.number_or("joules_per_request", 0.0));
    const Value& stages = e.at("stage_joules");
    for (std::size_t i = 0; i < kStageCount; ++i) {
      std::printf(" %14.1f J", stages.number_or(kStageNames[i], 0.0));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 6) {
    std::fprintf(stderr,
                 "usage: %s <events.jsonl> [slo_report.json] [flight.jsonl]"
                 " [resilience.json] [energy.json]\n"
                 "  events.jsonl     written by a bench with --events-out\n"
                 "  slo_report.json  written by a bench with --slo-report-out\n"
                 "  flight.jsonl     written by a bench with --flight-out\n"
                 "  resilience.json  written by a bench with --resilience-out\n"
                 "  energy.json      written by a bench with --energy-out\n"
                 "pass \"-\" to skip an optional position\n",
                 argv[0]);
    return 2;
  }
  const auto arg_or_skip = [&](int index) -> const char* {
    if (argc <= index) return nullptr;
    return std::string_view(argv[index]) == "-" ? nullptr : argv[index];
  };
  std::string input = argv[1];  // the file being read, for error messages
  try {
    const std::map<int, PidLog> logs = load_events(argv[1]);
    std::size_t events = 0;
    for (const auto& [pid, log] : logs) {
      (void)pid;
      events += log.periods.size() + log.samples.size() + log.alerts.size() +
                log.protection.size();
    }
    std::printf("capgpu_report: %s (%zu relevant event(s) across %zu rig(s))\n\n",
                argv[1], events, logs.size());
    print_attribution(logs);
    print_alert_correlation(logs);
    if (const char* path = arg_or_skip(2)) {
      input = path;
      print_slo_report(path);
    }
    if (const char* path = arg_or_skip(3)) {
      input = path;
      print_flight_join(logs, path);
    }
    if (const char* path = arg_or_skip(4)) {
      input = path;
      print_resilience_report(path);
    }
    if (const char* path = arg_or_skip(5)) {
      input = path;
      print_energy_frontier(path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "capgpu_report: %s: %s\n", input.c_str(), e.what());
    return 2;
  }
  return 0;
}
