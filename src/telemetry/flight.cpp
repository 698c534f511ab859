#include "telemetry/flight.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace capgpu::telemetry {
namespace {

/// EWMA smoothing for the prediction-error health gauges.
constexpr double kEwmaAlpha = 0.2;
/// |power residual| above this emits a flight_prediction_anomaly instant.
constexpr double kPowerAnomalyWatts = 50.0;

/// QP iteration counts are small integers: 2 decades from 1 give bounds up
/// to 100 with ~0.2-decade resolution.
constexpr HistogramSpec kIterationSpec{1.0, 2, 5};
/// |power residual| spans sub-watt noise to hundreds of watts on a fault.
constexpr HistogramSpec kResidualSpec{0.1, 5, 3};

const char* failsafe_name(int state) {
  switch (state) {
    case 0: return "nominal";
    case 1: return "degraded";
    case 2: return "recovering";
    default: return "unknown";
  }
}

// Path attribution for capgpu_ctl_solver_path_total: `fast` when the
// unconstrained minimiser was feasible, `cold` when the solve took dual
// steps.
constexpr const char* kSolverPathNames[2] = {"fast", "cold"};

std::size_t solver_path_index(const FlightMpcState& m) {
  return m.fast_path_hit ? 0 : 1;
}

// --- JSONL rendering -------------------------------------------------------
// Doubles print at %.17g: every finite double round-trips exactly through
// strtod, which is what makes replay bit-identical. Bools print as 0/1.

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no nan/inf; records never hold them
    out += '0';
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// Comma-managed key/value appender for one flat JSON object.
class ObjectBuilder {
 public:
  explicit ObjectBuilder(std::string& out) : out_(out) { out_ += '{'; }
  void close() { out_ += '}'; }

  void num(const char* key, double v) {
    field(key);
    append_double(out_, v);
  }
  void integer(const char* key, long long v) {
    field(key);
    out_ += std::to_string(v);
  }
  void boolean(const char* key, bool v) {
    field(key);
    out_ += v ? '1' : '0';
  }
  void str(const char* key, const std::string& v) {
    field(key);
    out_ += '"';
    out_ += json::escape(v);
    out_ += '"';
  }
  void nums(const char* key, const std::vector<double>& v) {
    field(key);
    out_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out_ += ',';
      append_double(out_, v[i]);
    }
    out_ += ']';
  }
  void ints(const char* key, const std::vector<int>& v) {
    field(key);
    out_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out_ += ',';
      out_ += std::to_string(v[i]);
    }
    out_ += ']';
  }
  void null(const char* key) {
    field(key);
    out_ += "null";
  }
  /// Starts a nested object value; the caller builds and closes it.
  void field(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

 private:
  std::string& out_;
  bool first_{true};
};

// --- JSON reading ----------------------------------------------------------

std::vector<double> numbers_at(const json::Value& v, const char* key) {
  std::vector<double> out;
  if (!v.contains(key)) return out;
  const json::Array& arr = v.at(key).as_array();
  out.reserve(arr.size());
  for (const json::Value& e : arr) out.push_back(e.as_number());
  return out;
}

constexpr long long kIntMax = std::numeric_limits<int>::max();

std::vector<int> ints_at(const json::Value& v, const char* key) {
  std::vector<int> out;
  if (!v.contains(key)) return out;
  const json::Array& arr = v.at(key).as_array();
  out.reserve(arr.size());
  for (const json::Value& e : arr) {
    out.push_back(static_cast<int>(e.as_integer(key, -kIntMax, kIntMax)));
  }
  return out;
}

bool bool_at(const json::Value& v, const char* key) {
  return v.number_or(key, 0.0) != 0.0;
}

std::size_t size_at(const json::Value& v, const char* key) {
  return static_cast<std::size_t>(
      v.integer_or(key, 0, 0, json::kMaxExactInteger));
}

int int_at(const json::Value& v, const char* key, int fallback) {
  return static_cast<int>(v.integer_or(key, fallback, -kIntMax, kIntMax));
}

/// A replay sizes the controller by the gain count and indexes the device
/// ranges and bounds per device, so a log whose arrays disagree with it is
/// rejected at parse time instead of being read past an array's end.
void require_per_device(std::size_t entries, std::size_t gains,
                        const char* key) {
  if (entries != gains) {
    throw InvalidArgument(std::string("mpc.") + key + " has " +
                          std::to_string(entries) + " entries for " +
                          std::to_string(gains) + " gains");
  }
}

}  // namespace

std::string FlightRecord::to_jsonl() const {
  std::string out;
  out.reserve(1024);
  ObjectBuilder b(out);
  b.integer("pid", pid);
  b.integer("period", static_cast<long long>(period));
  b.num("t_s", t_s);
  b.str("policy", policy);
  b.num("measured_power_w", measured_power_w);
  b.num("set_point_w", set_point_w);
  b.num("error_w", error_w);
  b.boolean("held", held);
  b.str("hold_reason", hold_reason);
  b.integer("failsafe_state", failsafe_state);
  b.str("failsafe_cause", failsafe_cause);
  b.nums("freqs_mhz", freqs_mhz);
  b.nums("targets_mhz", targets_mhz);
  b.nums("utilization", utilization);
  b.nums("normalized_throughput", normalized_throughput);
  b.boolean("outcome_filled", outcome_filled);
  b.num("realized_power_w", realized_power_w);
  b.num("power_residual_w", power_residual_w);
  b.nums("realized_latency_s", realized_latency_s);
  b.nums("latency_residual_s", latency_residual_s);
  if (!mpc.present) {
    b.null("mpc");
  } else {
    b.field("mpc");
    ObjectBuilder m(out);
    m.num("fed_power_w", mpc.fed_power_w);
    m.nums("gains_w_per_mhz", mpc.gains_w_per_mhz);
    m.num("offset_w", mpc.offset_w);
    m.nums("weights", mpc.weights);
    m.nums("f_min_mhz", mpc.f_min_mhz);
    m.nums("f_max_mhz", mpc.f_max_mhz);
    m.nums("f_lo_mhz", mpc.f_lo_mhz);
    m.nums("f_hi_mhz", mpc.f_hi_mhz);
    m.ints("device_kinds", mpc.device_kinds);
    m.integer("prediction_horizon",
              static_cast<long long>(mpc.prediction_horizon));
    m.integer("control_horizon", static_cast<long long>(mpc.control_horizon));
    m.num("tracking_weight", mpc.tracking_weight);
    m.num("reference_decay", mpc.reference_decay);
    m.num("violation_decay", mpc.violation_decay);
    m.num("regularization", mpc.regularization);
    m.nums("deltas_mhz", mpc.deltas_mhz);
    m.nums("planned_deltas_mhz", mpc.planned_deltas_mhz);
    m.num("predicted_power_w", mpc.predicted_power_w);
    m.nums("predicted_power_horizon_w", mpc.predicted_power_horizon_w);
    m.nums("predicted_latency_s", mpc.predicted_latency_s);
    m.integer("qp_iterations", static_cast<long long>(mpc.qp_iterations));
    m.boolean("qp_converged", mpc.qp_converged);
    m.boolean("fast_path_hit", mpc.fast_path_hit);
    m.num("qp_objective", mpc.qp_objective);
    m.integer("active_set_size", static_cast<long long>(mpc.active_set_size));
    m.ints("floor_binding", mpc.floor_binding);
    m.ints("ceiling_binding", mpc.ceiling_binding);
    m.close();
  }
  b.close();
  return out;
}

FlightRecord FlightRecord::from_json(const json::Value& v) {
  CAPGPU_REQUIRE(v.is_object(), "flight record is not a JSON object");
  FlightRecord rec;
  rec.pid = int_at(v, "pid", 0);
  rec.period = size_at(v, "period");
  rec.t_s = v.number_or("t_s", 0.0);
  rec.policy = v.string_or("policy", "");
  rec.measured_power_w = v.number_or("measured_power_w", 0.0);
  rec.set_point_w = v.number_or("set_point_w", 0.0);
  rec.error_w = v.number_or("error_w", 0.0);
  rec.held = bool_at(v, "held");
  rec.hold_reason = v.string_or("hold_reason", "");
  rec.failsafe_state = int_at(v, "failsafe_state", -1);
  rec.failsafe_cause = v.string_or("failsafe_cause", "");
  rec.freqs_mhz = numbers_at(v, "freqs_mhz");
  rec.targets_mhz = numbers_at(v, "targets_mhz");
  rec.utilization = numbers_at(v, "utilization");
  rec.normalized_throughput = numbers_at(v, "normalized_throughput");
  rec.outcome_filled = bool_at(v, "outcome_filled");
  rec.realized_power_w = v.number_or("realized_power_w", 0.0);
  rec.power_residual_w = v.number_or("power_residual_w", 0.0);
  rec.realized_latency_s = numbers_at(v, "realized_latency_s");
  rec.latency_residual_s = numbers_at(v, "latency_residual_s");
  if (v.contains("mpc") && v.at("mpc").is_object()) {
    const json::Value& m = v.at("mpc");
    FlightMpcState& mpc = rec.mpc;
    mpc.present = true;
    mpc.fed_power_w = m.number_or("fed_power_w", 0.0);
    mpc.gains_w_per_mhz = numbers_at(m, "gains_w_per_mhz");
    mpc.offset_w = m.number_or("offset_w", 0.0);
    mpc.weights = numbers_at(m, "weights");
    mpc.f_min_mhz = numbers_at(m, "f_min_mhz");
    mpc.f_max_mhz = numbers_at(m, "f_max_mhz");
    mpc.f_lo_mhz = numbers_at(m, "f_lo_mhz");
    mpc.f_hi_mhz = numbers_at(m, "f_hi_mhz");
    mpc.device_kinds = ints_at(m, "device_kinds");
    const std::size_t n = mpc.gains_w_per_mhz.size();
    require_per_device(mpc.f_min_mhz.size(), n, "f_min_mhz");
    require_per_device(mpc.f_max_mhz.size(), n, "f_max_mhz");
    require_per_device(mpc.f_lo_mhz.size(), n, "f_lo_mhz");
    require_per_device(mpc.f_hi_mhz.size(), n, "f_hi_mhz");
    require_per_device(mpc.device_kinds.size(), n, "device_kinds");
    mpc.prediction_horizon = size_at(m, "prediction_horizon");
    mpc.control_horizon = size_at(m, "control_horizon");
    mpc.tracking_weight = m.number_or("tracking_weight", 0.0);
    mpc.reference_decay = m.number_or("reference_decay", 0.0);
    mpc.violation_decay = m.number_or("violation_decay", 0.0);
    mpc.regularization = m.number_or("regularization", 0.0);
    mpc.deltas_mhz = numbers_at(m, "deltas_mhz");
    mpc.planned_deltas_mhz = numbers_at(m, "planned_deltas_mhz");
    mpc.predicted_power_w = m.number_or("predicted_power_w", 0.0);
    mpc.predicted_power_horizon_w = numbers_at(m, "predicted_power_horizon_w");
    mpc.predicted_latency_s = numbers_at(m, "predicted_latency_s");
    mpc.qp_iterations = size_at(m, "qp_iterations");
    mpc.qp_converged = bool_at(m, "qp_converged");
    mpc.fast_path_hit = bool_at(m, "fast_path_hit");
    mpc.qp_objective = m.number_or("qp_objective", 0.0);
    mpc.active_set_size = size_at(m, "active_set_size");
    mpc.floor_binding = ints_at(m, "floor_binding");
    mpc.ceiling_binding = ints_at(m, "ceiling_binding");
  }
  return rec;
}

FlightRecorder::RunHealth& FlightRecorder::health_for(
    int pid, const std::string& policy) {
  RunHealth& h = health_[pid];
  auto& registry = MetricsRegistry::current();
  if (h.registry != &registry) {
    h.registry = &registry;
    h.records_total =
        &registry.counter(metric::kCtlFlightRecords,
                          "Flight records admitted to the recorder ring",
                          {{"policy", policy}});
    // Derived-health handles re-bind lazily on their next event.
    h.dropped_total = nullptr;
    h.power_ewma_gauge = nullptr;
    h.power_err_hist = nullptr;
    h.qp_iter_hist = nullptr;
    for (Counter*& c : h.path_counters) c = nullptr;
    h.nonconverged_counter = nullptr;
    h.floor_periods_counter = nullptr;
    h.ceiling_periods_counter = nullptr;
    h.floor_fraction_gauge = nullptr;
    h.ceiling_fraction_gauge = nullptr;
    h.latency_ewma_gauges.clear();
  }
  return h;
}

void FlightRecorder::record(FlightRecord rec) {
  if (!enabled_) return;
  if (pending_open_ && !records_.empty()) {
    FlightRecord& prev = records_.back();
    finalize(prev, prev.pid == rec.pid ? &rec : nullptr);
  }
  RunHealth& h = health_for(rec.pid, rec.policy);
  h.records_total->inc();
  if (capacity_ > 0 && records_.size() >= capacity_) {
    records_.pop_front();
    ++dropped_;
    if (h.dropped_total == nullptr) {
      h.dropped_total = &MetricsRegistry::current().counter(
          metric::kCtlFlightDroppedRecords,
          "Flight records evicted from the full recorder ring",
          {{"policy", rec.policy}});
    }
    h.dropped_total->inc();
  }
  records_.push_back(std::move(rec));
  pending_open_ = true;
}

FlightRecord* FlightRecorder::pending() {
  if (!enabled_ || !pending_open_ || records_.empty()) return nullptr;
  return &records_.back();
}

void FlightRecorder::finish() {
  if (pending_open_ && !records_.empty()) {
    finalize(records_.back(), nullptr);
  }
  pending_open_ = false;
}

void FlightRecorder::clear() {
  records_.clear();
  dropped_ = 0;
  pending_open_ = false;
  health_.clear();
}

void FlightRecorder::finalize(FlightRecord& prev, const FlightRecord* next) {
  if (prev.outcome_filled) return;
  prev.outcome_filled = true;
  // The trailing record of a run has no next period: its realized latency
  // (annotated by the rig) stands, but there is no next-step power, no
  // residuals, and — to keep health derivation on the run's own thread and
  // deterministic under --jobs — no metric or trace emission either.
  if (next == nullptr) return;

  RunHealth& h = health_for(prev.pid, prev.policy);
  auto& registry = MetricsRegistry::current();
  prev.realized_power_w = next->measured_power_w;

  const std::size_t n = prev.realized_latency_s.size();
  prev.latency_residual_s.assign(n, 0.0);
  if (h.prev_predicted_latency_s.size() == n) {
    if (h.latency_err_ewma.size() != n) {
      h.latency_err_ewma.assign(n, 0.0);
      h.latency_err_seen.assign(n, 0);
    }
    if (h.latency_ewma_gauges.size() != n) {
      h.latency_ewma_gauges.assign(n, nullptr);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double predicted = h.prev_predicted_latency_s[i];
      if (predicted <= 0.0 || prev.realized_latency_s[i] <= 0.0) continue;
      const double residual = prev.realized_latency_s[i] - predicted;
      prev.latency_residual_s[i] = residual;
      h.latency_err_ewma[i] =
          h.latency_err_seen[i] != 0
              ? (1.0 - kEwmaAlpha) * h.latency_err_ewma[i] +
                    kEwmaAlpha * std::abs(residual)
              : std::abs(residual);
      h.latency_err_seen[i] = 1;
      if (h.latency_ewma_gauges[i] == nullptr) {
        h.latency_ewma_gauges[i] = &registry.gauge(
            metric::kCtlLatencyPredictionErrorEwma,
            "EWMA of |realized - predicted| device latency",
            {{"policy", prev.policy}, {"device", std::to_string(i)}});
      }
      h.latency_ewma_gauges[i]->set(h.latency_err_ewma[i]);
    }
  }

  if (prev.mpc.present) {
    const double residual = next->measured_power_w - prev.mpc.predicted_power_w;
    prev.power_residual_w = residual;
    h.power_err_ewma = h.power_err_seen
                           ? (1.0 - kEwmaAlpha) * h.power_err_ewma +
                                 kEwmaAlpha * std::abs(residual)
                           : std::abs(residual);
    h.power_err_seen = true;
    if (h.power_ewma_gauge == nullptr) {
      const Labels policy_labels = {{"policy", prev.policy}};
      h.power_ewma_gauge = &registry.gauge(
          metric::kCtlPowerPredictionErrorEwma,
          "EWMA of |measured(k+1) - predicted(k+1|k)| server power",
          policy_labels);
      h.power_err_hist = &registry.histogram(
          metric::kCtlPowerPredictionError,
          "One-step server-power prediction error magnitude", kResidualSpec,
          policy_labels);
      h.qp_iter_hist = &registry.histogram(
          metric::kCtlQpIterations,
          "QP dual steps per control period", kIterationSpec,
          policy_labels);
    }
    h.power_ewma_gauge->set(h.power_err_ewma);
    h.power_err_hist->observe(std::abs(residual));
    h.qp_iter_hist->observe(static_cast<double>(prev.mpc.qp_iterations));

    const std::size_t path_idx = solver_path_index(prev.mpc);
    if (h.path_counters[path_idx] == nullptr) {
      h.path_counters[path_idx] = &registry.counter(
          metric::kCtlSolverPath, "Acted periods by control-solve path",
          {{"policy", prev.policy}, {"path", kSolverPathNames[path_idx]}});
    }
    h.path_counters[path_idx]->inc();
    if (!prev.mpc.qp_converged) {
      if (h.nonconverged_counter == nullptr) {
        h.nonconverged_counter = &registry.counter(
            metric::kCtlQpNonconverged,
            "Acted periods whose QP solve ended unconverged",
            {{"policy", prev.policy}});
      }
      h.nonconverged_counter->inc();
    }

    ++h.acted_periods;
    bool floor_any = false;
    bool ceiling_any = false;
    for (int f : prev.mpc.floor_binding) floor_any = floor_any || f != 0;
    for (int c : prev.mpc.ceiling_binding) ceiling_any = ceiling_any || c != 0;
    if (floor_any) {
      ++h.floor_binding_periods;
      if (h.floor_periods_counter == nullptr) {
        h.floor_periods_counter = &registry.counter(
            metric::kCtlBindingPeriods,
            "Control periods with a binding frequency constraint",
            {{"policy", prev.policy}, {"constraint", "floor"}});
      }
      h.floor_periods_counter->inc();
    }
    if (ceiling_any) {
      ++h.ceiling_binding_periods;
      if (h.ceiling_periods_counter == nullptr) {
        h.ceiling_periods_counter = &registry.counter(
            metric::kCtlBindingPeriods,
            "Control periods with a binding frequency constraint",
            {{"policy", prev.policy}, {"constraint", "ceiling"}});
      }
      h.ceiling_periods_counter->inc();
    }
    const double acted = static_cast<double>(h.acted_periods);
    if (h.floor_fraction_gauge == nullptr) {
      h.floor_fraction_gauge = &registry.gauge(
          metric::kCtlBindingFraction,
          "Fraction of acted periods with a binding constraint",
          {{"policy", prev.policy}, {"constraint", "floor"}});
      h.ceiling_fraction_gauge = &registry.gauge(
          metric::kCtlBindingFraction,
          "Fraction of acted periods with a binding constraint",
          {{"policy", prev.policy}, {"constraint", "ceiling"}});
    }
    h.floor_fraction_gauge->set(static_cast<double>(h.floor_binding_periods) /
                                acted);
    h.ceiling_fraction_gauge->set(
        static_cast<double>(h.ceiling_binding_periods) / acted);
    h.prev_predicted_latency_s = prev.mpc.predicted_latency_s;

    Tracer& tracer = Tracer::current();
    if (tracer.enabled()) {
      if (h.trace_tid == 0) h.trace_tid = tracer.register_track("flight");
      if (std::abs(residual) > kPowerAnomalyWatts) {
        tracer.instant(h.trace_tid, "flight_prediction_anomaly", "control",
                       {{"power_residual_w", residual},
                        {"period", static_cast<double>(prev.period)}});
      }
      if (!prev.mpc.qp_converged) {
        tracer.instant(
            h.trace_tid, "flight_qp_fallback", "control",
            {{"qp_iterations", static_cast<double>(prev.mpc.qp_iterations)},
             {"period", static_cast<double>(prev.period)}});
      }
    }
  }

  if (h.prev_failsafe_state >= 0 && prev.failsafe_state >= 0 &&
      prev.failsafe_state != h.prev_failsafe_state) {
    registry
        .counter(metric::kCtlFallbackTransitions,
                 "Fail-safe governor state transitions seen by the recorder",
                 {{"policy", prev.policy},
                  {"kind", std::string(failsafe_name(h.prev_failsafe_state)) +
                               "_to_" + failsafe_name(prev.failsafe_state)},
                  {"cause", prev.failsafe_cause.empty()
                                ? "none"
                                : prev.failsafe_cause}})
        .inc();
  }
  h.prev_failsafe_state = prev.failsafe_state;
}

void FlightRecorder::write_jsonl(std::ostream& out) const {
  for (const FlightRecord& rec : records_) {
    out << rec.to_jsonl() << '\n';
  }
}

void FlightRecorder::save_jsonl(const std::string& path) {
  finish();
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open flight log for writing: " + path);
  write_jsonl(out);
}

void FlightRecorder::merge_from(FlightRecorder&& other, int pid_offset) {
  other.finish();
  for (FlightRecord& rec : other.records_) {
    rec.pid += pid_offset;
    if (capacity_ > 0 && records_.size() >= capacity_) {
      records_.pop_front();
      ++dropped_;
    }
    records_.push_back(std::move(rec));
  }
  dropped_ += other.dropped_;
  other.clear();
}

}  // namespace capgpu::telemetry
