// Control-loop flight recorder: one structured FlightRecord per control
// period, streamed to --flight-out JSONL.
//
// Each record is self-contained: the validated samples the loop saw, the
// commands it chose, the MPC's full replay state (model gains, weights,
// effective bounds, QP diagnostics) and — filled one period later — the
// realized outcome and prediction-error residuals. Self-containment is the
// point: tools/capgpu_ctl_replay re-executes the recorded controller on any
// single record without walking the log, and asserts the caps come out
// bit-identical (doubles serialize at %.17g, which round-trips exactly).
//
// The recorder is a bounded ring (oldest records drop first, counted), off
// by default, and is one sink of a telemetry::Context, merged with
// merge_from(other, pid_offset) so parallel scenario sweeps produce
// byte-identical logs for any --jobs.
// While finalizing records it derives the controller-health metrics
// (prediction-error EWMAs, binding-constraint fractions, QP iteration
// histogram, fail-safe transitions) and emits anomaly trace instants.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace capgpu::json {
class Value;
}

namespace capgpu::telemetry {

class Counter;
class Gauge;
class LogLinearHistogram;
class MetricsRegistry;

/// MPC replay state + QP diagnostics of one acted period. `present` is
/// false for held periods and for policies that do not describe themselves
/// (baselines): such records document the loop but cannot be re-solved.
struct FlightMpcState {
  bool present{false};
  /// Power measurement fed to the MPC (measured + PRBS excitation when
  /// adaptive identification is on) — the solver's actual input.
  double fed_power_w{0.0};
  // Identified difference model dp = A * dF + C at this period (post-RLS).
  std::vector<double> gains_w_per_mhz;
  double offset_w{0.0};
  /// Control-penalty weights as handed to the MPC (post EMA smoothing and
  /// priority division).
  std::vector<double> weights;
  std::vector<double> f_min_mhz;  ///< effective floors (SLO bounds applied)
  std::vector<double> f_max_mhz;  ///< effective ceilings (thermal applied)
  std::vector<double> f_lo_mhz;   ///< device spec range, lower
  std::vector<double> f_hi_mhz;   ///< device spec range, upper
  std::vector<int> device_kinds;  ///< 0 = CPU, 1 = GPU
  // MpcConfig of the solving controller.
  std::size_t prediction_horizon{0};
  std::size_t control_horizon{0};
  double tracking_weight{0.0};
  double reference_decay{0.0};
  double violation_decay{0.0};
  double regularization{0.0};
  // Decision and predicted trajectory.
  std::vector<double> deltas_mhz;          ///< applied first moves d(k)
  std::vector<double> planned_deltas_mhz;  ///< full stacked solution (n*M)
  double predicted_power_w{0.0};           ///< p(k+1|k), clamped first move
  std::vector<double> predicted_power_horizon_w;  ///< p(k+i|k), i=1..P
  std::vector<double> predicted_latency_s;        ///< per device, 0 = no model
  // QP diagnostics.
  std::size_t qp_iterations{0};  ///< dual steps of the QP solve
  bool qp_converged{false};
  /// The unconstrained minimiser was feasible (zero dual steps).
  bool fast_path_hit{false};
  double qp_objective{0.0};
  std::size_t active_set_size{0};
  std::vector<int> floor_binding;    ///< per device, first-move floor active
  std::vector<int> ceiling_binding;  ///< per device, first-move ceiling active
};

/// One control period, as the loop experienced it.
struct FlightRecord {
  int pid{0};            ///< trace pid of the owning rig/run
  std::size_t period{0};
  double t_s{0.0};       ///< sim time at the end of the period
  std::string policy;
  double measured_power_w{0.0};
  double set_point_w{0.0};
  double error_w{0.0};
  bool held{false};           ///< commands held, policy not consulted
  std::string hold_reason;    ///< deadband / sensor_gap / dark / recovering /
                              ///< failsafe_degrade (held=false for the latter)
  int failsafe_state{-1};     ///< FailSafeState as int; -1 = unhardened loop
  std::string failsafe_cause; ///< why the governor last engaged (meter_dark /
                              ///< actuation_fail); "" while nominal
  std::vector<double> freqs_mhz;    ///< fractional commands entering the period
  std::vector<double> targets_mhz;  ///< fractional commands after the decision
  std::vector<double> utilization;
  std::vector<double> normalized_throughput;
  FlightMpcState mpc;
  // Realized outcomes. Latencies are annotated by the rig at the end of
  // this period; power and the residuals are filled when the next record
  // arrives (finalization).
  bool outcome_filled{false};
  double realized_power_w{0.0};
  /// Next period's measured power minus this period's p(k+1|k).
  double power_residual_w{0.0};
  std::vector<double> realized_latency_s;  ///< per device, mean batch latency
  /// Realized mean latency this period minus the previous record's
  /// prediction (the caps that shaped this period were chosen then).
  std::vector<double> latency_residual_s;

  /// One JSONL line (no trailing newline). Doubles print at %.17g.
  [[nodiscard]] std::string to_jsonl() const;
  /// Inverse of to_jsonl for one parsed line. Throws InvalidArgument when
  /// the line is not an object, or when an mpc object's per-device arrays
  /// (bounds, spec range, device kinds) do not each hold one entry per
  /// gain.
  [[nodiscard]] static FlightRecord from_json(const json::Value& v);
};

/// Ring-buffered per-period sink with controller-health derivation.
class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Ring capacity; the oldest records drop (and count) once exceeded.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Admits one period's record: finalizes the previous pending record of
  /// the same pid (residuals, health metrics, anomaly instants), then
  /// stores `rec`. No-op when disabled.
  void record(FlightRecord rec);

  /// The most recently admitted record, for late annotation (the rig adds
  /// realized latencies from its end-of-period callback). Null when empty.
  [[nodiscard]] FlightRecord* pending();

  /// Finalizes the trailing pending record (its residuals stay unfilled —
  /// there is no next period — but it is marked complete). Idempotent;
  /// save_jsonl calls it implicitly.
  void finish();

  [[nodiscard]] const std::deque<FlightRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }
  void clear();

  void write_jsonl(std::ostream& out) const;
  void save_jsonl(const std::string& path);

  /// Appends another recorder's records with their pids shifted by
  /// `pid_offset` (the parent tracer's pid count before its own merge —
  /// the same offset SloRegistry uses), keeping flight logs byte-identical
  /// across --jobs values. Finalizes the other recorder first.
  void merge_from(FlightRecorder&& other, int pid_offset);

  /// The process-wide recorder, Context::global().flight().
  static FlightRecorder& global();
  /// The recorder instrumentation on this thread writes to: that of the
  /// thread's bound telemetry::Context (see context.hpp).
  static FlightRecorder& current();

 private:
  /// Per-run derivation state (keyed by pid), not merged or serialized.
  struct RunHealth {
    double power_err_ewma{0.0};
    bool power_err_seen{false};
    std::vector<double> latency_err_ewma;
    std::vector<char> latency_err_seen;
    std::vector<double> prev_predicted_latency_s;
    std::size_t acted_periods{0};
    std::size_t floor_binding_periods{0};
    std::size_t ceiling_binding_periods{0};
    int prev_failsafe_state{-1};
    int trace_tid{0};
    // Pre-resolved metric handles (registry instrument references are
    // stable): the per-period hot path is a plain add/set with no name
    // hashing or label allocation, which keeps recorder overhead inside
    // the 5% budget guarded by bench_pipeline_selfperf. Rebound whenever
    // the thread's registry changes; the derived-health handles stay null
    // until their first event so series appear exactly as they used to.
    MetricsRegistry* registry{nullptr};
    Counter* records_total{nullptr};
    Counter* dropped_total{nullptr};
    Gauge* power_ewma_gauge{nullptr};
    LogLinearHistogram* power_err_hist{nullptr};
    LogLinearHistogram* qp_iter_hist{nullptr};
    /// capgpu_ctl_solver_path_total, one handle per path in the order
    /// fast / cold (see solver_path_index).
    Counter* path_counters[2]{};
    Counter* nonconverged_counter{nullptr};
    Counter* floor_periods_counter{nullptr};
    Counter* ceiling_periods_counter{nullptr};
    Gauge* floor_fraction_gauge{nullptr};
    Gauge* ceiling_fraction_gauge{nullptr};
    std::vector<Gauge*> latency_ewma_gauges;
  };

  /// The pid's health slot with metric handles bound to the thread's
  /// current registry (re-resolving them if the registry changed).
  RunHealth& health_for(int pid, const std::string& policy);

  /// Fills `prev`'s realized power + residuals from `next` and folds the
  /// completed record into the health metrics.
  void finalize(FlightRecord& prev, const FlightRecord* next);

  bool enabled_{false};
  std::size_t capacity_{65536};
  std::deque<FlightRecord> records_;
  std::size_t dropped_{0};
  bool pending_open_{false};  ///< records_.back() awaits finalization
  std::map<int, RunHealth> health_;
};

}  // namespace capgpu::telemetry
