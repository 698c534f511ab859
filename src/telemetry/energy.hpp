// Per-request energy attribution: the ledger that turns the rig's metered
// power trace into joules-per-inference accounting.
//
// Every control period the rig integrates the pristine power meter over the
// period (E = P_avg * T) and hands the ledger the batches that completed in
// it. The ledger splits the period's energy into an active share — the
// fraction of GPU-seconds actually occupied by batch execution
// (duty = min(1, busy_s / (gpus * T))) — and an idle remainder. Active
// energy is apportioned to batches by their GPU-exec occupancy share, then
// within a batch to pipeline stages by request-residency share (the same
// quantized per-stage durations the latency sketches record, so attribution
// adds no hot-path work beyond an EnergyBatch append per batch). Results
// accumulate per (power-cap, model) — caps keyed at 0.1 W, matching
// capgpu_report's bucketing — and surface three ways:
//
//   * metrics: capgpu_energy_joules_total{model,stage},
//     capgpu_energy_idle_joules_total, and a per-request
//     capgpu_request_energy_joules{model} sketch
//   * EnergyRegistry entries rendered by --energy-out
//     (write_energy_report): per-{cap,model} stage joules plus a per-cap
//     efficiency summary (joules/request, requests/kJ, idle fraction,
//     dominant energy stage)
//   * the --summary-out energy block in bench/common
//
// The registry follows the SloRegistry discipline (one sink of a
// telemetry::Context, scenario-order merge_from) so --energy-out is
// byte-identical for any --jobs N. Total ledger joules reconcile with the
// integrated meter trace exactly: both are the same per-period P_avg * T
// samples.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace capgpu::telemetry {

class Counter;
class MetricsRegistry;
class QuantileSketch;

/// Pipeline stage count / labels, mirroring workload::kStageCount and
/// workload::kStageNames (telemetry cannot depend on workload; pipeline.cpp
/// static_asserts the two stay in lockstep).
inline constexpr std::size_t kEnergyStageCount = 4;
inline constexpr const char* kEnergyStageNames[kEnergyStageCount] = {
    "preprocess_queue",
    "cpu_preprocess",
    "gpu_batch_queue",
    "gpu_exec",
};

/// One completed GPU batch as the pipeline hands it to the ledger: the
/// exec interval plus the summed per-request stage residencies (quantized
/// exactly like the latency sketches, so replayed batches stay consistent).
struct EnergyBatch {
  double start_s{0.0};  ///< GPU exec start (completed - exec latency)
  double end_s{0.0};    ///< completion stamp
  std::uint32_t images{0};
  /// Sum over the batch's requests of each stage's duration, seconds
  /// (stage_s[kGpuExec] is exec latency * images).
  std::array<double, kEnergyStageCount> stage_s{};
};

/// Final per-(cap, model) energy attribution, tagged with the trace pid of
/// the rig that produced it (joins --energy-out against the event stream).
struct EnergyEntry {
  int pid{0};
  std::string policy;
  std::string model;
  double cap_watts{0.0};
  double energy_joules{0.0};  ///< active energy attributed to this model
  std::array<double, kEnergyStageCount> stage_joules{};
  std::uint64_t requests{0};
  std::uint64_t batches{0};
};

/// Per-cap rollup: the meter-integral bookkeeping --energy-out's
/// efficiency summary is computed from.
struct EnergyCapSummary {
  int pid{0};
  std::string policy;
  double cap_watts{0.0};
  std::uint64_t periods{0};
  double total_joules{0.0};   ///< integrated meter energy at this cap
  double active_joules{0.0};  ///< attributed to batch execution
  double idle_joules{0.0};    ///< total - active
  std::uint64_t requests{0};
  std::uint64_t batches{0};
};

/// Accumulates one rig run's energy attribution. Construct per run (after
/// the rig's trace pid exists), feed each control period, finalize() once
/// into EnergyRegistry::current().
class EnergyLedger {
 public:
  /// Registers the energy metrics ({model, stage} counters, idle counter,
  /// per-request sketches) in MetricsRegistry::current(). `gpus` is the
  /// number of GPU execution slots (one per stream on the paper's rig) —
  /// the denominator of the duty cycle.
  EnergyLedger(std::string policy, int pid, std::size_t gpus,
               std::vector<std::string> model_names);

  EnergyLedger(const EnergyLedger&) = delete;
  EnergyLedger& operator=(const EnergyLedger&) = delete;

  /// Opens period accounting: `cap_watts` is the active set point,
  /// `avg_power_watts` the meter average over the period, `period_s` its
  /// length. E = avg_power * period_s joules enter the ledger.
  void begin_period(double cap_watts, double avg_power_watts, double period_s);
  /// Adds the batches stream `stream` completed this period.
  void add_batches(std::size_t stream, const EnergyBatch* batches,
                   std::size_t count);
  /// Closes the period: splits the energy active/idle, apportions the
  /// active share across the period's batches and bumps the metrics.
  void end_period();

  /// Pushes the per-cap accumulators into `registry` (cap order, then
  /// stream order — deterministic). Call once, after the run.
  void finalize(class EnergyRegistry& registry) const;

  /// Total joules integrated so far (sum of every period's P_avg * T).
  [[nodiscard]] double total_joules() const { return total_joules_; }

 private:
  struct ModelAccum {
    double energy_joules{0.0};
    std::array<double, kEnergyStageCount> stage_joules{};
    std::uint64_t requests{0};
    std::uint64_t batches{0};
  };
  struct CapAccum {
    double cap_watts{0.0};
    std::uint64_t periods{0};
    double total_joules{0.0};
    double active_joules{0.0};
    double idle_joules{0.0};
    std::uint64_t requests{0};
    std::uint64_t batches{0};
    std::vector<ModelAccum> models;
  };

  std::string policy_;
  int pid_;
  std::size_t gpus_;
  std::vector<std::string> model_names_;

  // Metric handles, resolved once (indexed [stream][stage] / [stream]).
  std::vector<std::array<Counter*, kEnergyStageCount>> stage_counters_;
  Counter* idle_counter_{nullptr};
  std::vector<QuantileSketch*> request_sketches_;

  // Period scratch (between begin_period and end_period).
  bool period_open_{false};
  double period_energy_j_{0.0};
  double period_s_{0.0};
  CapAccum* period_cap_{nullptr};
  std::vector<std::vector<EnergyBatch>> period_batches_;  ///< per stream

  /// Accumulators keyed by llround(cap * 10) — 0.1 W buckets, the same
  /// rounding capgpu_report uses to group periods by cap.
  std::map<long long, CapAccum> caps_;
  double total_joules_{0.0};
};

/// Accumulates finalized ledgers across runs. Like every sink it belongs to
/// a telemetry::Context, so parallel scenarios stay isolated and merge
/// deterministically in scenario order.
class EnergyRegistry {
 public:
  EnergyRegistry() = default;
  EnergyRegistry(const EnergyRegistry&) = delete;
  EnergyRegistry& operator=(const EnergyRegistry&) = delete;

  void add_entry(EnergyEntry entry);
  void add_cap(EnergyCapSummary cap);

  [[nodiscard]] const std::vector<EnergyEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] const std::vector<EnergyCapSummary>& caps() const {
    return caps_;
  }
  void clear() {
    entries_.clear();
    caps_.clear();
  }

  /// Appends another registry's records, shifting their pids by
  /// `pid_offset` — pass the parent tracer's pid captured *before*
  /// Tracer::merge_from, exactly as for SloRegistry.
  void merge_from(const EnergyRegistry& other, int pid_offset);

  /// Context::global().energy() / Context::current().energy().
  static EnergyRegistry& global();
  static EnergyRegistry& current();

 private:
  std::vector<EnergyEntry> entries_;
  std::vector<EnergyCapSummary> caps_;
};

/// Renders the --energy-out JSON: every per-{cap,model} entry (stage
/// joules, joules/request) plus the per-cap efficiency summary
/// (joules/request, requests/kJ, idle fraction, dominant energy stage).
/// Deterministic byte-for-byte given the same registry.
void write_energy_report(const EnergyRegistry& energy, std::ostream& out);
std::string to_energy_report(const EnergyRegistry& energy);
void save_energy_report(const EnergyRegistry& energy, const std::string& path);

}  // namespace capgpu::telemetry
