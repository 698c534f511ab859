// The experiment rig: the paper's hardware testbed, assembled in software.
//
// One call builds the whole stack — server model (Xeon + N V100s), HAL
// (NVML / cpupower / RAPL / ACPI meter), inference streams (one model per
// GPU with a dedicated preprocessing core), the CPU-side feature-selection
// job, and the utilization plumbing between them. Benches construct a fresh
// rig per run (the DES is not resettable) and drive any policy through
// ServerRig::run().
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/controller_iface.hpp"
#include "control/latency_model.hpp"
#include "control/sysid.hpp"
#include "core/control_loop.hpp"
#include "core/identify.hpp"
#include "hal/fault_injection.hpp"
#include "hal/rapl_sim.hpp"
#include "hal/server_hal.hpp"
#include "hw/server_model.hpp"
#include "sim/engine.hpp"
#include "telemetry/energy.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/stats.hpp"
#include "telemetry/timeseries.hpp"
#include "workload/arrivals.hpp"
#include "workload/cpu_load.hpp"
#include "workload/model_zoo.hpp"
#include "workload/pipeline.hpp"

namespace capgpu::core {

/// Rig configuration (defaults reproduce the paper's testbed, Sec 5/6.1).
struct RigConfig {
  /// Inference models, one per GPU (defaults to t1..t3 on 3 V100s).
  std::vector<workload::ModelSpec> models;
  std::size_t preprocess_workers_per_stream{1};
  std::size_t total_cores{40};
  std::size_t controller_cores{1};
  /// Cores for the feature-selection job; 0 = all cores not otherwise used.
  std::size_t cpu_task_cores{0};
  double cpu_task_subset_s_ghz{0.08};
  hal::AcpiPowerMeterParams meter{};
  /// Throughput-normalization window fed to the weight assigner.
  Seconds throughput_window{8.0};
  /// When true, the CPU frequency command also slows the preprocessing
  /// (data-copy) cores. The paper's Sec 6 testbed keeps those cores at the
  /// top P-state and throttles only the CPU-workload cores (Sec 6.3), so
  /// the default is false; the motivation experiment uses package DVFS.
  bool throttle_preprocess_cores{false};
  /// Open-loop serving: when non-empty, every stream is fed by a Poisson
  /// arrival process instead of running saturated. Each schedule point's
  /// rate is a *fraction* of the stream's peak throughput (batch/e_min),
  /// so one schedule describes the offered-load shape for all models.
  std::vector<workload::RatePoint> offered_load;
  /// When set, the control loop sees the HAL through fault-injection
  /// decorators running this plan (chaos experiments); the workload and
  /// physics keep running on the pristine hardware model underneath.
  std::optional<hal::FaultPlan> faults;
  std::uint64_t seed{1};
};

/// One experiment run's schedule and length.
struct RunOptions {
  std::size_t periods{100};
  Watts set_point{900.0};
  ControlLoopConfig loop{};
  /// Set-point changes: period index -> new set point.
  std::map<std::size_t, Watts> set_point_changes;
  /// SLOs applied at period 0: GPU device id (1..N) -> seconds.
  std::map<std::size_t, double> initial_slos;
  /// SLO changes: (period, device, slo_seconds).
  std::vector<std::tuple<std::size_t, std::size_t, double>> slo_changes;
  /// Per-batch latency samples from this period onward feed the
  /// steady-state percentile trackers in RunResult (the paper analyses the
  /// last 80 of 100 periods).
  std::size_t percentile_skip{20};
  /// Error-budget burn-rate alerting on the SLO miss accounting: one
  /// monitor per stream, fed each control period, surfaced as metrics,
  /// trace instants and telemetry::SloRegistry entries (--slo-report-out).
  /// Streams without an active SLO never record and never alert.
  telemetry::SloBurnConfig slo_burn{};
  /// Per-request energy attribution (telemetry::EnergyLedger): integrate
  /// the pristine meter each control period and apportion the joules to
  /// the period's completed batches, finalized into
  /// telemetry::EnergyRegistry entries (--energy-out). Off = the baseline
  /// of the selfperf energy-overhead guard.
  bool energy_attribution{true};
};

/// Per-period traces of one run.
struct RunResult {
  telemetry::TimeSeries power{"power", "W"};
  telemetry::TimeSeries set_point{"set_point", "W"};
  std::vector<telemetry::TimeSeries> device_freqs;      ///< per device
  std::vector<telemetry::TimeSeries> gpu_latency;       ///< mean batch e_i
  std::vector<telemetry::TimeSeries> gpu_slo;           ///< active SLO (0 = none)
  std::vector<telemetry::TimeSeries> gpu_throughput;    ///< img/s
  /// Per-stream, per-pipeline-stage mean request latency each period
  /// (indexed [stream][stage], stage order = workload::kStageNames).
  std::vector<std::vector<telemetry::TimeSeries>> gpu_stage_latency;
  telemetry::TimeSeries cpu_throughput{"cpu_thr", "subsets/s"};
  telemetry::TimeSeries cpu_latency{"cpu_lat", "s"};
  std::vector<telemetry::RatioCounter> slo_misses;      ///< per GPU, per batch
  /// Per-GPU batch-latency distribution over the steady segment
  /// (periods >= RunOptions::percentile_skip): p50/p95/p99 tails.
  std::vector<telemetry::PercentileTracker> gpu_latency_dist;
  std::size_t periods{0};

  /// Loop robustness counters (all zero on a fault-free unhardened run).
  std::size_t held_periods{0};
  std::size_t skipped_periods{0};
  std::size_t actuation_retries{0};
  std::size_t actuation_failures{0};
  std::size_t readback_mismatches{0};
  std::size_t failsafe_engagements{0};
  std::size_t failsafe_releases{0};

  /// Steady-state power stats over the last `periods - skip` periods
  /// (the paper uses the last 80 of 100).
  [[nodiscard]] telemetry::RunningStats steady_power(std::size_t skip) const;
};

/// The assembled testbed.
class ServerRig {
 public:
  explicit ServerRig(RigConfig config = RigConfig{});
  /// Detaches this rig's engine from the global telemetry time source.
  ~ServerRig();

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] hw::ServerModel& server() { return server_; }
  [[nodiscard]] hal::ServerHal& hal() { return *hal_; }
  /// The HAL the control loop drives: the fault wrapper when
  /// RigConfig::faults is set, the pristine HAL otherwise.
  [[nodiscard]] hal::IServerHal& control_hal();
  /// The fault-injection wrapper, or nullptr when RigConfig::faults is
  /// unset (for inspecting injection counters after a chaos run).
  [[nodiscard]] hal::FaultyServerHal* faulty_hal() { return faulty_.get(); }
  [[nodiscard]] hal::RaplSim& rapl() { return rapl_; }
  [[nodiscard]] std::size_t gpu_count() const { return server_.gpu_count(); }
  [[nodiscard]] workload::InferenceStream& stream(std::size_t i);
  [[nodiscard]] workload::CpuTaskSim& cpu_task() { return *cpu_task_; }
  [[nodiscard]] const RigConfig& config() const { return config_; }
  /// This rig's trace "process" id (joins SloRegistry entries and
  /// capgpu_report output back to the event stream).
  [[nodiscard]] int trace_pid() const { return trace_pid_; }

  /// Device frequency ranges in controller layout (0 = CPU, 1.. = GPUs).
  [[nodiscard]] std::vector<control::DeviceRange> device_ranges() const;

  /// Normalized throughput per device over the configured window.
  [[nodiscard]] std::vector<double> normalized_throughputs() const;

  /// Rack-level demand signal in [0, 1]: mean over GPUs of
  /// (pipeline occupancy) * (remaining clock headroom). A server whose
  /// GPUs are busy at low clocks wants more budget (high demand); one
  /// whose GPUs idle between batches — or already run near f_max — gains
  /// little from extra watts (low demand). Feed this to
  /// rack::ServerEndpoint::demand.
  [[nodiscard]] double gpu_demand() const;

  /// Controller-side latency models, one per GPU device id, taken from the
  /// model specs (equivalently obtainable by fitting; see bench fig2b).
  [[nodiscard]] std::map<std::size_t, control::LatencyModel> latency_models() const;

  /// Runs the paper's sysid sweep on this rig (advances simulated time).
  /// Between the sweep's steps, outside any event, trims every monitor to
  /// max(options.measure, RigConfig::throughput_window), as end_period()
  /// trims to its period: the sweep runs minutes of simulated time without
  /// a control period. A query made when identify() returns may reach back
  /// that far and no further.
  [[nodiscard]] control::IdentifiedModel identify(IdentifyOptions options = {});

  /// Analytic power model straight from the hardware parameters at full
  /// utilization — the "true" plant gains, useful for tests and for benches
  /// that skip the identification sweep.
  [[nodiscard]] control::LinearPowerModel analytic_power_model() const;

  /// Drives `policy` for options.periods control periods and returns the
  /// traces. One run per rig (simulated time is not resettable).
  [[nodiscard]] RunResult run(baselines::IServerPowerController& policy,
                              const RunOptions& options);

  // --- Per-period bookkeeping shared by every driver of this rig ---------
  // run() uses these, and so does any driver that runs its own
  // ControlLoop over the rig (fleet::run_fleet, the rack campaign).

  /// Turns on per-request energy attribution: one ledger over every stream
  /// of this rig, credited to `policy`, fed by end_period() and finalized
  /// by settle().
  void attribute_energy(const std::string& policy);

  /// Closes one control period once the driver has read its monitors.
  /// With attribution on, integrates the *pristine* meter over the period
  /// (a sensor gap holds the previous reading so the integral stays
  /// continuous; chaos runs integrate the true plant, not the faulted
  /// readings) at cap `set_point_w`, and drains the streams' completed
  /// batches into the ledger. Then trims every monitor of the streams and
  /// the CPU task to max(period_s, RigConfig::throughput_window): the
  /// longest window any consumer of this rig reads (the per-period reads
  /// of run() and of the fleet rig, normalized_throughputs(),
  /// gpu_demand()). A later query on a longer finite window throws
  /// InvalidArgument.
  void end_period(double set_point_w, double period_s);

  /// Settles the rig after its loop stops: pushes stage stats deferred
  /// since the last control tick into the sketches, then finalizes the
  /// energy ledger into EnergyRegistry::current(). Batches completing
  /// after the final tick fall outside the integrated meter window and are
  /// dropped with it.
  void settle();

 private:
  /// Trims every monitor of the streams and the CPU task to
  /// max(period_s, RigConfig::throughput_window) before now (see
  /// end_period()).
  void trim_monitors(double period_s);

  RigConfig config_;
  sim::Engine engine_;
  hw::ServerModel server_;
  std::unique_ptr<hal::ServerHal> hal_;
  std::unique_ptr<hal::FaultyServerHal> faulty_;
  hal::RaplSim rapl_;
  workload::HostCpuLoad host_load_;
  std::vector<std::unique_ptr<workload::InferenceStream>> streams_;
  std::vector<std::unique_ptr<workload::ArrivalProcess>> arrivals_;
  std::unique_ptr<workload::CpuTaskSim> cpu_task_;
  std::optional<telemetry::EnergyLedger> ledger_;
  double last_meter_w_{0.0};
  int trace_pid_{0};
  bool ran_{false};
};

}  // namespace capgpu::core
