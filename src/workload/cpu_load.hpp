// Host CPU load aggregation and the CPU-side background workload.
//
// The paper's testbed (Sec 5) dedicates one core per GPU stream for data
// preparation, one core to the controller, and fills the remaining cores
// with an exhaustive feature-selection job. HostCpuLoad folds all of that
// into the package utilization the power model consumes; CpuTaskSim is the
// DES counterpart of the feature-selection workload, with throughput
// ("feature subsets evaluated per second", Sec 3.1) scaling with CPU
// frequency.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "hw/cpu_model.hpp"
#include "sim/engine.hpp"
#include "workload/monitors.hpp"

namespace capgpu::workload {

/// Aggregates per-core activity into the package utilization.
class HostCpuLoad {
 public:
  /// `total_cores` is the package core count (40 on the paper's testbed).
  HostCpuLoad(hw::CpuModel& cpu, std::size_t total_cores);

  /// Registers `n` cores that are always busy (background workload,
  /// controller core, ...).
  void add_always_busy_cores(std::size_t n);

  /// Preprocessing workers toggling between computing and blocked; wire
  /// InferenceStream::on_worker_compute_change to this.
  void worker_compute_delta(int delta);

  [[nodiscard]] double utilization() const;
  [[nodiscard]] std::size_t total_cores() const { return total_cores_; }

 private:
  void push_utilization();

  hw::CpuModel* cpu_;
  std::size_t total_cores_;
  std::size_t always_busy_{0};
  long computing_workers_{0};
};

/// Parameters of the simulated feature-selection background job.
struct CpuTaskParams {
  std::size_t cores{36};
  /// Per-subset evaluation cost in seconds * GHz on one core: at frequency
  /// f the evaluation takes subset_s_ghz / f_GHz seconds.
  double subset_s_ghz{0.08};
  double jitter_frac{0.05};
};

/// DES model of the exhaustive feature-selection job: `cores` cores each
/// evaluate one feature subset per round; a round takes one subset time.
/// Rounds form one lazy event chain (sim::Engine::LazyChain): each round's
/// completion records it and draws the next round's subset time from the
/// CPU frequency at that moment. Nothing but the task's own monitors sees a
/// round, and every frequency change and monitor read runs as a heap event
/// or between engine runs, so the rounds stay out of the heap.
class CpuTaskSim : private sim::Engine::LazyChain {
 public:
  CpuTaskSim(sim::Engine& engine, hw::CpuModel& cpu, CpuTaskParams params,
             Rng rng);

  CpuTaskSim(const CpuTaskSim&) = delete;
  CpuTaskSim& operator=(const CpuTaskSim&) = delete;

  void start();

  /// Subsets evaluated per second; max is at the top P-state.
  [[nodiscard]] ThroughputMonitor& throughput() { return throughput_; }
  [[nodiscard]] const ThroughputMonitor& throughput() const { return throughput_; }
  /// Wall-clock time of one subset evaluation (paper Fig 7(d)).
  [[nodiscard]] LatencyMonitor& subset_latency() { return subset_latency_; }
  [[nodiscard]] const LatencyMonitor& subset_latency() const { return subset_latency_; }
  /// Trims both monitors to `horizon` seconds before `now`.
  void trim_monitors(sim::SimTime now, double horizon) {
    throughput_.trim(now, horizon);
    subset_latency_.trim(now, horizon);
  }

  [[nodiscard]] std::uint64_t subsets_evaluated() const { return subsets_; }
  [[nodiscard]] const CpuTaskParams& params() const { return params_; }

 private:
  /// Draws the next round's subset time and arms its completion event.
  void run_round();
  /// Completes the current round and starts the next.
  void fire() override;

  sim::Engine* engine_;
  hw::CpuModel* cpu_;
  CpuTaskParams params_;
  Rng rng_;
  ThroughputMonitor throughput_;
  LatencyMonitor subset_latency_;
  std::uint64_t subsets_{0};
  double round_time_{0.0};  ///< subset time of the current round
  bool started_{false};
};

}  // namespace capgpu::workload
