// Outside-in tracing for the end-to-end benchmark.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public functions (rig and policy construction, ServerRig::run,
// ScenarioRunner::map, fleet campaigns) and, through TimedController,
// around every control() call. Nothing reaches inside the library, so a
// traced run executes exactly the simulated work an untraced run does; the
// layers the library does not expose (DES kernel vs pipeline handlers vs
// monitors, telemetry record paths, fleet barrier/cascade/merge) stay
// folded into their caller's self time.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "baselines/controller_iface.hpp"
#include "core/capgpu_controller.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed interval around a call into a layer.
struct Span {
  const char* name;  ///< static string: the layer-qualified call name
  double start_s;    ///< seconds since the log was created
  double end_s;
  int parent;        ///< index of the enclosing span, -1 for a root
};

/// Counts read from outside after each traced call (rig runs only; the
/// fleet's rigs live inside FleetSim and are read through the registry).
struct LayerCounts {
  double rig_runs{0.0};
  double periods{0.0};              ///< control periods of traced rig runs
  double events{0.0};               ///< engine events those runs executed
  double monitor_live_samples{0.0}; ///< summed at each run's end
  double capgpu_steps{0.0};
  double qp_iterations{0.0};
  double qp_nonconverged{0.0};
  double fast_path_hits{0.0};
  double fleet_full_epochs{0.0};   ///< epochs of the timed fleet campaign
  double fleet_short_epochs{0.0};  ///< epochs of its short rerun
};

/// In-memory span recorder plus the per-call counts. Single-threaded:
/// spans open only on the benchmark's own thread.
class Trace {
 public:
  Trace() : origin_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int open(const char* name);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] LayerCounts& counts() { return counts_; }
  [[nodiscard]] const LayerCounts& counts() const { return counts_; }

  /// Durations in seconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  [[nodiscard]] double total(const std::string& name) const;
  /// Per span name: summed duration minus the time its children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// One JSON object per line: name, start_s, end_s, parent.
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  LayerCounts counts_;
};

/// RAII span; a null trace makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name)
      : trace_(trace), id_(trace != nullptr ? trace->open(name) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  int id_;
};

/// Decorator that times every control() call of the wrapped policy as a
/// "control.step" span and, when the policy is CapGPU, reads the QP
/// diagnostics of the decision it just made. Every other call forwards
/// unchanged, so the loop sees the same policy.
class TimedController final : public capgpu::baselines::IServerPowerController {
 public:
  TimedController(capgpu::baselines::IServerPowerController& inner,
                  Trace& trace);

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void set_set_point(capgpu::Watts p) override { inner_.set_set_point(p); }
  [[nodiscard]] capgpu::Watts set_point() const override {
    return inner_.set_point();
  }
  [[nodiscard]] capgpu::baselines::ControlOutputs control(
      const capgpu::baselines::ControlInputs& inputs,
      const std::vector<double>& current_freqs_mhz) override;
  void set_slo(std::size_t device, double slo_seconds) override {
    inner_.set_slo(device, slo_seconds);
  }
  void describe_flight(capgpu::telemetry::FlightRecord& record) const override {
    inner_.describe_flight(record);
  }

 private:
  capgpu::baselines::IServerPowerController& inner_;
  const capgpu::core::CapGpuController* capgpu_;  ///< null for baselines
  Trace& trace_;
};

}  // namespace perfbench
