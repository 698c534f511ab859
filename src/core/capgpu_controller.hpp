// CapGPU: the paper's controller, packaged as a server power policy.
//
// Combines the MIMO MPC (Sec 4.3), throughput-driven weight assignment
// (Sec 4.3), and per-task SLO constraints obtained by inverting the latency
// law (Eq. 10b/c). This is the primary public entry point of the library:
// construct it with the identified power model and per-GPU latency models,
// then drive it from a ControlLoop (or your own loop on real hardware).
#pragma once

#include <map>
#include <optional>

#include "baselines/controller_iface.hpp"
#include "control/latency_model.hpp"
#include "control/mpc.hpp"
#include "control/prbs.hpp"
#include "control/rls.hpp"
#include "control/weights.hpp"

namespace capgpu::core {

/// CapGPU configuration.
struct CapGpuConfig {
  control::MpcConfig mpc{};
  control::WeightConfig weights{};
  /// SLO safety margin: the frequency floor is computed for
  /// slo * (1 - slo_margin) so run-to-run latency jitter does not turn a
  /// task sitting exactly on its floor into a coin-flip SLO miss.
  double slo_margin{0.08};
  /// When true, a recursive-least-squares estimator refines the power
  /// model's gains online from each period's (dF, dp) observation, so the
  /// controller tracks workload-induced gain drift without re-running the
  /// identification sweep.
  bool adaptive{false};
  control::RlsConfig rls{};
  /// Persistent excitation for adaptive mode: the internal tracking target
  /// is perturbed by +/- this many watts following a PRBS pattern, so
  /// closed-loop identification keeps receiving gain information after the
  /// loop settles. 0 = off. A few watts suffices (the perturbation rides
  /// within the capping margin); ignored when `adaptive` is false.
  double rls_excitation_watts{0.0};
};

/// The CapGPU MIMO power-capping policy.
class CapGpuController : public baselines::IServerPowerController {
 public:
  /// `latency_models` maps GPU device ids (1..N) to their calibrated
  /// latency models; devices without a model cannot receive SLOs.
  CapGpuController(CapGpuConfig config,
                   std::vector<control::DeviceRange> devices,
                   control::LinearPowerModel model, Watts set_point,
                   std::map<std::size_t, control::LatencyModel> latency_models);

  [[nodiscard]] std::string name() const override { return "capgpu"; }
  void set_set_point(Watts p) override { mpc_.set_set_point(p); }
  [[nodiscard]] Watts set_point() const override { return mpc_.set_point(); }

  /// Applies an SLO to the task on `device`: the MPC's lower frequency
  /// bound rises to the latency-law inverse. Infeasible SLOs clamp the
  /// bound at f_max and are reported through `slo_infeasible`.
  void set_slo(std::size_t device, double slo_seconds) override;

  /// Replaces the latency model of one task (the batching governor calls
  /// this when it changes a stream's batch size, since e_min scales with
  /// the batch). Any active SLO on the device is re-derived immediately.
  void update_latency_model(std::size_t device, control::LatencyModel model);

  /// Thermal (or other) frequency ceiling on `device` (the ThermalGovernor
  /// calls this). Returns false when the ceiling broke an active SLO floor
  /// — protection outranks the SLO.
  bool set_max_frequency(std::size_t device, double f_mhz) {
    return mpc_.set_max_frequency_override(device, f_mhz);
  }

  /// Workload priority of `device` (default 1): the control-penalty weight
  /// is divided by it, so under a tight cap high-priority tasks keep their
  /// clocks while low-priority ones are throttled first (priority-aware
  /// capping within one server, cf. Sakalkar et al.). Relative values are
  /// what matters; must be positive.
  void set_priority(std::size_t device, double priority);
  [[nodiscard]] double priority(std::size_t device) const;
  void clear_slos();
  [[nodiscard]] bool slo_infeasible(std::size_t device) const;
  [[nodiscard]] std::optional<double> slo_of(std::size_t device) const;

  [[nodiscard]] baselines::ControlOutputs control(
      const baselines::ControlInputs& inputs,
      const std::vector<double>& current_freqs_mhz) override;

  /// Diagnostics of the most recent period.
  [[nodiscard]] const control::MpcDecision& last_decision() const { return last_; }
  [[nodiscard]] const std::vector<double>& last_weights() const { return last_weights_; }

  /// Flight-recorder hook: exports the last period's full replay state
  /// (post-RLS model, control weights, effective bounds, MPC config and
  /// QP diagnostics) so tools/capgpu_ctl_replay can re-solve the period
  /// bit-identically from the record alone.
  void describe_flight(telemetry::FlightRecord& record) const override;

  /// Replaces the power model (online re-identification). Also resets the
  /// adaptive estimator's prior when adaptation is enabled.
  void set_model(control::LinearPowerModel model);

  /// The model currently in use. When `adaptive` is on, the gains are the
  /// RLS estimates and the offset is re-anchored at every update so the
  /// model predicts the power measured at that period's clocks.
  [[nodiscard]] const control::LinearPowerModel& current_model() const {
    return mpc_.model();
  }
  /// Number of RLS updates applied (0 when adaptation is off).
  [[nodiscard]] std::size_t adaptation_updates() const;

  /// Drops the pending adaptation sample. Governors call this when they
  /// change the plant out-of-band (batch size, memory throttle): the next
  /// period's power change would otherwise be misattributed to the
  /// frequency moves and corrupt the gain estimates.
  void invalidate_adaptation_sample() { prev_power_.reset(); }

  [[nodiscard]] control::MpcController& mpc() { return mpc_; }
  [[nodiscard]] const control::MpcController& mpc() const { return mpc_; }

 private:
  control::MpcController mpc_;
  control::WeightAssigner assigner_;
  double slo_margin_{0.08};
  double excitation_watts_{0.0};
  control::PrbsGenerator prbs_;
  std::optional<control::RlsEstimator> rls_;
  std::optional<double> prev_power_;
  std::vector<double> prev_freqs_;
  std::vector<double> priorities_;
  std::map<std::size_t, control::LatencyModel> latency_models_;
  std::map<std::size_t, double> slos_;
  std::map<std::size_t, bool> infeasible_;
  control::MpcDecision last_{};
  std::vector<double> last_weights_;
  double last_fed_{0.0};  ///< power fed to the MPC (incl. PRBS excitation)
};

}  // namespace capgpu::core
