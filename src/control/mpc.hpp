// The CapGPU MIMO model-predictive power controller (paper Sec 4.3).
//
// Decision variables are the frequency increments d_j(k+i|k) for every
// device j over the control horizon M. Using the difference model
// p(k+i|k) = p(k) + A * dF_cum (Eq. 7), the cost (Eq. 9)
//
//   V(k) = sum_{i=1..P} Q ||p(k+i|k) - Ps||^2
//        + sum_{i=0..M-1} ||d(k+i|k) + f(k+i|k) - f_min||^2_R
//
// is quadratic in the stacked increments, and the constraints (Eq. 10) —
// per-device frequency boxes plus the SLO-derived lower bounds obtained by
// inverting the latency law — are linear. The controller therefore solves a
// convex QP each period (receding horizon: only d(k) is applied).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "control/power_model.hpp"
#include "control/qp.hpp"
#include "linalg/matrix.hpp"

namespace capgpu::control {

/// Frequency range of one controlled device.
struct DeviceRange {
  DeviceKind kind{DeviceKind::kGpu};
  double f_min_mhz{0.0};
  double f_max_mhz{0.0};
};

/// Controller configuration (defaults follow the paper: P=8, M=2).
struct MpcConfig {
  std::size_t prediction_horizon{8};  ///< P
  std::size_t control_horizon{2};     ///< M
  /// Tracking-error weight Q(i) (uniform across the horizon). The control
  /// penalty weights R_j come from WeightAssigner via set_control_weights;
  /// keep Q * gain^2 >> R_j so power tracking dominates.
  double tracking_weight{1.0};
  /// Reference-trajectory decay: instead of jumping to Ps, the controller
  /// tracks p_ref(k+i) = Ps + (p(k) - Ps) * decay^i (paper Sec 4.3 lists a
  /// reference trajectory among the controller components). 0 = deadbeat
  /// tracking; larger values damp the response to measurement noise.
  /// Applies when power is *below* the set point (climbing is safe).
  double reference_decay{0.5};
  /// Decay used when power is *above* the set point. Cap violations risk
  /// tripping breakers, so the default responds deadbeat while the climb
  /// side stays damped — e.g. a demand surge hitting max-clocked GPUs is
  /// pulled back under the cap in one period.
  double violation_decay{0.0};
  /// Tikhonov term added to the Hessian diagonal: keeps H positive definite
  /// when gains are tiny.
  double regularization{1e-9};
};

/// Outcome of one control period. All vectors keep a fixed size per
/// controller (n, n*M or P), so repeated steps never reallocate them.
struct MpcDecision {
  std::vector<double> target_freqs_mhz;  ///< new fractional commands
  std::vector<double> deltas_mhz;        ///< applied first moves d(k)
  /// Full stacked QP solution d_j(k+i|k), layout [i*n + j], before the
  /// first-move clamp — the planned trajectory a flight recorder replays.
  std::vector<double> planned_deltas_mhz;
  double predicted_power_watts{0.0};     ///< p(k+1|k), clamped first move
  /// Model-predicted power trajectory p(k+i|k) for i = 1..P over the
  /// unclamped plan (entry i-1 holds step i).
  std::vector<double> predicted_power_horizon_watts;
  std::size_t qp_iterations{0};  ///< dual steps (each add or drop of a row)
  bool qp_converged{false};
  /// True when the unconstrained minimiser was feasible: the solve took
  /// zero dual steps.
  bool fast_path_hit{false};
  double qp_objective{0.0};      ///< cost at the optimum
  std::size_t active_set_size{0};  ///< constraint rows active at the optimum
  /// Per device: 1 when the first-move floor / ceiling constraint row is in
  /// the active set (the SLO bound or thermal cap shaped this decision).
  std::vector<int> floor_binding;
  std::vector<int> ceiling_binding;
};

/// Unconstrained linear control law d(k) = K_e*(p - Ps) + K_f*(f - f_min),
/// used by the stability analysis (Sec 4.4).
struct MpcLinearGains {
  linalg::Vector k_e;  ///< N
  linalg::Matrix k_f;  ///< N x N
};

/// Receding-horizon MIMO power-capping controller.
class MpcController {
 public:
  MpcController(MpcConfig config, std::vector<DeviceRange> devices,
                LinearPowerModel model, Watts set_point);

  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] const std::vector<DeviceRange>& devices() const { return devices_; }
  [[nodiscard]] const MpcConfig& config() const { return config_; }
  [[nodiscard]] const LinearPowerModel& model() const { return model_; }

  void set_set_point(Watts p) { set_point_ = p; }
  [[nodiscard]] Watts set_point() const { return set_point_; }

  /// Replaces the power model (e.g. after online re-identification).
  void set_model(LinearPowerModel model);

  /// Per-device control-penalty weights R_j (from WeightAssigner). Resets
  /// to uniform when empty.
  void set_control_weights(std::vector<double> weights);
  [[nodiscard]] const std::vector<double>& control_weights() const {
    return weights_;
  }

  /// Raises device j's lower frequency bound (SLO constraint, Eq. 10b/c).
  /// Values above f_max are clamped to f_max and reported as infeasible in
  /// the return value; values below f_min are ignored.
  bool set_min_frequency_override(std::size_t device, double f_mhz);
  void clear_min_frequency_overrides();
  [[nodiscard]] double effective_f_min(std::size_t device) const;

  /// Lowers device j's upper frequency bound (thermal constraint — the
  /// mirror of the SLO floor). Values above f_max are ignored; values
  /// below f_min clamp to f_min. When the ceiling drops below an active
  /// SLO floor, the floor yields (thermal protection beats the SLO) and
  /// the method returns false.
  bool set_max_frequency_override(std::size_t device, double f_mhz);
  void clear_max_frequency_overrides();
  [[nodiscard]] double effective_f_max(std::size_t device) const;

  /// One control period: measured power + current (fractional) frequency
  /// commands -> new commands. `current_freqs_mhz` is typically the
  /// controller's own previous targets. The returned reference points at
  /// controller-owned storage, overwritten by the next step(); copy the
  /// fields you keep. After the first period the call performs no heap
  /// allocations: the QP assembles into a persistent workspace and the
  /// solver runs in preallocated buffers. No solver state carries over
  /// between periods, so a step's decision depends only on its inputs.
  [[nodiscard]] const MpcDecision& step(
      Watts measured_power, const std::vector<double>& current_freqs_mhz);

  /// The QP the last step() assembled (decision layout [i*n + j]).
  /// Overwritten by the next step() or linear_gains() call.
  [[nodiscard]] const QpProblem& last_qp() const { return ws_qp_; }
  /// The last step()'s solve: solution, active rows and multipliers, for
  /// certify() against last_qp().
  [[nodiscard]] const QpWorkspace& last_solve() const { return qp_ws_; }

  /// Linear gains of the *unconstrained* optimum at the current weights
  /// (for pole/stability analysis).
  [[nodiscard]] MpcLinearGains linear_gains() const;

 private:
  /// Assembles the period's QP into the persistent workspace ws_qp_.
  /// Structural parts (constraint matrix, buffer shapes) are built once;
  /// h/g/b are refilled in place, so steady-state periods allocate
  /// nothing. The tracking term folds the saturated prediction steps
  /// (i >= M, identical rank-1 pattern) into one scaled update, so the
  /// assembly cost is ~independent of the prediction horizon.
  void assemble_into(double error_watts,
                     const std::vector<double>& freqs) const;

  MpcConfig config_;
  std::vector<DeviceRange> devices_;
  LinearPowerModel model_;
  Watts set_point_;
  std::vector<double> weights_;         // R_j
  std::vector<double> min_override_;    // effective lower bounds (MHz)
  std::vector<double> max_override_;    // effective upper bounds (MHz)
  QpSolver solver_;

  // Persistent per-step state (mutable: linear_gains() probes through the
  // same assembly workspace).
  mutable QpProblem ws_qp_;
  mutable bool ws_structure_built_{false};
  QpWorkspace qp_ws_;
  MpcDecision decision_;  // returned by reference from step()
};

}  // namespace capgpu::control
