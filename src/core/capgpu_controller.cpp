#include "core/capgpu_controller.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "telemetry/flight.hpp"

namespace capgpu::core {

CapGpuController::CapGpuController(
    CapGpuConfig config, std::vector<control::DeviceRange> devices,
    control::LinearPowerModel model, Watts set_point,
    std::map<std::size_t, control::LatencyModel> latency_models)
    : mpc_(config.mpc, baselines::validate_devices(std::move(devices)),
           std::move(model), set_point),
      assigner_(config.weights),
      slo_margin_(config.slo_margin),
      latency_models_(std::move(latency_models)) {
  CAPGPU_REQUIRE(slo_margin_ >= 0.0 && slo_margin_ < 1.0,
                 "slo_margin must be in [0, 1)");
  CAPGPU_REQUIRE(config.rls_excitation_watts >= 0.0,
                 "excitation must be >= 0");
  if (config.adaptive) {
    rls_.emplace(mpc_.model(), config.rls);
    excitation_watts_ = config.rls_excitation_watts;
  }
  priorities_.assign(mpc_.device_count(), 1.0);
  const std::size_t n_cpu = baselines::cpu_count(mpc_.devices());
  for (const auto& [device, lm] : latency_models_) {
    CAPGPU_REQUIRE(device >= n_cpu && device < mpc_.device_count(),
                   "latency model bound to a non-GPU device");
    (void)lm;
  }
}

void CapGpuController::set_slo(std::size_t device, double slo_seconds) {
  auto it = latency_models_.find(device);
  CAPGPU_REQUIRE(it != latency_models_.end(),
                 "no latency model for this device; cannot enforce an SLO");
  // Target slightly under the SLO so jitter around the floor stays legal.
  // When even the margined target is infeasible, fall back to the raw SLO
  // before declaring infeasibility.
  double target = slo_seconds * (1.0 - slo_margin_);
  if (!it->second.feasible(target) && it->second.feasible(slo_seconds)) {
    target = slo_seconds;
  }
  const Megahertz f_min = it->second.min_frequency_for_slo(target);
  const bool ok = mpc_.set_min_frequency_override(device, f_min.value);
  slos_[device] = slo_seconds;
  infeasible_[device] = !ok;
  if (!ok) {
    CAPGPU_LOG_WARN << "SLO " << slo_seconds << "s on device " << device
                    << " is infeasible even at f_max; running flat out";
  }
}

void CapGpuController::set_priority(std::size_t device, double priority) {
  CAPGPU_REQUIRE(device < priorities_.size(), "device index out of range");
  CAPGPU_REQUIRE(priority > 0.0, "priority must be positive");
  priorities_[device] = priority;
}

double CapGpuController::priority(std::size_t device) const {
  CAPGPU_REQUIRE(device < priorities_.size(), "device index out of range");
  return priorities_[device];
}

void CapGpuController::update_latency_model(std::size_t device,
                                            control::LatencyModel model) {
  auto it = latency_models_.find(device);
  CAPGPU_REQUIRE(it != latency_models_.end(),
                 "device has no latency model to update");
  it->second = std::move(model);
  auto slo_it = slos_.find(device);
  if (slo_it != slos_.end()) {
    set_slo(device, slo_it->second);  // re-derive the frequency floor
  }
}

void CapGpuController::clear_slos() {
  mpc_.clear_min_frequency_overrides();
  slos_.clear();
  infeasible_.clear();
}

bool CapGpuController::slo_infeasible(std::size_t device) const {
  auto it = infeasible_.find(device);
  return it != infeasible_.end() && it->second;
}

std::optional<double> CapGpuController::slo_of(std::size_t device) const {
  auto it = slos_.find(device);
  if (it == slos_.end()) return std::nullopt;
  return it->second;
}

void CapGpuController::set_model(control::LinearPowerModel model) {
  if (rls_) {
    rls_.emplace(model, rls_->config());
  }
  mpc_.set_model(std::move(model));
}

std::size_t CapGpuController::adaptation_updates() const {
  return rls_ ? rls_->updates_applied() : 0;
}

void CapGpuController::describe_flight(
    telemetry::FlightRecord& record) const {
  if (last_.target_freqs_mhz.empty()) return;  // no period decided yet
  const std::size_t n = mpc_.device_count();
  telemetry::FlightMpcState& m = record.mpc;
  m.present = true;
  m.fed_power_w = last_fed_;
  m.gains_w_per_mhz = mpc_.model().gains();
  m.offset_w = mpc_.model().offset();
  m.weights = mpc_.control_weights();
  m.f_min_mhz.resize(n);
  m.f_max_mhz.resize(n);
  m.f_lo_mhz.resize(n);
  m.f_hi_mhz.resize(n);
  m.device_kinds.resize(n);
  m.predicted_latency_s.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    m.f_min_mhz[j] = mpc_.effective_f_min(j);
    m.f_max_mhz[j] = mpc_.effective_f_max(j);
    m.f_lo_mhz[j] = mpc_.devices()[j].f_min_mhz;
    m.f_hi_mhz[j] = mpc_.devices()[j].f_max_mhz;
    m.device_kinds[j] =
        mpc_.devices()[j].kind == DeviceKind::kCpu ? 0 : 1;
    auto it = latency_models_.find(j);
    if (it != latency_models_.end() && j < last_.target_freqs_mhz.size()) {
      m.predicted_latency_s[j] =
          it->second.predict(Megahertz{last_.target_freqs_mhz[j]});
    }
  }
  const control::MpcConfig& cfg = mpc_.config();
  m.prediction_horizon = cfg.prediction_horizon;
  m.control_horizon = cfg.control_horizon;
  m.tracking_weight = cfg.tracking_weight;
  m.reference_decay = cfg.reference_decay;
  m.violation_decay = cfg.violation_decay;
  m.regularization = cfg.regularization;
  m.deltas_mhz = last_.deltas_mhz;
  m.planned_deltas_mhz = last_.planned_deltas_mhz;
  m.predicted_power_w = last_.predicted_power_watts;
  m.predicted_power_horizon_w = last_.predicted_power_horizon_watts;
  m.qp_iterations = last_.qp_iterations;
  m.qp_converged = last_.qp_converged;
  m.fast_path_hit = last_.fast_path_hit;
  m.qp_objective = last_.qp_objective;
  m.active_set_size = last_.active_set_size;
  m.floor_binding = last_.floor_binding;
  m.ceiling_binding = last_.ceiling_binding;
}

baselines::ControlOutputs CapGpuController::control(
    const baselines::ControlInputs& inputs,
    const std::vector<double>& current_freqs_mhz) {
  CAPGPU_REQUIRE(inputs.normalized_throughput.size() == mpc_.device_count(),
                 "normalized throughput vector size mismatch");

  // Online adaptation (difference model dp = A * dF, paper Eq. 7): refine
  // the gains from the previous period's applied increments and the
  // observed power change.
  if (rls_) {
    if (prev_power_ && prev_freqs_.size() == current_freqs_mhz.size()) {
      std::vector<double> df(current_freqs_mhz.size());
      for (std::size_t j = 0; j < df.size(); ++j) {
        df[j] = current_freqs_mhz[j] - prev_freqs_[j];
      }
      if (rls_->update(df, inputs.measured_power.value - *prev_power_)) {
        // RLS adapts only the gains; re-anchor the offset so the absolute
        // model predicts the power measured at these clocks. The MPC's
        // difference model ignores the offset, but the batching governor
        // prices SLO floors with the absolute model.
        const control::LinearPowerModel adapted = rls_->model();
        double offset = inputs.measured_power.value;
        for (std::size_t j = 0; j < current_freqs_mhz.size(); ++j) {
          offset -= adapted.gain(j) * current_freqs_mhz[j];
        }
        mpc_.set_model(control::LinearPowerModel(adapted.gains(), offset));
      }
    }
    prev_power_ = inputs.measured_power.value;
    prev_freqs_ = current_freqs_mhz;
  }
  std::vector<double> fresh = assigner_.assign(inputs.normalized_throughput);
  if (last_weights_.size() != fresh.size()) {
    last_weights_ = fresh;
  } else {
    const double alpha = assigner_.config().ema_alpha;
    for (std::size_t j = 0; j < fresh.size(); ++j) {
      last_weights_[j] = alpha * fresh[j] + (1.0 - alpha) * last_weights_[j];
    }
  }
  // Priority scaling: a higher-priority device gets a smaller penalty (it
  // holds its clocks under pressure); applied after smoothing so the EMA
  // state stays priority-independent.
  std::vector<double> weighted = last_weights_;
  for (std::size_t j = 0; j < weighted.size(); ++j) {
    weighted[j] /= priorities_[j];
  }
  mpc_.set_control_weights(std::move(weighted));
  // PRBS excitation (adaptive mode): perturbing the measurement fed to the
  // MPC is equivalent to wiggling the tracking target, and keeps dF-rich
  // samples flowing to the estimator after the loop settles. set_point()
  // keeps reporting the true cap.
  Watts fed = inputs.measured_power;
  if (excitation_watts_ > 0.0) {
    fed += Watts{excitation_watts_ * static_cast<double>(prbs_.next())};
  }
  last_fed_ = fed.value;
  last_ = mpc_.step(fed, current_freqs_mhz);

  baselines::ControlOutputs out;
  out.target_freqs_mhz = last_.target_freqs_mhz;
  return out;
}

}  // namespace capgpu::core
