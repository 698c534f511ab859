#include "control/mpc.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/cholesky.hpp"

namespace capgpu::control {

MpcController::MpcController(MpcConfig config, std::vector<DeviceRange> devices,
                             LinearPowerModel model, Watts set_point)
    : config_(config),
      devices_(std::move(devices)),
      model_(std::move(model)),
      set_point_(set_point) {
  CAPGPU_REQUIRE(!devices_.empty(), "controller needs at least one device");
  CAPGPU_REQUIRE(model_.device_count() == devices_.size(),
                 "power model does not match device list");
  CAPGPU_REQUIRE(config_.control_horizon >= 1, "control horizon must be >= 1");
  CAPGPU_REQUIRE(config_.prediction_horizon >= config_.control_horizon,
                 "prediction horizon must be >= control horizon");
  CAPGPU_REQUIRE(config_.tracking_weight > 0.0,
                 "tracking weight must be positive");
  CAPGPU_REQUIRE(config_.reference_decay >= 0.0 && config_.reference_decay < 1.0,
                 "reference decay must be in [0, 1)");
  CAPGPU_REQUIRE(config_.violation_decay >= 0.0 && config_.violation_decay < 1.0,
                 "violation decay must be in [0, 1)");
  for (const auto& d : devices_) {
    CAPGPU_REQUIRE(d.f_min_mhz > 0.0 && d.f_max_mhz > d.f_min_mhz,
                   "device frequency range is invalid");
  }
  weights_.assign(devices_.size(), 2e-5);
  min_override_.resize(devices_.size());
  max_override_.resize(devices_.size());
  clear_min_frequency_overrides();
  clear_max_frequency_overrides();
}

void MpcController::set_model(LinearPowerModel model) {
  CAPGPU_REQUIRE(model.device_count() == devices_.size(),
                 "power model does not match device list");
  model_ = std::move(model);
}

void MpcController::set_control_weights(std::vector<double> weights) {
  if (weights.empty()) {
    weights_.assign(devices_.size(), 2e-5);
    return;
  }
  CAPGPU_REQUIRE(weights.size() == devices_.size(),
                 "weight vector does not match device list");
  for (const double w : weights) {
    CAPGPU_REQUIRE(w > 0.0, "control weights must be positive");
  }
  weights_ = std::move(weights);
}

bool MpcController::set_min_frequency_override(std::size_t device,
                                               double f_mhz) {
  CAPGPU_REQUIRE(device < devices_.size(), "device index out of range");
  const auto& d = devices_[device];
  // The floor can never exceed the effective ceiling (a thermal override
  // outranks the SLO): an unreachable SLO runs at the ceiling, reported
  // as infeasible.
  const double ceiling = max_override_[device];
  if (f_mhz <= d.f_min_mhz) {
    min_override_[device] = d.f_min_mhz;
    return true;
  }
  if (f_mhz > ceiling) {
    min_override_[device] = ceiling;
    return false;
  }
  min_override_[device] = f_mhz;
  return true;
}

void MpcController::clear_min_frequency_overrides() {
  for (std::size_t j = 0; j < devices_.size(); ++j) {
    min_override_[j] = devices_[j].f_min_mhz;
  }
}

double MpcController::effective_f_min(std::size_t device) const {
  CAPGPU_REQUIRE(device < devices_.size(), "device index out of range");
  return min_override_[device];
}

bool MpcController::set_max_frequency_override(std::size_t device,
                                               double f_mhz) {
  CAPGPU_REQUIRE(device < devices_.size(), "device index out of range");
  const auto& d = devices_[device];
  max_override_[device] =
      std::clamp(f_mhz, d.f_min_mhz, d.f_max_mhz);
  if (max_override_[device] < min_override_[device]) {
    // Thermal protection outranks the SLO floor.
    min_override_[device] = max_override_[device];
    return false;
  }
  return true;
}

void MpcController::clear_max_frequency_overrides() {
  for (std::size_t j = 0; j < devices_.size(); ++j) {
    max_override_[j] = devices_[j].f_max_mhz;
  }
}

double MpcController::effective_f_max(std::size_t device) const {
  CAPGPU_REQUIRE(device < devices_.size(), "device index out of range");
  return max_override_[device];
}

void MpcController::assemble_into(double error_watts,
                                  const std::vector<double>& freqs) const {
  const std::size_t n = devices_.size();
  const std::size_t m_horizon = config_.control_horizon;
  const std::size_t p_horizon = config_.prediction_horizon;
  const std::size_t dim = n * m_horizon;
  const double q = config_.tracking_weight;

  // Decision layout: u[i*n + j] = d_j(k+i|k).
  // cum_j(i) = sum_{l<=i} u[l*n+j]; tracking step i uses cum(min(i-1,M-1)).
  if (!ws_structure_built_) {
    ws_qp_.h = linalg::Matrix(dim, dim);
    ws_qp_.g = linalg::Vector(dim);
    // Constraint rows (Eq. 10a + SLO bounds) are structural: for every step
    // i and device j,  cum_j(i) <= f_max_j - f_j  and  -cum_j(i) <= f_j - lb_j.
    // Only b depends on the state, so the +-1 pattern is laid down once.
    const std::size_t rows = 2 * dim;
    ws_qp_.c = linalg::Matrix(rows, dim);
    ws_qp_.b = linalg::Vector(rows);
    std::size_t row = 0;
    for (std::size_t i = 0; i < m_horizon; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t l = 0; l <= i; ++l) {
          ws_qp_.c(row, l * n + j) = 1.0;
          ws_qp_.c(row + 1, l * n + j) = -1.0;
        }
        row += 2;
      }
    }
    ws_structure_built_ = true;
  }

  for (std::size_t r = 0; r < dim; ++r) {
    const auto hr = ws_qp_.h.row(r);
    std::fill(hr.begin(), hr.end(), 0.0);
  }
  for (std::size_t a = 0; a < dim; ++a) ws_qp_.g[a] = 0.0;

  // Tracking term: for each prediction step, the row t with
  // t[l*n+j] = A_j for l <= mi contributes 2Q t t^T to H and 2Q e_i t to g,
  // where e_i = e * (1 - decay^i) follows the reference trajectory
  // p_ref(k+i) = Ps + e * decay^i.
  // Asymmetric reference: violations (error > 0) are corrected with the
  // (faster) violation_decay; climbs toward the cap use reference_decay.
  const double decay =
      error_watts > 0.0 ? config_.violation_decay : config_.reference_decay;
  // Prediction steps i > M all share the saturated pattern mi = M-1 (the
  // cumulative move stops growing once the control horizon is spent), so
  // instead of P rank-1 updates the loop folds each distinct mi into one:
  // count * 2Q t t^T into H and 2Q (sum of e_i) t into g. Equal to the
  // step-by-step accumulation in exact arithmetic, and it makes assembly
  // cost ~independent of P.
  for (std::size_t mi = 0; mi < m_horizon; ++mi) {
    const std::size_t i_lo = mi + 1;
    const std::size_t i_hi = (mi + 1 == m_horizon) ? p_horizon : mi + 1;
    double e_sum = 0.0;
    for (std::size_t i = i_lo; i <= i_hi; ++i) {
      e_sum += error_watts * (1.0 - std::pow(decay, static_cast<double>(i)));
    }
    const double count = static_cast<double>(i_hi - i_lo + 1);
    // Build t implicitly: nonzero entries are (l, j) for l <= mi.
    for (std::size_t la = 0; la <= mi; ++la) {
      for (std::size_t ja = 0; ja < n; ++ja) {
        const std::size_t a = la * n + ja;
        const double ta = model_.gain(ja);
        ws_qp_.g[a] += 2.0 * q * e_sum * ta;
        for (std::size_t lb = 0; lb <= mi; ++lb) {
          for (std::size_t jb = 0; jb < n; ++jb) {
            ws_qp_.h(a, lb * n + jb) +=
                count * (2.0 * q * ta * model_.gain(jb));
          }
        }
      }
    }
  }

  // Control penalty: for step i and device j, the row c with c[l*n+j] = 1
  // for l <= i contributes 2R_j c c^T and 2R_j phi_j c, where
  // phi_j = f_j - f_min_j (reference is the spec minimum, not the SLO bound).
  for (std::size_t i = 0; i < m_horizon; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double r = weights_[j];
      const double phi = freqs[j] - devices_[j].f_min_mhz;
      for (std::size_t la = 0; la <= i; ++la) {
        const std::size_t a = la * n + j;
        ws_qp_.g[a] += 2.0 * r * phi;
        for (std::size_t lb = 0; lb <= i; ++lb) {
          ws_qp_.h(a, lb * n + j) += 2.0 * r;
        }
      }
    }
  }

  for (std::size_t a = 0; a < dim; ++a) {
    ws_qp_.h(a, a) += 2.0 * config_.regularization;
  }

  {
    std::size_t row = 0;
    for (std::size_t i = 0; i < m_horizon; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ws_qp_.b[row] = max_override_[j] - freqs[j];
        ws_qp_.b[row + 1] = freqs[j] - min_override_[j];
        row += 2;
      }
    }
  }
}

const MpcDecision& MpcController::step(
    Watts measured_power, const std::vector<double>& current_freqs_mhz) {
  const std::size_t n = devices_.size();
  CAPGPU_REQUIRE(current_freqs_mhz.size() == n,
                 "frequency vector does not match device list");

  const double error = measured_power.value - set_point_.value;
  assemble_into(error, current_freqs_mhz);

  const std::size_t dim = n * config_.control_horizon;
  solver_.solve(ws_qp_, qp_ws_);
  const double* solution = qp_ws_.x().data().data();
  const std::vector<std::size_t>& active_set = qp_ws_.active_set();

  MpcDecision& out = decision_;
  out.qp_iterations = qp_ws_.iterations();
  out.qp_converged = qp_ws_.converged();
  out.fast_path_hit = qp_ws_.converged() && qp_ws_.iterations() == 0;
  out.qp_objective = qp_ws_.objective();
  out.active_set_size = active_set.size();
  out.deltas_mhz.resize(n);
  out.target_freqs_mhz.resize(n);
  out.planned_deltas_mhz.resize(dim);
  for (std::size_t a = 0; a < dim; ++a) out.planned_deltas_mhz[a] = solution[a];

  out.floor_binding.resize(n);
  out.ceiling_binding.resize(n);
  std::fill(out.floor_binding.begin(), out.floor_binding.end(), 0);
  std::fill(out.ceiling_binding.begin(), out.ceiling_binding.end(), 0);
  // First-move constraint rows occupy [0, 2n): row 2j is device j's
  // ceiling, row 2j+1 its floor (assemble_into's layout).
  for (const std::size_t row : active_set) {
    if (row >= 2 * n) continue;
    if (row % 2 == 0) {
      out.ceiling_binding[row / 2] = 1;
    } else {
      out.floor_binding[row / 2] = 1;
    }
  }

  // Predicted trajectory over the unclamped plan: p(k+i|k) = p(k) +
  // A * cum(min(i-1, M-1)). Levels fold into the running sum once each.
  const std::size_t p_horizon = config_.prediction_horizon;
  out.predicted_power_horizon_watts.resize(p_horizon);
  double dp_cum = 0.0;
  std::size_t level = 0;
  for (std::size_t i = 1; i <= p_horizon; ++i) {
    const std::size_t mi = std::min(i - 1, config_.control_horizon - 1);
    while (level <= mi) {
      for (std::size_t j = 0; j < n; ++j) {
        dp_cum += model_.gain(j) * solution[level * n + j];
      }
      ++level;
    }
    out.predicted_power_horizon_watts[i - 1] = measured_power.value + dp_cum;
  }

  double dp = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double d = solution[j];  // first move of device j
    const double target = std::clamp(current_freqs_mhz[j] + d,
                                     min_override_[j], max_override_[j]);
    dp += model_.gain(j) * (target - current_freqs_mhz[j]);
    // Writes come last: a caller may legally pass the previous decision's
    // own target vector as current_freqs_mhz.
    out.deltas_mhz[j] = d;
    out.target_freqs_mhz[j] = target;
  }
  out.predicted_power_watts = measured_power.value + dp;
  return out;
}

MpcLinearGains MpcController::linear_gains() const {
  const std::size_t n = devices_.size();

  // g(u) is affine in (e, phi): g = g_e * e + G_f * phi. Probe by assembling
  // with unit inputs; H is independent of both.
  std::vector<double> f_at_min(n);
  for (std::size_t j = 0; j < n; ++j) f_at_min[j] = devices_[j].f_min_mhz;

  assemble_into(0.0, f_at_min);
  const linalg::Matrix h = ws_qp_.h;  // base Hessian (g = 0 here)
  assemble_into(1.0, f_at_min);
  const linalg::Vector g_e = ws_qp_.g;

  linalg::Cholesky h_chol(h);

  MpcLinearGains gains;
  gains.k_e = linalg::Vector(n);
  gains.k_f = linalg::Matrix(n, n);

  {
    const linalg::Vector u = h_chol.solve(g_e);
    for (std::size_t j = 0; j < n; ++j) gains.k_e[j] = -u[j];
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::vector<double> f = f_at_min;
    f[col] += 1.0;  // phi_col = 1
    assemble_into(0.0, f);
    const linalg::Vector u = h_chol.solve(ws_qp_.g);
    for (std::size_t j = 0; j < n; ++j) gains.k_f(j, col) = -u[j];
  }
  return gains;
}

}  // namespace capgpu::control
