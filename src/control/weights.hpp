// Throughput-driven weight assignment (paper Sec 4.3).
//
// The MPC control penalty ||d + f - f_min||^2_R pulls every device toward
// its minimum frequency; devices with a large R are pulled harder. CapGPU
// "normalizes and inverts" measured throughput so that devices doing useful
// work (high normalized throughput) receive a *small* penalty weight and are
// therefore allowed to run fast, while starved or idle devices get throttled
// first. This is the mechanism behind the paper's performance wins in Fig 7.
#pragma once

#include <vector>

namespace capgpu::control {

/// Weight assignment configuration.
struct WeightConfig {
  /// Penalty weight of a device running at 100% normalized throughput.
  /// Must be small relative to tracking_weight * gain^2 so power tracking
  /// dominates (see MpcConfig docs).
  double base{2e-5};
  /// Softening term so idle devices get a finite (not infinite) weight.
  double epsilon{0.1};
  /// When false, every device gets `base` (uniform ablation mode).
  bool invert_throughput{true};
  /// Exponential smoothing of the weights across periods (applied by
  /// CapGpuController): w <- alpha * new + (1 - alpha) * old. 1 = no
  /// smoothing. Damps allocation churn from noisy throughput windows.
  double ema_alpha{0.4};
};

/// Computes per-device control-penalty weights from normalized throughput.
class WeightAssigner {
 public:
  explicit WeightAssigner(WeightConfig config = {});

  /// `normalized` holds each device's throughput / max-throughput in [0,1]
  /// (values are clamped). Returns R_j = base * (1+eps) / (eps + w_j), so
  /// w = 1 gives exactly `base` and w = 0 gives base * (1+eps)/eps.
  [[nodiscard]] std::vector<double> assign(
      const std::vector<double>& normalized) const;

  [[nodiscard]] const WeightConfig& config() const { return config_; }

 private:
  WeightConfig config_;
};

}  // namespace capgpu::control
