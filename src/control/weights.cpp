#include "control/weights.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace capgpu::control {

WeightAssigner::WeightAssigner(WeightConfig config) : config_(config) {
  CAPGPU_REQUIRE(config_.base > 0.0, "base weight must be positive");
  CAPGPU_REQUIRE(config_.epsilon > 0.0, "epsilon must be positive");
  CAPGPU_REQUIRE(config_.ema_alpha > 0.0 && config_.ema_alpha <= 1.0,
                 "ema_alpha must be in (0, 1]");
}

std::vector<double> WeightAssigner::assign(
    const std::vector<double>& normalized) const {
  std::vector<double> weights(normalized.size());
  for (std::size_t j = 0; j < normalized.size(); ++j) {
    if (!config_.invert_throughput) {
      weights[j] = config_.base;
      continue;
    }
    const double w = std::clamp(normalized[j], 0.0, 1.0);
    weights[j] =
        config_.base * (1.0 + config_.epsilon) / (config_.epsilon + w);
  }
  return weights;
}

}  // namespace capgpu::control
