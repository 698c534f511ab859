#include "control/weights.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace capgpu::control {
namespace {

TEST(Weights, FullThroughputGetsBaseWeight) {
  WeightConfig cfg;
  cfg.base = 1e-4;
  const auto w = WeightAssigner(cfg).assign({1.0});
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w[0], 1e-4);
}

TEST(Weights, IdleDeviceGetsMaximumWeight) {
  WeightConfig cfg;
  cfg.base = 1e-4;
  cfg.epsilon = 0.1;
  const auto w = WeightAssigner(cfg).assign({0.0});
  EXPECT_DOUBLE_EQ(w[0], 1e-4 * 1.1 / 0.1);  // 11x base
}

TEST(Weights, MonotonicallyDecreasingInThroughput) {
  const WeightAssigner a{WeightConfig{}};
  const auto w = a.assign({0.1, 0.3, 0.5, 0.7, 0.9});
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_LT(w[i], w[i - 1]);
  }
}

TEST(Weights, BusierDeviceGetsSmallerPenalty) {
  // The paper's mechanism: high-throughput devices are pulled toward f_min
  // less, so they run faster.
  const auto w = WeightAssigner(WeightConfig{}).assign({0.9, 0.2});
  EXPECT_LT(w[0], w[1]);
}

TEST(Weights, OutOfRangeInputsAreClamped) {
  const WeightAssigner a{WeightConfig{}};
  const auto w = a.assign({-0.5, 2.0});
  EXPECT_DOUBLE_EQ(w[0], a.assign({0.0})[0]);
  EXPECT_DOUBLE_EQ(w[1], a.assign({1.0})[0]);
}

TEST(Weights, UniformModeIgnoresThroughput) {
  WeightConfig cfg;
  cfg.invert_throughput = false;
  cfg.base = 5e-5;
  const auto w = WeightAssigner(cfg).assign({0.1, 0.9});
  EXPECT_DOUBLE_EQ(w[0], 5e-5);
  EXPECT_DOUBLE_EQ(w[1], 5e-5);
}

TEST(Weights, ValidationThrows) {
  WeightConfig bad_base;
  bad_base.base = 0.0;
  EXPECT_THROW(WeightAssigner{bad_base}, capgpu::InvalidArgument);
  WeightConfig bad_eps;
  bad_eps.epsilon = 0.0;
  EXPECT_THROW(WeightAssigner{bad_eps}, capgpu::InvalidArgument);
  WeightConfig bad_ema;
  bad_ema.ema_alpha = 0.0;
  EXPECT_THROW(WeightAssigner{bad_ema}, capgpu::InvalidArgument);
}

TEST(Weights, AllWeightsPositive) {
  const auto w = WeightAssigner(WeightConfig{}).assign({0.0, 0.5, 1.0});
  for (const double x : w) EXPECT_GT(x, 0.0);
}

}  // namespace
}  // namespace capgpu::control
