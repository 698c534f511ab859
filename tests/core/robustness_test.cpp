// Robustness sweeps: the capping invariants must hold across random seeds,
// set points, GPU counts and model-error levels — not just at the tuned
// defaults the figures use.
#include <gtest/gtest.h>

#include <tuple>

#include "core/capgpu_controller.hpp"
#include "core/batching.hpp"
#include "core/rig.hpp"
#include "core/thermal_governor.hpp"

namespace capgpu::core {
namespace {

class SeedSetpointSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(SeedSetpointSweep, CapGpuConvergesAndHoldsTheCap) {
  const auto [seed, set_point] = GetParam();
  RigConfig cfg;
  cfg.seed = seed;
  ServerRig rig(cfg);
  CapGpuController ctl(CapGpuConfig{}, rig.device_ranges(),
                       rig.analytic_power_model(), Watts{set_point},
                       rig.latency_models());
  RunOptions opt;
  opt.periods = 80;
  opt.set_point = Watts{set_point};
  const RunResult res = rig.run(ctl, opt);
  const auto steady = res.steady_power(30);
  EXPECT_NEAR(steady.mean(), set_point, 10.0);
  EXPECT_LT(steady.stddev(), 12.0);
  // Sustained violations are never acceptable.
  EXPECT_LE(res.power.count_above(set_point + 20.0, 30), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SeedSetpointSweep,
    ::testing::Combine(::testing::Values(2ULL, 33ULL, 444ULL),
                       ::testing::Values(850.0, 1000.0, 1150.0)));

class GpuCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GpuCountSweep, CapGpuScalesAcrossServerSizes) {
  const std::size_t n_gpus = GetParam();
  RigConfig cfg;
  const auto zoo = workload::v100_testbed_models();
  cfg.models.clear();
  for (std::size_t i = 0; i < n_gpus; ++i) {
    cfg.models.push_back(zoo[i % zoo.size()]);
  }
  ServerRig rig(cfg);
  // A feasible mid-range set point for this server size.
  const double floor_ish = 300.0 + 55.0 + 115.0 * static_cast<double>(n_gpus);
  const double ceiling_ish = 300.0 + 130.0 + 260.0 * static_cast<double>(n_gpus);
  const double set_point = 0.5 * (floor_ish + ceiling_ish);
  CapGpuController ctl(CapGpuConfig{}, rig.device_ranges(),
                       rig.analytic_power_model(), Watts{set_point},
                       rig.latency_models());
  RunOptions opt;
  opt.periods = 60;
  opt.set_point = Watts{set_point};
  const RunResult res = rig.run(ctl, opt);
  EXPECT_NEAR(res.steady_power(20).mean(), set_point, 12.0)
      << n_gpus << " GPUs at " << set_point << " W";
}

INSTANTIATE_TEST_SUITE_P(Sizes, GpuCountSweep,
                         ::testing::Values(1u, 2u, 4u, 6u, 8u));

class ModelErrorSweep : public ::testing::TestWithParam<double> {};

TEST_P(ModelErrorSweep, CappingSurvivesGainMisestimation) {
  // The controller's model gains are off by the sweep factor in every
  // direction; the stability margin (Sec 4.4) must absorb it.
  const double factor = GetParam();
  ServerRig rig;
  const auto truth = rig.analytic_power_model();
  std::vector<double> mult(truth.device_count(), factor);
  CapGpuController ctl(CapGpuConfig{}, rig.device_ranges(),
                       truth.scaled_gains(mult), 900_W, rig.latency_models());
  RunOptions opt;
  opt.periods = 80;
  opt.set_point = 900_W;
  const RunResult res = rig.run(ctl, opt);
  EXPECT_NEAR(res.steady_power(40).mean(), 900.0, 12.0)
      << "gain factor " << factor;
  EXPECT_LT(res.steady_power(40).stddev(), 20.0);
}

INSTANTIATE_TEST_SUITE_P(Factors, ModelErrorSweep,
                         ::testing::Values(0.5, 0.75, 1.5, 2.0));

class MeterNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(MeterNoiseSweep, TrackingDegradesGracefullyWithSensorNoise) {
  RigConfig cfg;
  cfg.meter.noise_stddev_watts = GetParam();
  ServerRig rig(cfg);
  CapGpuController ctl(CapGpuConfig{}, rig.device_ranges(),
                       rig.analytic_power_model(), 900_W,
                       rig.latency_models());
  RunOptions opt;
  opt.periods = 80;
  opt.set_point = 900_W;
  const RunResult res = rig.run(ctl, opt);
  const auto steady = res.steady_power(30);
  EXPECT_NEAR(steady.mean(), 900.0, 10.0 + GetParam());
  // Output std stays within a small multiple of the sensor noise.
  EXPECT_LT(steady.stddev(), 6.0 + 1.5 * GetParam());
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, MeterNoiseSweep,
                         ::testing::Values(0.0, 2.0, 8.0, 16.0));

TEST(Soak, LongRunStaysHealthy) {
  // 1000 control periods (~67 simulated minutes) with everything enabled:
  // adaptive RLS, SLOs, thermal + batching governors, and
  // periodic set-point changes. No drift, no violations beyond
  // transients, monitors bounded.
  ServerRig rig;
  CapGpuConfig cfg;
  cfg.adaptive = true;
  CapGpuController ctl(cfg, rig.device_ranges(), rig.analytic_power_model(),
                       900_W, rig.latency_models());

  hw::ThermalIntegrator thermal(rig.engine(), rig.server(),
                                {hw::ThermalParams{}});
  ThermalGovernor thermal_gov(rig.engine(), rig.server(), thermal, ctl);
  thermal_gov.start();
  BatchingGovernor batching(rig.engine(),
                            {&rig.stream(0), &rig.stream(1), &rig.stream(2)},
                            ctl);
  batching.start();

  RunOptions opt;
  opt.periods = 1000;
  opt.set_point = 900_W;
  opt.initial_slos = {{1, 0.6}, {2, 1.0}, {3, 0.8}};
  for (std::size_t k = 100; k < 1000; k += 100) {
    opt.set_point_changes[k] = Watts{k % 200 == 0 ? 900.0 : 1000.0};
  }
  const RunResult res = rig.run(ctl, opt);

  // Thermal safety held throughout the hour with healthy cooling.
  for (std::size_t g = 0; g < 3; ++g) {
    EXPECT_LT(rig.server().gpu(g).temperature_c(), 84.0) << "gpu " << g;
  }
  EXPECT_GT(batching.adjustments(), 0u);

  // Every 100-period segment (away from its first 10 transient periods)
  // tracks its own set point.
  for (std::size_t seg = 0; seg < 10; ++seg) {
    telemetry::RunningStats s;
    for (std::size_t k = seg * 100 + 10; k < (seg + 1) * 100; ++k) {
      s.add(res.power.value_at(k) - res.set_point.value_at(k));
    }
    EXPECT_NEAR(s.mean(), 0.0, 10.0) << "segment " << seg;
    EXPECT_LT(s.stddev(), 12.0) << "segment " << seg;
  }
  // SLOs held across the whole hour.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LT(res.slo_misses[i].ratio(), 0.05) << "gpu " << i;
  }
  // The estimator stayed live and sane.
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_GT(ctl.current_model().gain(j), 0.0);
    EXPECT_LT(ctl.current_model().gain(j), 1.0);
  }
}

}  // namespace
}  // namespace capgpu::core
