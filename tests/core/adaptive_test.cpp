// Tests of the adaptive (RLS-augmented) CapGPU controller.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/capgpu_controller.hpp"
#include "core/rig.hpp"

namespace capgpu::core {
namespace {

std::vector<control::DeviceRange> devices() {
  return {
      {DeviceKind::kCpu, 1000.0, 2400.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
  };
}

control::LinearPowerModel wrong_prior() {
  // Deliberately misidentified gains (true plant below uses 0.05/0.2/0.2).
  return control::LinearPowerModel({0.10, 0.10, 0.35}, 300.0);
}

control::LinearPowerModel true_plant() {
  return control::LinearPowerModel({0.05, 0.2, 0.2}, 300.0);
}

baselines::ControlInputs inputs(double power) {
  baselines::ControlInputs in;
  in.measured_power = Watts{power};
  in.utilization = {0.9, 0.9, 0.9};
  in.normalized_throughput = {0.5, 0.5, 0.5};
  in.device_power_watts = {100.0, 200.0, 200.0};
  return in;
}

TEST(AdaptiveCapGpu, RlsCorrectsAMisidentifiedModel) {
  // Closed-loop identification needs persistent excitation: once the loop
  // settles, dF -> 0 and no gain information flows. A dithered set point
  // (as production cappers see anyway from shifting rack budgets) keeps
  // excitation alive, and RLS then recovers the plant gains exactly.
  CapGpuConfig cfg;
  cfg.adaptive = true;
  cfg.rls.forgetting = 0.97;
  CapGpuController ctl(cfg, devices(), wrong_prior(), 900_W, {});

  std::vector<double> f{1000.0, 435.0, 435.0};
  for (int k = 0; k < 160; ++k) {
    ctl.set_set_point(Watts{(k / 5) % 2 ? 940.0 : 860.0});
    const Watts p = true_plant().predict(f);
    f = ctl.control(inputs(p.value), f).target_freqs_mhz;
  }
  EXPECT_GT(ctl.adaptation_updates(), 50u);
  EXPECT_NEAR(ctl.current_model().gain(0), 0.05, 0.01);
  EXPECT_NEAR(ctl.current_model().gain(1), 0.2, 0.01);
  EXPECT_NEAR(ctl.current_model().gain(2), 0.2, 0.01);
  // And the loop converges to the cap once the dithering stops.
  ctl.set_set_point(900_W);
  for (int k = 0; k < 20; ++k) {
    const Watts p = true_plant().predict(f);
    f = ctl.control(inputs(p.value), f).target_freqs_mhz;
  }
  EXPECT_NEAR(true_plant().predict(f).value, 900.0, 5.0);
}

TEST(AdaptiveCapGpu, AdaptedModelPredictsTheUpdatesOperatingPoint) {
  // RLS adapts only the gains of the difference model. The absolute model
  // (the batching governor prices SLO floors with it) must still predict
  // the power measured at the clocks of each update; the prior's offset
  // with adapted gains would be off by the gain error times the clocks.
  CapGpuConfig cfg;
  cfg.adaptive = true;
  CapGpuController ctl(cfg, devices(), wrong_prior(), 900_W, {});
  std::vector<double> f{1000.0, 435.0, 435.0};
  std::size_t checked = 0;
  for (int k = 0; k < 40; ++k) {
    ctl.set_set_point(Watts{(k / 5) % 2 ? 940.0 : 860.0});
    const Watts p = true_plant().predict(f);
    const std::size_t updates = ctl.adaptation_updates();
    const std::vector<double> clocks = f;
    f = ctl.control(inputs(p.value), f).target_freqs_mhz;
    if (ctl.adaptation_updates() == updates) continue;
    EXPECT_NEAR(ctl.current_model().predict(clocks).value, p.value, 1e-6)
        << "period " << k;
    ++checked;
  }
  EXPECT_GT(checked, 5u);
}

TEST(AdaptiveCapGpu, DisabledByDefault) {
  CapGpuController ctl(CapGpuConfig{}, devices(), wrong_prior(), 900_W, {});
  std::vector<double> f{1000.0, 435.0, 435.0};
  for (int k = 0; k < 20; ++k) {
    const Watts p = true_plant().predict(f);
    f = ctl.control(inputs(p.value), f).target_freqs_mhz;
  }
  EXPECT_EQ(ctl.adaptation_updates(), 0u);
  EXPECT_DOUBLE_EQ(ctl.current_model().gain(1), 0.10);  // prior untouched
}

TEST(AdaptiveCapGpu, SetModelResetsThePrior) {
  CapGpuConfig cfg;
  cfg.adaptive = true;
  CapGpuController ctl(cfg, devices(), wrong_prior(), 900_W, {});
  std::vector<double> f{1000.0, 435.0, 435.0};
  for (int k = 0; k < 30; ++k) {
    const Watts p = true_plant().predict(f);
    f = ctl.control(inputs(p.value), f).target_freqs_mhz;
  }
  ctl.set_model(true_plant());
  EXPECT_DOUBLE_EQ(ctl.current_model().gain(1), 0.2);
}

TEST(AdaptiveCapGpu, NoUpdateAtSteadyState) {
  // Once converged there is no excitation: updates must stop, not drift.
  CapGpuConfig cfg;
  cfg.adaptive = true;
  CapGpuController ctl(cfg, devices(), true_plant(), 900_W, {});
  std::vector<double> f{1000.0, 435.0, 435.0};
  for (int k = 0; k < 60; ++k) {
    const Watts p = true_plant().predict(f);
    f = ctl.control(inputs(p.value), f).target_freqs_mhz;
  }
  const std::size_t settled = ctl.adaptation_updates();
  for (int k = 0; k < 40; ++k) {
    const Watts p = true_plant().predict(f);
    f = ctl.control(inputs(p.value), f).target_freqs_mhz;
  }
  EXPECT_LE(ctl.adaptation_updates() - settled, 2u);
}

TEST(AdaptiveCapGpu, TracksAMidRunGainShift) {
  CapGpuConfig cfg;
  cfg.adaptive = true;
  cfg.rls.forgetting = 0.95;
  CapGpuController ctl(cfg, devices(), true_plant(), 900_W, {});
  std::vector<double> f{1000.0, 435.0, 435.0};
  for (int k = 0; k < 40; ++k) {
    f = ctl.control(inputs(true_plant().predict(f).value), f)
            .target_freqs_mhz;
  }
  // The two GPUs' gains shift apart (workload intensity changes): +50% on
  // GPU 1, -20% on GPU 2, so an estimate that cannot tell the GPUs apart
  // (near their mean, 0.23) fails both bounds below. A dithered set point
  // keeps excitation alive, and a differential clock dither (GPU 1 up while
  // GPU 2 goes down, as per-device actuation noise would) moves the GPUs
  // independently, so identification does not hinge on the controller's
  // two commands happening to point in different directions.
  const auto shifted = true_plant().scaled_gains({1.0, 1.5, 0.8});
  for (int k = 0; k < 160; ++k) {
    ctl.set_set_point(Watts{(k / 5) % 2 ? 930.0 : 870.0});
    const double dither = (k / 3) % 2 ? 10.0 : -10.0;
    f[1] += dither;
    f[2] -= dither;
    f = ctl.control(inputs(shifted.predict(f).value), f).target_freqs_mhz;
  }
  EXPECT_NEAR(ctl.current_model().gain(1), 0.3, 0.05);
  EXPECT_NEAR(ctl.current_model().gain(2), 0.16, 0.05);
  ctl.set_set_point(900_W);
  for (int k = 0; k < 20; ++k) {
    f = ctl.control(inputs(shifted.predict(f).value), f).target_freqs_mhz;
  }
  EXPECT_NEAR(shifted.predict(f).value, 900.0, 5.0);
}

TEST(AdaptiveCapGpu, EndToEndOnTheRig) {
  // Full-stack check: adaptive controller, misidentified prior, real
  // workload noise (which itself provides excitation) — still converges
  // to the cap.
  ServerRig rig;
  CapGpuConfig cfg;
  cfg.adaptive = true;
  const control::LinearPowerModel bad_prior({0.10, 0.10, 0.35, 0.10}, 300.0);
  CapGpuController ctl(cfg, rig.device_ranges(), bad_prior, 900_W,
                       rig.latency_models());
  RunOptions opt;
  opt.periods = 80;
  opt.set_point = 900_W;
  const RunResult res = rig.run(ctl, opt);
  EXPECT_NEAR(res.steady_power(40).mean(), 900.0, 8.0);
  EXPECT_GT(ctl.adaptation_updates(), 5u);
}

TEST(AdaptiveCapGpu, BuiltInExcitationIdentifiesWithoutExternalDither) {
  // Same misidentified prior as RlsCorrectsAMisidentifiedModel, but the
  // set point never moves: the built-in PRBS excitation must provide the
  // information instead.
  CapGpuConfig cfg;
  cfg.adaptive = true;
  cfg.rls.forgetting = 0.97;
  cfg.rls_excitation_watts = 20.0;
  CapGpuController ctl(cfg, devices(), wrong_prior(), 900_W, {});
  std::vector<double> f{1000.0, 435.0, 435.0};
  for (int k = 0; k < 300; ++k) {
    const Watts p = true_plant().predict(f);
    f = ctl.control(inputs(p.value), f).target_freqs_mhz;
  }
  EXPECT_GT(ctl.adaptation_updates(), 100u);
  EXPECT_NEAR(ctl.current_model().gain(1), 0.2, 0.02);
  EXPECT_NEAR(ctl.current_model().gain(2), 0.2, 0.02);
  // The excitation stays within a small band around the cap.
  telemetry::RunningStats tail;
  for (int k = 0; k < 40; ++k) {
    const Watts p = true_plant().predict(f);
    tail.add(p.value);
    f = ctl.control(inputs(p.value), f).target_freqs_mhz;
  }
  EXPECT_NEAR(tail.mean(), 900.0, 12.0);
  EXPECT_LT(tail.stddev(), 25.0);
  EXPECT_DOUBLE_EQ(ctl.set_point().value, 900.0);  // reported cap honest
}

}  // namespace
}  // namespace capgpu::core
