#include "core/identify.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "core/rig.hpp"

namespace capgpu::core {
namespace {

TEST(Identify, FitQualityMatchesPaper) {
  // The paper reports R^2 = 0.96 on its testbed; the simulated sweep with
  // sensor noise and workload variation should land at or above that.
  ServerRig rig;
  const auto m = rig.identify();
  EXPECT_GT(m.r_squared, 0.96);
  EXPECT_LT(m.rmse_watts, 8.0);
  EXPECT_EQ(m.model.device_count(), 4u);
  EXPECT_EQ(m.samples, 4u * 6u);
}

TEST(Identify, GainsCloseToAnalyticTruth) {
  ServerRig rig;
  const auto identified = rig.identify();
  const auto analytic = rig.analytic_power_model();
  // Identified gains are the analytic slopes scaled by average activity;
  // they must be positive and within a plausible band of the truth.
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_GT(identified.model.gain(j), 0.5 * analytic.gain(j));
    EXPECT_LT(identified.model.gain(j), 1.1 * analytic.gain(j));
  }
  EXPECT_GT(identified.model.offset(), 200.0);
}

TEST(Identify, MoreLevelsTightenTheFit) {
  ServerRig coarse_rig;
  IdentifyOptions coarse;
  coarse.levels_per_device = 3;
  const auto m_coarse = coarse_rig.identify(coarse);

  ServerRig fine_rig;
  IdentifyOptions fine;
  fine.levels_per_device = 10;
  const auto m_fine = fine_rig.identify(fine);

  EXPECT_EQ(m_coarse.samples, 12u);
  EXPECT_EQ(m_fine.samples, 40u);
  // Both identify the same plant: gains agree within a few percent.
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(m_fine.model.gain(j), m_coarse.model.gain(j),
                0.15 * m_fine.model.gain(j));
  }
}

TEST(Identify, RejectsDegenerateOptions) {
  ServerRig rig;
  IdentifyOptions bad;
  bad.levels_per_device = 1;
  EXPECT_THROW((void)rig.identify(bad), capgpu::InvalidArgument);
}

TEST(Identify, AdvancesSimulatedTime) {
  ServerRig rig;
  const double before = rig.engine().now();
  (void)rig.identify();
  EXPECT_GT(rig.engine().now(), before + 60.0);
}

TEST(Identify, SweepKeepsOnlyTheThroughputWindow) {
  // The sweep runs 328 s without a control period. Between its steps it
  // trims every monitor to max(measure 4 s, throughput window 8 s), as
  // end_period() trims to its period.
  ServerRig rig;
  (void)rig.identify();
  const double now = rig.engine().now();
  const double horizon = 8.0;
  const double forever = std::numeric_limits<double>::infinity();
  const auto expect_window_only = [&](const workload::LatencyMonitor& lat,
                                      const workload::ThroughputMonitor& thr,
                                      const char* name) {
    const std::size_t in_window = lat.count(now, horizon);
    EXPECT_GT(in_window, 0u) << name;
    EXPECT_EQ(lat.count(now, forever), in_window) << name;
    ASSERT_GT(thr.samples().size(), 0u) << name;
    EXPECT_GT(thr.samples()[0].time, now - horizon) << name;
  };
  for (std::size_t i = 0; i < rig.gpu_count(); ++i) {
    auto& s = rig.stream(i);
    expect_window_only(s.batch_latency(), s.images_throughput(), "stream");
  }
  expect_window_only(rig.cpu_task().subset_latency(),
                     rig.cpu_task().throughput(), "cpu task");
  // The throughput window a caller reads right after the sweep still
  // answers.
  EXPECT_EQ(rig.normalized_throughputs().size(), 1 + rig.gpu_count());
}

}  // namespace
}  // namespace capgpu::core
