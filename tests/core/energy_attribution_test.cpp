// Energy-ledger integration: a closed-loop CapGPU run must reconcile the
// ledger's per-cap joules with the control loop's integrated power trace
// (< 0.1% — both integrate the same per-period meter averages), and the
// attribution invariants (active + idle = total, stage split sums to the
// model total, metrics mirror the registry) must hold on real traffic.
#include <gtest/gtest.h>

#include <cmath>

#include "core/capgpu_controller.hpp"
#include "core/rig.hpp"
#include "telemetry/context.hpp"
#include "telemetry/energy.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"

namespace capgpu::core {
namespace {

TEST(EnergyAttribution, LedgerReconcilesWithPowerTrace) {
  telemetry::Context context;
  telemetry::Context::Binding bind(context);
  telemetry::MetricsRegistry& metrics = context.metrics();
  telemetry::EnergyRegistry& energy = context.energy();

  ServerRig rig;
  CapGpuController ctl(CapGpuConfig{}, rig.device_ranges(),
                       rig.analytic_power_model(), 900_W,
                       rig.latency_models());
  RunOptions opt;
  opt.periods = 40;
  opt.set_point = 900_W;
  opt.set_point_changes[20] = 750_W;  // two caps -> two ledger buckets
  const RunResult result = rig.run(ctl, opt);

  ASSERT_EQ(energy.caps().size(), 2u);
  ASSERT_FALSE(energy.entries().empty());

  // Reconciliation: ledger total vs the integrated power trace.
  const double period_s = opt.loop.period.value;
  double trace_joules = 0.0;
  for (std::size_t i = 0; i < result.power.size(); ++i) {
    trace_joules += result.power.value_at(i) * period_s;
  }
  double ledger_joules = 0.0;
  std::uint64_t ledger_periods = 0;
  for (const auto& cap : energy.caps()) {
    ledger_joules += cap.total_joules;
    ledger_periods += cap.periods;
    // Active/idle split is exact per cap.
    EXPECT_NEAR(cap.active_joules + cap.idle_joules, cap.total_joules,
                1e-9 * cap.total_joules);
    EXPECT_GT(cap.requests, 0u);  // saturated streams complete work
  }
  EXPECT_EQ(ledger_periods, opt.periods);
  ASSERT_GT(trace_joules, 0.0);
  EXPECT_LT(std::abs(ledger_joules - trace_joules) / trace_joules, 1e-3);

  // Per-model stage split sums back to the model's attributed energy.
  for (const auto& e : energy.entries()) {
    double stage_sum = 0.0;
    for (double j : e.stage_joules) stage_sum += j;
    EXPECT_NEAR(stage_sum, e.energy_joules, 1e-9 * (e.energy_joules + 1.0));
    EXPECT_GT(e.requests, 0u);
  }

  // Metrics mirror the ledger: stage counters + idle counter = total.
  double counter_joules =
      metrics.counter(telemetry::metric::kEnergyIdleJoules, "", {}).value();
  for (std::size_t i = 0; i < rig.gpu_count(); ++i) {
    const auto& name = rig.stream(i).model().name;
    for (const char* stage : telemetry::kEnergyStageNames) {
      counter_joules +=
          metrics
              .counter(telemetry::metric::kEnergyJoules, "",
                       {{"model", name}, {"stage", stage}})
              .value();
    }
  }
  EXPECT_NEAR(counter_joules, ledger_joules, 1e-6 * ledger_joules);
}

TEST(EnergyAttribution, DisabledLedgerRecordsNothing) {
  telemetry::Context context;
  telemetry::Context::Binding bind(context);
  telemetry::EnergyRegistry& energy = context.energy();

  ServerRig rig;
  CapGpuController ctl(CapGpuConfig{}, rig.device_ranges(),
                       rig.analytic_power_model(), 900_W,
                       rig.latency_models());
  RunOptions opt;
  opt.periods = 5;
  opt.energy_attribution = false;
  (void)rig.run(ctl, opt);

  EXPECT_TRUE(energy.caps().empty());
  EXPECT_TRUE(energy.entries().empty());
}

}  // namespace
}  // namespace capgpu::core
