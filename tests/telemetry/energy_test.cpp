#include "telemetry/energy.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "telemetry/context.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"
#include "workload/request_timeline.hpp"

namespace capgpu::telemetry {
namespace {

/// One batch: `exec_s` on the GPU ending at `end_s`, carrying `images`
/// requests whose summed residencies put `exec_s * images` in gpu_exec and
/// `cpu_s` in cpu_preprocess (other stages zero).
EnergyBatch make_batch(double end_s, double exec_s, std::uint32_t images,
                       double cpu_s = 0.0) {
  EnergyBatch b;
  b.start_s = end_s - exec_s;
  b.end_s = end_s;
  b.images = images;
  b.stage_s[3] = exec_s * images;  // gpu_exec
  b.stage_s[1] = cpu_s;            // cpu_preprocess
  return b;
}

TEST(EnergyLedger, StageLayoutMirrorsPipeline) {
  ASSERT_EQ(kEnergyStageCount, workload::kStageCount);
  for (std::size_t s = 0; s < kEnergyStageCount; ++s) {
    EXPECT_STREQ(kEnergyStageNames[s], workload::kStageNames[s]) << s;
  }
}

TEST(EnergyLedger, SplitsActiveAndIdleByDutyCycle) {
  Context context;
  Context::Binding bind(context);
  MetricsRegistry& metrics = context.metrics();
  EnergyLedger ledger("mpc", 1, 2, {"resnet50"});
  // 1000 W over 1 s = 1000 J; one 0.5 s batch on 2 GPU-slots of capacity
  // (2 GPU-seconds) = 25% duty -> 250 J active, 750 J idle.
  ledger.begin_period(800.0, 1000.0, 1.0);
  const EnergyBatch b = make_batch(0.9, 0.5, 10);
  ledger.add_batches(0, &b, 1);
  ledger.end_period();

  EXPECT_DOUBLE_EQ(ledger.total_joules(), 1000.0);
  EnergyRegistry reg;
  ledger.finalize(reg);
  ASSERT_EQ(reg.caps().size(), 1u);
  const EnergyCapSummary& cap = reg.caps()[0];
  EXPECT_DOUBLE_EQ(cap.cap_watts, 800.0);
  EXPECT_EQ(cap.periods, 1u);
  EXPECT_DOUBLE_EQ(cap.total_joules, 1000.0);
  EXPECT_DOUBLE_EQ(cap.active_joules, 250.0);
  EXPECT_DOUBLE_EQ(cap.idle_joules, 750.0);
  EXPECT_EQ(cap.requests, 10u);
  EXPECT_EQ(cap.batches, 1u);

  ASSERT_EQ(reg.entries().size(), 1u);
  const EnergyEntry& e = reg.entries()[0];
  EXPECT_EQ(e.model, "resnet50");
  EXPECT_DOUBLE_EQ(e.energy_joules, 250.0);
  // All residency in gpu_exec -> all 250 J land there.
  EXPECT_DOUBLE_EQ(e.stage_joules[3], 250.0);
  EXPECT_DOUBLE_EQ(e.stage_joules[1], 0.0);

  // The metrics mirror the same split.
  EXPECT_DOUBLE_EQ(metrics
                       .counter(metric::kEnergyJoules, "",
                                {{"model", "resnet50"}, {"stage", "gpu_exec"}})
                       .value(),
                   250.0);
  EXPECT_DOUBLE_EQ(metrics.counter(metric::kEnergyIdleJoules, "", {}).value(),
                   750.0);
}

TEST(EnergyLedger, StageSplitFollowsResidencyShares) {
  Context context;
  Context::Binding bind(context);
  EnergyLedger ledger("mpc", 1, 1, {"m"});
  ledger.begin_period(700.0, 100.0, 1.0);  // 100 J
  // Full duty (1 s batch on 1 GPU-second): 100 J active. Residency: 1 s
  // gpu_exec (1 image) + 3 s cpu_preprocess -> 25 J exec, 75 J cpu.
  const EnergyBatch b = make_batch(1.0, 1.0, 1, 3.0);
  ledger.add_batches(0, &b, 1);
  ledger.end_period();
  EnergyRegistry reg;
  ledger.finalize(reg);
  ASSERT_EQ(reg.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(reg.entries()[0].stage_joules[3], 25.0);
  EXPECT_DOUBLE_EQ(reg.entries()[0].stage_joules[1], 75.0);
}

TEST(EnergyLedger, IdleOnlyPeriodAttributesNothing) {
  Context context;
  Context::Binding bind(context);
  EnergyLedger ledger("mpc", 1, 3, {"a", "b"});
  ledger.begin_period(600.0, 500.0, 4.0);  // 2000 J, no batches
  ledger.end_period();
  EnergyRegistry reg;
  ledger.finalize(reg);
  ASSERT_EQ(reg.caps().size(), 1u);
  EXPECT_DOUBLE_EQ(reg.caps()[0].active_joules, 0.0);
  EXPECT_DOUBLE_EQ(reg.caps()[0].idle_joules, 2000.0);
  // Models with zero batches produce no per-model entries.
  EXPECT_TRUE(reg.entries().empty());
}

TEST(EnergyLedger, CapsBucketAtTenthWatt) {
  Context context;
  Context::Binding bind(context);
  EnergyLedger ledger("mpc", 1, 1, {"m"});
  ledger.begin_period(800.0, 100.0, 1.0);
  ledger.end_period();
  ledger.begin_period(800.04, 100.0, 1.0);  // same 0.1 W bucket
  ledger.end_period();
  ledger.begin_period(800.1, 100.0, 1.0);  // distinct bucket
  ledger.end_period();
  EnergyRegistry reg;
  ledger.finalize(reg);
  ASSERT_EQ(reg.caps().size(), 2u);
  EXPECT_EQ(reg.caps()[0].periods, 2u);
  EXPECT_EQ(reg.caps()[1].periods, 1u);
  EXPECT_DOUBLE_EQ(ledger.total_joules(), 300.0);
}

TEST(EnergyLedger, DutyCycleClampsAtFullOccupancy) {
  Context context;
  Context::Binding bind(context);
  EnergyLedger ledger("mpc", 1, 1, {"m"});
  ledger.begin_period(900.0, 100.0, 1.0);
  // A batch straddling the period boundary: 1.5 s busy on 1 GPU-second of
  // capacity. Duty clamps at 1 -> all energy active, none negative-idle.
  const EnergyBatch b = make_batch(1.0, 1.5, 4);
  ledger.add_batches(0, &b, 1);
  ledger.end_period();
  EnergyRegistry reg;
  ledger.finalize(reg);
  EXPECT_DOUBLE_EQ(reg.caps()[0].active_joules, 100.0);
  EXPECT_DOUBLE_EQ(reg.caps()[0].idle_joules, 0.0);
}

TEST(EnergyLedger, PeriodProtocolEnforced) {
  Context context;
  Context::Binding bind(context);
  EnergyLedger ledger("mpc", 1, 1, {"m"});
  EXPECT_THROW(ledger.end_period(), InvalidArgument);
  const EnergyBatch b = make_batch(1.0, 0.5, 1);
  EXPECT_THROW(ledger.add_batches(0, &b, 1), InvalidArgument);
  ledger.begin_period(800.0, 100.0, 1.0);
  EXPECT_THROW(ledger.begin_period(800.0, 100.0, 1.0), InvalidArgument);
  EXPECT_THROW(ledger.add_batches(5, &b, 1), InvalidArgument);
  EnergyRegistry reg;
  EXPECT_THROW(ledger.finalize(reg), InvalidArgument);  // period still open
  ledger.end_period();
}

TEST(EnergyRegistry, MergeShiftsPids) {
  EnergyRegistry parent;
  EnergyEntry a;
  a.pid = 1;
  a.policy = "mpc";
  parent.add_entry(a);
  EnergyRegistry child;
  EnergyEntry b;
  b.pid = 1;
  b.policy = "fixed-step";
  child.add_entry(b);
  EnergyCapSummary c;
  c.pid = 2;
  child.add_cap(c);
  parent.merge_from(child, 10);
  ASSERT_EQ(parent.entries().size(), 2u);
  EXPECT_EQ(parent.entries()[1].pid, 11);
  EXPECT_EQ(parent.entries()[1].policy, "fixed-step");
  ASSERT_EQ(parent.caps().size(), 1u);
  EXPECT_EQ(parent.caps()[0].pid, 12);
}

TEST(EnergyReport, RendersEfficiencySummary) {
  EnergyRegistry reg;
  EnergyEntry e;
  e.pid = 1;
  e.policy = "mpc";
  e.model = "resnet50";
  e.cap_watts = 800.0;
  e.energy_joules = 400.0;
  e.stage_joules = {10.0, 40.0, 50.0, 300.0};
  e.requests = 100;
  e.batches = 5;
  reg.add_entry(e);
  EnergyCapSummary c;
  c.pid = 1;
  c.policy = "mpc";
  c.cap_watts = 800.0;
  c.periods = 10;
  c.total_joules = 500.0;
  c.active_joules = 400.0;
  c.idle_joules = 100.0;
  c.requests = 100;
  c.batches = 5;
  reg.add_cap(c);

  const std::string report = to_energy_report(reg);
  EXPECT_NE(report.find("\"model\":\"resnet50\""), std::string::npos);
  EXPECT_NE(report.find("\"joules_per_request\":4"), std::string::npos);
  EXPECT_NE(report.find("\"joules_per_request\":5"), std::string::npos);
  EXPECT_NE(report.find("\"requests_per_kilojoule\":200"), std::string::npos);
  EXPECT_NE(report.find("\"idle_fraction\":0.2"), std::string::npos);
  EXPECT_NE(report.find("\"dominant_stage\":\"gpu_exec\""), std::string::npos);
  // Byte-determinism: rendering twice produces identical bytes.
  EXPECT_EQ(report, to_energy_report(reg));
}

TEST(EnergyReport, EmptyRegistryAndZeroRequestsStayFinite) {
  EnergyRegistry reg;
  const std::string empty = to_energy_report(reg);
  EXPECT_NE(empty.find("\"entries\": ["), std::string::npos);
  EXPECT_NE(empty.find("\"caps\": ["), std::string::npos);

  // A cap with zero requests / zero joules must not emit NaN or inf.
  EnergyCapSummary c;
  c.pid = 1;
  c.policy = "mpc";
  c.cap_watts = 700.0;
  c.periods = 1;
  reg.add_cap(c);
  const std::string report = to_energy_report(reg);
  // Value positions are ":<number>"; "nan" alone would also match the
  // "dominant_stage" key.
  EXPECT_EQ(report.find(":nan"), std::string::npos);
  EXPECT_EQ(report.find(":-nan"), std::string::npos);
  EXPECT_EQ(report.find(":inf"), std::string::npos);
  EXPECT_EQ(report.find(":-inf"), std::string::npos);
  EXPECT_NE(report.find("\"joules_per_request\":0"), std::string::npos);
  EXPECT_NE(report.find("\"dominant_stage\":\"\""), std::string::npos);
}

}  // namespace
}  // namespace capgpu::telemetry
