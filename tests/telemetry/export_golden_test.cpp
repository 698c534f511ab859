// Exporter golden tests: the Prometheus exposition, the Chrome trace JSON
// and the resilience report are pinned byte-for-byte. The first two are
// consumed by external tools (promtool, Perfetto), the report by jq gates
// and capgpu_report, so accidental format drift is a real break even when
// the numbers are right.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/resilience.hpp"
#include "telemetry/trace.hpp"

namespace capgpu::telemetry {
namespace {

TEST(PrometheusGolden, CounterAndGaugeFamilies) {
  MetricsRegistry reg;
  reg.counter("capgpu_loop_periods_total", "Control periods executed",
              {{"policy", "capgpu"}})
      .inc(42.0);
  reg.counter("capgpu_loop_periods_total", "Control periods executed",
              {{"policy", "gpu-only"}})
      .inc(7.0);
  reg.gauge("capgpu_server_power_watts", "Per-period average server power",
            {{"policy", "capgpu"}, {"kind", "measured"}})
      .set(895.25);

  const std::string expected =
      "# HELP capgpu_loop_periods_total Control periods executed\n"
      "# TYPE capgpu_loop_periods_total counter\n"
      "capgpu_loop_periods_total{policy=\"capgpu\"} 42\n"
      "capgpu_loop_periods_total{policy=\"gpu-only\"} 7\n"
      "# HELP capgpu_server_power_watts Per-period average server power\n"
      "# TYPE capgpu_server_power_watts gauge\n"
      "capgpu_server_power_watts{kind=\"measured\",policy=\"capgpu\"} "
      "895.25\n";
  EXPECT_EQ(to_prometheus(reg), expected);
}

TEST(PrometheusGolden, HistogramExpandsToCumulativeBuckets) {
  MetricsRegistry reg;
  LogLinearHistogram& h = reg.histogram(
      "capgpu_latency_seconds", "Batch latency", HistogramSpec{0.1, 1, 3});
  // Bounds: 0.1, 0.4, 0.7, 1.0 (+Inf implicit).
  h.observe(0.05);  // first bucket
  h.observe(0.4);   // le-inclusive: still the 0.4 bucket
  h.observe(0.5);
  h.observe(99.0);  // +Inf

  const std::string expected =
      "# HELP capgpu_latency_seconds Batch latency\n"
      "# TYPE capgpu_latency_seconds histogram\n"
      "capgpu_latency_seconds_bucket{le=\"0.1\"} 1\n"
      "capgpu_latency_seconds_bucket{le=\"0.4\"} 2\n"
      "capgpu_latency_seconds_bucket{le=\"0.7\"} 3\n"
      "capgpu_latency_seconds_bucket{le=\"1\"} 3\n"
      "capgpu_latency_seconds_bucket{le=\"+Inf\"} 4\n"
      "capgpu_latency_seconds_sum 99.95\n"
      "capgpu_latency_seconds_count 4\n";
  EXPECT_EQ(to_prometheus(reg), expected);
}

TEST(PrometheusGolden, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.counter("capgpu_events_total", "events",
              {{"note", "a\"b\\c\nd"}})
      .inc();
  const std::string expected =
      "# HELP capgpu_events_total events\n"
      "# TYPE capgpu_events_total counter\n"
      "capgpu_events_total{note=\"a\\\"b\\\\c\\nd\"} 1\n";
  EXPECT_EQ(to_prometheus(reg), expected);
}

TEST(PrometheusGolden, NonFiniteValuesUseExpositionSpellings) {
  // Gauges can legitimately hold non-finite values (a meter dark fault
  // propagates NaN). The exposition format requires "NaN"/"+Inf"/"-Inf" —
  // %g's lowercase "nan"/"inf" is rejected by Prometheus parsers.
  MetricsRegistry reg;
  reg.gauge("capgpu_meter_watts", "meter", {{"state", "dark"}})
      .set(std::nan(""));
  reg.gauge("capgpu_meter_watts", "meter", {{"state", "railed_hi"}})
      .set(std::numeric_limits<double>::infinity());
  reg.gauge("capgpu_meter_watts", "meter", {{"state", "railed_lo"}})
      .set(-std::numeric_limits<double>::infinity());
  const std::string expected =
      "# HELP capgpu_meter_watts meter\n"
      "# TYPE capgpu_meter_watts gauge\n"
      "capgpu_meter_watts{state=\"dark\"} NaN\n"
      "capgpu_meter_watts{state=\"railed_hi\"} +Inf\n"
      "capgpu_meter_watts{state=\"railed_lo\"} -Inf\n";
  EXPECT_EQ(to_prometheus(reg), expected);
}

TEST(PrometheusGolden, EmptySketchAndHistogramEmitNoNaN) {
  // A registered-but-never-observed summary/histogram must still render a
  // parseable family: zero quantiles, zero sum/count — never NaN.
  MetricsRegistry reg;
  (void)reg.sketch("capgpu_request_energy_joules", "per-request energy",
                   {{"model", "resnet50"}});
  const std::string summary = to_prometheus(reg);
  EXPECT_EQ(summary.find("NaN"), std::string::npos);
  EXPECT_EQ(summary.find("nan"), std::string::npos);
  EXPECT_NE(
      summary.find(
          "capgpu_request_energy_joules{model=\"resnet50\",quantile=\"0.5\"} "
          "0\n"),
      std::string::npos);
  EXPECT_NE(summary.find("capgpu_request_energy_joules_count{model="
                         "\"resnet50\"} 0\n"),
            std::string::npos);

  MetricsRegistry reg2;
  (void)reg2.histogram("capgpu_latency_seconds", "latency",
                       HistogramSpec{0.1, 1, 3});
  const std::string hist = to_prometheus(reg2);
  EXPECT_EQ(hist.find("NaN"), std::string::npos);
  EXPECT_EQ(hist.find("nan"), std::string::npos);
  EXPECT_NE(hist.find("capgpu_latency_seconds_sum 0\n"), std::string::npos);
  EXPECT_NE(hist.find("capgpu_latency_seconds_count 0\n"), std::string::npos);
}

TEST(ChromeTraceGolden, FullDocument) {
  Tracer tracer;
  tracer.set_enabled(true);
  double now = 0.0;
  tracer.set_clock([&now] { return now; });
  const int pid = tracer.begin_run("rig");
  const int tid = tracer.register_track("loop");
  tracer.complete(tid, "control_period", "control", 0.0, 4.0,
                  {{"power_w", 901.5}, {"period", 0.0}});
  now = 4.0;
  tracer.instant(tid, "deadband_hold", "control", {{"error_w", -1.25}});
  tracer.counter(tid, "watts", "power", {{"server", 900.0}});
  ASSERT_EQ(pid, 1);
  ASSERT_EQ(tid, 1);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\","
      "\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"rig\"}},\n"
      "{\"name\":\"thread_name\",\"cat\":\"__metadata\",\"ph\":\"M\","
      "\"pid\":1,\"tid\":1,\"ts\":0,\"args\":{\"name\":\"loop\"}},\n"
      "{\"name\":\"control_period\",\"cat\":\"control\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":4000000,"
      "\"args\":{\"power_w\":901.5,\"period\":0}},\n"
      "{\"name\":\"deadband_hold\",\"cat\":\"control\",\"ph\":\"i\","
      "\"pid\":1,\"tid\":1,\"ts\":4000000,\"s\":\"t\","
      "\"args\":{\"error_w\":-1.25}},\n"
      "{\"name\":\"watts\",\"cat\":\"power\",\"ph\":\"C\","
      "\"pid\":1,\"tid\":1,\"ts\":4000000,\"args\":{\"server\":900}}\n"
      "]}\n";
  std::ostringstream out;
  tracer.write_chrome_json(out);
  EXPECT_EQ(out.str(), expected);

  const std::string jsonl_expected =
      "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\","
      "\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"rig\"}}\n"
      "{\"name\":\"thread_name\",\"cat\":\"__metadata\",\"ph\":\"M\","
      "\"pid\":1,\"tid\":1,\"ts\":0,\"args\":{\"name\":\"loop\"}}\n"
      "{\"name\":\"control_period\",\"cat\":\"control\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":4000000,"
      "\"args\":{\"power_w\":901.5,\"period\":0}}\n"
      "{\"name\":\"deadband_hold\",\"cat\":\"control\",\"ph\":\"i\","
      "\"pid\":1,\"tid\":1,\"ts\":4000000,\"s\":\"t\","
      "\"args\":{\"error_w\":-1.25}}\n"
      "{\"name\":\"watts\",\"cat\":\"power\",\"ph\":\"C\","
      "\"pid\":1,\"tid\":1,\"ts\":4000000,\"args\":{\"server\":900}}\n";
  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  EXPECT_EQ(jsonl.str(), jsonl_expected);
}

TEST(ChromeTraceGolden, EmptyTracerStillValidDocument) {
  Tracer tracer;
  std::ostringstream out;
  tracer.write_chrome_json(out);
  EXPECT_EQ(out.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

TEST(ResilienceGolden, EmptyRegistryStillValidDocument) {
  const ResilienceRegistry reg;
  EXPECT_EQ(to_resilience_report(reg), "{\n  \"campaigns\": [\n  ]\n}\n");
}

TEST(ResilienceGolden, EntriesInRegistryOrder) {
  ResilienceRegistry reg;
  ResilienceEntry hardened;
  hardened.pid = 3;
  hardened.campaign = "pdu0_brownout";
  hardened.variant = "hardened";
  hardened.stage = "pdu_brownout";
  hardened.fault_kind = "brownout";
  hardened.domain = "rack0/pdu0";
  hardened.fault_start_s = 200.0;
  hardened.fault_end_s = 320.0;
  hardened.detected_at_s = 212.5;
  hardened.recovered_at_s = 328.0;
  hardened.mttr_s = 8.0;
  hardened.slo_burn_during = 0.125;
  hardened.slo_burn_after = 0.0625;
  hardened.recovery_overshoot_w = 14.75;
  hardened.failsafe_dwell_s = 36.0;
  hardened.failsafe_entries = 2;
  hardened.health_transitions = 4;
  reg.add(hardened);
  // Never detected, never recovered: the -1 markers stay as they are.
  ResilienceEntry baseline;
  baseline.pid = 2;
  baseline.campaign = "row \"B\"\\feed\n";
  baseline.variant = "baseline";
  baseline.stage = "brownout";
  baseline.fault_kind = "brownout";
  baseline.domain = "rack0/pdu1";
  baseline.fault_start_s = 200.0;
  baseline.fault_end_s = 320.0;
  baseline.slo_burn_during = 1.0 / 3.0;
  reg.add(baseline);

  const std::string expected =
      "{\n  \"campaigns\": [\n"
      "    {\"pid\":3,\"campaign\":\"pdu0_brownout\",\"variant\":\"hardened\","
      "\"stage\":\"pdu_brownout\",\"fault_kind\":\"brownout\","
      "\"domain\":\"rack0/pdu0\",\"fault_start_s\":200,\"fault_end_s\":320,"
      "\"detected_at_s\":212.5,\"recovered_at_s\":328,\"mttr_s\":8,"
      "\"slo_burn_during\":0.125,\"slo_burn_after\":0.0625,"
      "\"recovery_overshoot_w\":14.75,\"failsafe_dwell_s\":36,"
      "\"failsafe_entries\":2,\"health_transitions\":4},\n"
      "    {\"pid\":2,\"campaign\":\"row \\\"B\\\"\\\\feed\\n\","
      "\"variant\":\"baseline\",\"stage\":\"brownout\","
      "\"fault_kind\":\"brownout\",\"domain\":\"rack0/pdu1\","
      "\"fault_start_s\":200,\"fault_end_s\":320,\"detected_at_s\":-1,"
      "\"recovered_at_s\":-1,\"mttr_s\":-1,"
      "\"slo_burn_during\":0.3333333333,\"slo_burn_after\":0,"
      "\"recovery_overshoot_w\":0,\"failsafe_dwell_s\":0,"
      "\"failsafe_entries\":0,\"health_transitions\":0}\n"
      "  ]\n}\n";
  EXPECT_EQ(to_resilience_report(reg), expected);
}

TEST(ResilienceGolden, MergeShiftsPidsByOffset) {
  ResilienceRegistry parent;
  ResilienceEntry own;
  own.pid = 1;
  own.variant = "parent";
  parent.add(own);
  ResilienceRegistry child;
  for (const int pid : {1, 2}) {
    ResilienceEntry e;
    e.pid = pid;
    e.variant = "child";
    child.add(e);
  }
  parent.merge_from(child, 10);

  ASSERT_EQ(parent.entries().size(), 3u);
  EXPECT_EQ(parent.entries()[0].variant, "parent");
  EXPECT_EQ(parent.entries()[1].pid, 11);
  EXPECT_EQ(parent.entries()[2].pid, 12);
  const std::string report = to_resilience_report(parent);
  const auto own_at = report.find("{\"pid\":1,");
  const auto first_child_at = report.find("{\"pid\":11,");
  const auto second_child_at = report.find("{\"pid\":12,");
  ASSERT_NE(second_child_at, std::string::npos);
  EXPECT_LT(own_at, first_child_at);
  EXPECT_LT(first_child_at, second_child_at);
  // The child registry keeps its own pids.
  EXPECT_EQ(child.entries()[0].pid, 1);
}

}  // namespace
}  // namespace capgpu::telemetry
