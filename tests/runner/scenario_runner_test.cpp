#include "runner/scenario_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/context.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/sketch.hpp"
#include "telemetry/trace.hpp"

namespace capgpu::runner {
namespace {

using telemetry::Context;
using telemetry::MetricsRegistry;
using telemetry::Tracer;

TEST(ScenarioRunner, MapReturnsResultsInIndexOrder) {
  ScenarioRunner sr({8});
  const std::vector<int> out =
      sr.map(100, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ScenarioRunner, JobsOneRunsInlineOnTheCaller) {
  ScenarioRunner sr({1});
  const auto caller = std::this_thread::get_id();
  sr.run(5, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(ScenarioRunner, ZeroJobsResolvesToHardware) {
  ScenarioRunner sr({0});
  EXPECT_EQ(sr.jobs(), ThreadPool::hardware_jobs());
}

/// A scenario body that instruments like library code does: counters,
/// gauges, histograms and trace events through the ::current() accessors.
void instrument_scenario(std::size_t i) {
  auto& reg = MetricsRegistry::current();
  reg.counter("scenario_runs_total", "runs").inc();
  reg.counter("scenario_weight_total", "weighted").inc(double(i) + 1.0);
  reg.gauge("scenario_last_index", "index").set(double(i));
  reg.histogram("scenario_value", "values").observe(0.001 * double(i + 1));
  // Quantile sketch as the request-latency attribution registers it: the
  // per-stage series must merge deterministically in scenario order.
  auto& sk = reg.sketch("scenario_latency_seconds", "latency",
                        {{"stage", "gpu_exec"}});
  for (int k = 0; k < 32; ++k) {
    sk.observe(0.001 * double(i + 1) + 0.0001 * double(k));
  }
  Tracer::current().instant(0, "scenario-" + std::to_string(i), "test", {});
}

/// Runs the same scenario set under `jobs` workers into fresh parent
/// telemetry and renders everything to one comparable string.
std::string run_and_render(std::size_t jobs, std::size_t count) {
  Context context;
  context.tracer().set_enabled(true);
  Context::Binding bind(context);
  MetricsRegistry& parent = context.metrics();
  Tracer& tracer = context.tracer();

  ScenarioRunner sr({jobs});
  const std::vector<int> results =
      sr.map(count, [](std::size_t i) {
        instrument_scenario(i);
        return static_cast<int>(i) * 3;
      });

  std::ostringstream out;
  out << telemetry::to_prometheus(parent);
  std::ostringstream trace_json;
  tracer.write_chrome_json(trace_json);
  out << trace_json.str();
  for (int r : results) out << r << ",";
  return out.str();
}

TEST(ScenarioRunner, TelemetryAndResultsAreByteIdenticalAcrossJobCounts) {
  const std::string seq = run_and_render(1, 24);
  EXPECT_EQ(run_and_render(2, 24), seq);
  EXPECT_EQ(run_and_render(8, 24), seq);
}

TEST(ScenarioRunner, SketchMergeIsDeterministicAcrossJobCounts) {
  // Sketch bucket counts are integers and merge in scenario order, so a
  // parallel run must reproduce the sequential quantiles bit-for-bit.
  auto run_jobs = [](std::size_t jobs, Context& parent) {
    Context::Binding bind(parent);
    ScenarioRunner sr({jobs});
    sr.run(24, [](std::size_t i) { instrument_scenario(i); });
  };
  Context seq;
  Context par;
  run_jobs(1, seq);
  run_jobs(8, par);
  auto& a = seq.metrics().sketch("scenario_latency_seconds", "latency",
                       {{"stage", "gpu_exec"}});
  auto& b = par.metrics().sketch("scenario_latency_seconds", "latency",
                       {{"stage", "gpu_exec"}});
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.count(), 24u * 32u);
  for (double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(a.sum(), b.sum());
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_DOUBLE_EQ(a.max(), b.max());
}

TEST(ScenarioRunner, MergesScenarioTelemetryIntoTheCallersRegistry) {
  Context context;
  Context::Binding bind(context);
  MetricsRegistry& parent = context.metrics();
  ScenarioRunner sr({4});
  sr.run(10, [](std::size_t i) { instrument_scenario(i); });
  EXPECT_DOUBLE_EQ(parent.counter("scenario_runs_total", "runs").value(),
                   10.0);
  // 1+2+...+10
  EXPECT_DOUBLE_EQ(parent.counter("scenario_weight_total", "weighted").value(),
                   55.0);
  // Gauges merge last-writer-wins in scenario order: index 9 lands last.
  EXPECT_DOUBLE_EQ(parent.gauge("scenario_last_index", "index").value(), 9.0);
  EXPECT_EQ(parent.histogram("scenario_value", "values").count(), 10u);
}

TEST(ScenarioRunner, ExceptionIsRethrownWithPriorScenariosMerged) {
  Context context;
  Context::Binding bind(context);
  MetricsRegistry& parent = context.metrics();
  ScenarioRunner sr({1});
  EXPECT_THROW(sr.run(10,
                      [](std::size_t i) {
                        if (i == 3) throw std::runtime_error("scenario 3");
                        instrument_scenario(i);
                      }),
               std::runtime_error);
  // Sequential semantics: scenarios 0..2 ran and their telemetry merged.
  EXPECT_DOUBLE_EQ(parent.counter("scenario_runs_total", "runs").value(), 3.0);
}

TEST(ScenarioRunner, ParallelFailureReportsLowestFailedIndex) {
  ScenarioRunner sr({8});
  std::string what;
  try {
    sr.run(50, [](std::size_t i) {
      if (i % 7 == 3) {  // several failures; index 3 is the first
        throw std::runtime_error("scenario " + std::to_string(i));
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "scenario 3");
}

TEST(ScenarioRunner, RunsEveryScenarioExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  ScenarioRunner sr({8});
  sr.run(64, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace capgpu::runner
