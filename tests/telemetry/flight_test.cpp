// FlightRecord serialization and FlightRecorder semantics: the JSONL
// round trip must be bit-exact (replay depends on it), the ring must drop
// oldest-first with accounting, and finalization must fill residuals and
// derive the controller-health metrics.
#include "telemetry/flight.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "telemetry/context.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"

namespace capgpu::telemetry {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(FlightRecord, JsonlRoundTripIsBitExact) {
  FlightRecord rec;
  rec.pid = 3;
  rec.period = 17;
  rec.t_s = 68.000000000000014;
  rec.policy = "capgpu";
  rec.measured_power_w = 901.23456789012345;
  rec.freqs_mhz = {1000.0, 1.0 / 3.0, 0.1};
  rec.targets_mhz = {999.99999999999989, 2.0 / 3.0, 0.30000000000000004};
  rec.power_residual_w = -2.2250738585072014e-308;  // smallest normal
  rec.realized_latency_s = {0.0, 0.987654321, 5e-324};  // denormal
  rec.outcome_filled = true;
  rec.mpc.present = true;
  rec.mpc.fed_power_w = 903.00000000000011;
  rec.mpc.gains_w_per_mhz = {0.123456789012345678, 0.2, 0.3};
  rec.mpc.offset_w = 123.45678901234567;
  rec.mpc.f_min_mhz = {1000.0, 544.44444444444446, 435.0};
  rec.mpc.f_max_mhz = {2400.0, 1350.0, 1200.0};
  rec.mpc.f_lo_mhz = {1000.0, 435.0, 435.0};
  rec.mpc.f_hi_mhz = {2400.0, 1350.0, 1350.0};
  rec.mpc.device_kinds = {0, 1, 1};
  rec.mpc.prediction_horizon = 8;
  rec.mpc.control_horizon = 2;
  rec.mpc.regularization = 1e-9;
  rec.mpc.planned_deltas_mhz = {-0.0, 12.345678901234567, 1e-300};
  rec.mpc.qp_iterations = 3;
  rec.mpc.qp_converged = true;
  rec.mpc.fast_path_hit = true;
  rec.mpc.qp_objective = 1234.5678901234567;
  rec.mpc.active_set_size = 4;
  rec.mpc.floor_binding = {0, 1, 0};
  rec.mpc.ceiling_binding = {1, 0, 0};

  const std::string line = rec.to_jsonl();
  const FlightRecord back = FlightRecord::from_json(json::parse(line));

  // Serializing the parsed record must reproduce the line byte-for-byte —
  // the property the replay-determinism gate rests on.
  EXPECT_EQ(line, back.to_jsonl());
  ASSERT_EQ(back.targets_mhz.size(), rec.targets_mhz.size());
  for (std::size_t j = 0; j < rec.targets_mhz.size(); ++j) {
    EXPECT_TRUE(bits_equal(back.targets_mhz[j], rec.targets_mhz[j])) << j;
  }
  EXPECT_TRUE(bits_equal(back.power_residual_w, rec.power_residual_w));
  EXPECT_TRUE(bits_equal(back.realized_latency_s[2], 5e-324));
  EXPECT_TRUE(bits_equal(back.mpc.gains_w_per_mhz[0],
                         rec.mpc.gains_w_per_mhz[0]));
  EXPECT_EQ(back.mpc.prediction_horizon, 8u);
  EXPECT_EQ(back.mpc.qp_iterations, 3u);
  EXPECT_TRUE(back.mpc.fast_path_hit);
  EXPECT_EQ(back.mpc.floor_binding, rec.mpc.floor_binding);
  EXPECT_EQ(back.policy, "capgpu");

  // Logs written by older solvers carry hit flags of removed tiers; such a
  // line still parses, and serializes again without them.
  std::string legacy = line;
  legacy.insert(legacy.find("\"fast_path_hit\""), "\"cache_hit\":0,");
  legacy.insert(legacy.find("\"qp_objective\""), "\"structured_hit\":0,");
  ASSERT_NE(legacy, line);
  EXPECT_EQ(FlightRecord::from_json(json::parse(legacy)).to_jsonl(), line);
}

TEST(FlightRecord, ShortPerDeviceArraysAreRejected) {
  // A replay sizes the controller by the gain count and indexes every
  // per-device array with it; a log is outside input, so a short array must
  // fail the parse instead of being read past its end.
  FlightRecord rec;
  rec.policy = "capgpu";
  rec.mpc.present = true;
  rec.mpc.gains_w_per_mhz = {0.05, 0.19};
  rec.mpc.f_min_mhz = {1000.0, 435.0};
  rec.mpc.f_max_mhz = {2400.0, 1350.0};
  rec.mpc.f_lo_mhz = {1000.0, 435.0};
  rec.mpc.f_hi_mhz = {2400.0, 1350.0};
  rec.mpc.device_kinds = {0, 1};
  EXPECT_NO_THROW(FlightRecord::from_json(json::parse(rec.to_jsonl())));

  rec.mpc.device_kinds = {0};
  EXPECT_THROW(FlightRecord::from_json(json::parse(rec.to_jsonl())),
               InvalidArgument);
  rec.mpc.device_kinds = {0, 1};
  rec.mpc.f_hi_mhz = {2400.0};
  EXPECT_THROW(FlightRecord::from_json(json::parse(rec.to_jsonl())),
               InvalidArgument);
}

TEST(FlightRecord, UncheckedCountsAreRejectedNamingTheKey) {
  // Counts and int fields index and size the replay: a negative horizon
  // once became a huge size_t and hung capgpu_ctl_replay. Every such value
  // that is negative, fractional, non-finite or out of range must fail the
  // parse with a message naming its key.
  FlightRecord rec;
  rec.pid = 3;
  rec.period = 7;
  rec.policy = "capgpu";
  rec.failsafe_state = 0;
  rec.mpc.present = true;
  rec.mpc.gains_w_per_mhz = {0.05, 0.19};
  rec.mpc.f_min_mhz = {1000.0, 435.0};
  rec.mpc.f_max_mhz = {2400.0, 1350.0};
  rec.mpc.f_lo_mhz = {1000.0, 435.0};
  rec.mpc.f_hi_mhz = {2400.0, 1350.0};
  rec.mpc.device_kinds = {0, 1};
  rec.mpc.prediction_horizon = 8;
  rec.mpc.control_horizon = 2;
  rec.mpc.floor_binding = {0, 1};
  const std::string line = rec.to_jsonl();
  EXPECT_NO_THROW(FlightRecord::from_json(json::parse(line)));

  const auto rejects = [&line](const std::string& field,
                               const std::string& bad) {
    const std::size_t at = line.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    const std::size_t value = at + field.size();
    const std::size_t end = line[value] == '['
                                ? line.find(']', value) + 1
                                : line.find_first_of(",}", value);
    std::string edited = line;
    edited.replace(value, end - value, bad);
    const std::string key = field.substr(1, field.find('"', 1) - 1);
    try {
      (void)FlightRecord::from_json(json::parse(edited));
      ADD_FAILURE() << field << bad << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << e.what();
    }
  };
  rejects("\"prediction_horizon\":", "-1");
  rejects("\"control_horizon\":", "2.5");
  rejects("\"qp_iterations\":", "1e999");
  rejects("\"active_set_size\":", "-0.5");
  rejects("\"period\":", "-3");
  rejects("\"pid\":", "1.5");
  rejects("\"failsafe_state\":", "3000000000");
  rejects("\"device_kinds\":", "[0,-2147483649]");
  rejects("\"floor_binding\":", "[0,0.5]");
}

TEST(FlightRecord, NonObjectLinesAreRejected) {
  // Every valid JSON value parses; only an object is a record. A line such
  // as [[[]]] once read as a record of defaults, so a log of them replayed
  // nothing and still passed.
  for (const char* line : {"[[[]]]", "1", "\"period\"", "null", "[{}]"}) {
    EXPECT_THROW(FlightRecord::from_json(json::parse(line)), InvalidArgument)
        << line;
  }
  EXPECT_NO_THROW(FlightRecord::from_json(json::parse("{\"period\":1}")));
}

TEST(FlightRecord, AbsentMpcSerializesAsNull) {
  FlightRecord rec;
  rec.policy = "fixed_step";
  rec.held = true;
  rec.hold_reason = "deadband";
  const std::string line = rec.to_jsonl();
  EXPECT_NE(line.find("\"mpc\":null"), std::string::npos);
  const FlightRecord back = FlightRecord::from_json(json::parse(line));
  EXPECT_FALSE(back.mpc.present);
  EXPECT_TRUE(back.held);
  EXPECT_EQ(back.hold_reason, "deadband");
  EXPECT_EQ(line, back.to_jsonl());
}

TEST(FlightRecorder, DisabledRecorderIgnoresRecords) {
  FlightRecorder recorder;
  FlightRecord rec;
  recorder.record(rec);
  EXPECT_TRUE(recorder.records().empty());
  EXPECT_EQ(recorder.pending(), nullptr);
}

TEST(FlightRecorder, RingDropsOldestAndCounts) {
  Context context;
  Context::Binding bind(context);
  MetricsRegistry& registry = context.metrics();
  FlightRecorder recorder;
  recorder.set_enabled(true);
  recorder.set_capacity(4);
  for (std::size_t k = 0; k < 6; ++k) {
    FlightRecord rec;
    rec.period = k;
    rec.policy = "capgpu";
    recorder.record(std::move(rec));
  }
  EXPECT_EQ(recorder.records().size(), 4u);
  EXPECT_EQ(recorder.dropped(), 2u);
  EXPECT_EQ(recorder.records().front().period, 2u);
  EXPECT_EQ(registry
                .counter(metric::kCtlFlightDroppedRecords, "",
                         {{"policy", "capgpu"}})
                .value(),
            2.0);
}

TEST(FlightRecorder, FinalizeFillsPowerResidualFromNextRecord) {
  Context context;
  Context::Binding bind(context);
  MetricsRegistry& registry = context.metrics();
  FlightRecorder recorder;
  recorder.set_enabled(true);

  FlightRecord first;
  first.pid = 1;
  first.period = 0;
  first.policy = "capgpu";
  first.measured_power_w = 880.0;
  first.mpc.present = true;
  first.mpc.predicted_power_w = 900.0;
  recorder.record(std::move(first));
  ASSERT_NE(recorder.pending(), nullptr);
  recorder.pending()->realized_latency_s = {0.0, 0.5};

  FlightRecord second;
  second.pid = 1;
  second.period = 1;
  second.policy = "capgpu";
  second.measured_power_w = 910.0;
  recorder.record(std::move(second));

  const FlightRecord& done = recorder.records().front();
  EXPECT_TRUE(done.outcome_filled);
  EXPECT_DOUBLE_EQ(done.realized_power_w, 910.0);
  EXPECT_DOUBLE_EQ(done.power_residual_w, 10.0);
  EXPECT_DOUBLE_EQ(
      registry.gauge(metric::kCtlPowerPredictionErrorEwma, "",
                     {{"policy", "capgpu"}})
          .value(),
      10.0);
  // The trailing record is completed by finish() but keeps zero residuals:
  // no next period exists to realize its prediction.
  recorder.finish();
  EXPECT_TRUE(recorder.records().back().outcome_filled);
  EXPECT_DOUBLE_EQ(recorder.records().back().power_residual_w, 0.0);
}

TEST(FlightRecorder, LatencyResidualUsesPreviousPeriodsPrediction) {
  Context context;
  Context::Binding bind(context);
  FlightRecorder recorder;
  recorder.set_enabled(true);

  // Period 0 predicts 0.40 s on device 1; period 1 realizes 0.46 s.
  FlightRecord p0;
  p0.pid = 1;
  p0.policy = "capgpu";
  p0.mpc.present = true;
  p0.mpc.predicted_latency_s = {0.0, 0.40};
  recorder.record(std::move(p0));
  recorder.pending()->realized_latency_s = {0.0, 0.42};

  FlightRecord p1;
  p1.pid = 1;
  p1.period = 1;
  p1.policy = "capgpu";
  p1.mpc.present = true;
  p1.mpc.predicted_latency_s = {0.0, 0.44};
  recorder.record(std::move(p1));
  recorder.pending()->realized_latency_s = {0.0, 0.46};

  FlightRecord p2;
  p2.pid = 1;
  p2.period = 2;
  p2.policy = "capgpu";
  recorder.record(std::move(p2));
  recorder.finish();

  // Period 0 had no prior prediction: residuals stay zero. Period 1's
  // realized 0.46 s is judged against period 0's 0.40 s prediction — the
  // caps shaping period 1 were chosen then.
  const auto& records = recorder.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_DOUBLE_EQ(records[0].latency_residual_s[1], 0.0);
  EXPECT_NEAR(records[1].latency_residual_s[1], 0.46 - 0.40, 1e-15);
}

TEST(FlightRecorder, MergeShiftsPidsAndPreservesOrder) {
  Context context;
  Context::Binding bind(context);
  FlightRecorder parent;
  parent.set_enabled(true);
  FlightRecorder child;
  child.set_enabled(true);
  for (std::size_t k = 0; k < 3; ++k) {
    FlightRecord rec;
    rec.pid = 1;
    rec.period = k;
    rec.policy = "capgpu";
    child.record(std::move(rec));
  }
  parent.merge_from(std::move(child), 5);
  ASSERT_EQ(parent.records().size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(parent.records()[k].pid, 6);
    EXPECT_EQ(parent.records()[k].period, k);
    EXPECT_TRUE(parent.records()[k].outcome_filled);  // finish() ran
  }
}

TEST(FlightRecorder, BindingFractionsTrackActedPeriods) {
  Context context;
  Context::Binding bind(context);
  MetricsRegistry& registry = context.metrics();
  FlightRecorder recorder;
  recorder.set_enabled(true);
  // Four acted periods, floors binding in the middle two.
  for (std::size_t k = 0; k < 4; ++k) {
    FlightRecord rec;
    rec.pid = 1;
    rec.period = k;
    rec.policy = "capgpu";
    rec.measured_power_w = 900.0;
    rec.mpc.present = true;
    rec.mpc.predicted_power_w = 900.0;
    rec.mpc.floor_binding = {0, k == 1 || k == 2 ? 1 : 0, 0};
    recorder.record(std::move(rec));
  }
  recorder.finish();
  // Three periods were finalized against a successor (the trailing one
  // skips health derivation); floors bound in two of them.
  EXPECT_DOUBLE_EQ(
      registry
          .gauge(metric::kCtlBindingFraction, "",
                 {{"policy", "capgpu"}, {"constraint", "floor"}})
          .value(),
      2.0 / 3.0);
  EXPECT_DOUBLE_EQ(
      registry
          .counter(metric::kCtlBindingPeriods, "",
                   {{"policy", "capgpu"}, {"constraint", "floor"}})
          .value(),
      2.0);
}

TEST(FlightRecorder, NonconvergedSolvesAreCountedLazily) {
  auto run = [](Context& context, const std::vector<bool>& converged) {
    Context::Binding bind(context);
    FlightRecorder recorder;
    recorder.set_enabled(true);
    for (std::size_t k = 0; k < converged.size(); ++k) {
      FlightRecord rec;
      rec.pid = 1;
      rec.period = k;
      rec.policy = "capgpu";
      rec.mpc.present = true;
      rec.mpc.qp_converged = converged[k];
      recorder.record(std::move(rec));
    }
    recorder.finish();
  };
  // Always converged: the family is never registered, so the export keeps
  // the bytes of a run that predates the counter.
  Context clean;
  run(clean, {true, true, true});
  const auto names = clean.metrics().metric_names();
  EXPECT_EQ(std::count(names.begin(), names.end(),
                       std::string(metric::kCtlQpNonconverged)),
            0);
  // Two unconverged periods finalized against a successor; the trailing
  // record skips health derivation, so its failure is not counted.
  Context railed;
  run(railed, {false, true, false, false});
  EXPECT_DOUBLE_EQ(railed.metrics()
                       .counter(metric::kCtlQpNonconverged, "",
                                {{"policy", "capgpu"}})
                       .value(),
                   2.0);
}

TEST(FlightRecorder, FailsafeTransitionsAreCounted) {
  Context context;
  Context::Binding bind(context);
  MetricsRegistry& registry = context.metrics();
  FlightRecorder recorder;
  recorder.set_enabled(true);
  const int states[] = {0, 0, 1, 2, 0};
  for (std::size_t k = 0; k < 5; ++k) {
    FlightRecord rec;
    rec.pid = 1;
    rec.period = k;
    rec.policy = "capgpu";
    rec.failsafe_state = states[k];
    if (states[k] != 0) rec.failsafe_cause = "meter_dark";
    recorder.record(std::move(rec));
  }
  recorder.finish();
  EXPECT_DOUBLE_EQ(registry
                       .counter(metric::kCtlFallbackTransitions, "",
                                {{"policy", "capgpu"},
                                 {"kind", "nominal_to_degraded"},
                                 {"cause", "meter_dark"}})
                       .value(),
                   1.0);
  EXPECT_DOUBLE_EQ(registry
                       .counter(metric::kCtlFallbackTransitions, "",
                                {{"policy", "capgpu"},
                                 {"kind", "degraded_to_recovering"},
                                 {"cause", "meter_dark"}})
                       .value(),
                   1.0);
}

TEST(FlightRecorder, WriteJsonlEmitsOneLinePerRecord) {
  Context context;
  Context::Binding bind(context);
  FlightRecorder recorder;
  recorder.set_enabled(true);
  for (std::size_t k = 0; k < 3; ++k) {
    FlightRecord rec;
    rec.period = k;
    rec.policy = "capgpu";
    recorder.record(std::move(rec));
  }
  recorder.finish();
  std::ostringstream out;
  recorder.write_jsonl(out);
  const std::string text = out.str();
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);
  // Every line parses back into a record of the right period.
  std::size_t pos = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    const FlightRecord back =
        FlightRecord::from_json(json::parse_prefix(text, pos));
    EXPECT_EQ(back.period, k);
    ++pos;  // newline
  }
}

}  // namespace
}  // namespace capgpu::telemetry
