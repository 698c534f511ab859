// Closed-loop replay determinism: record a CapGPU run with the flight
// recorder on, then rebuild the controller from each record alone and
// re-solve the period. The caps must come out bit-identical — the property
// tools/capgpu_ctl_replay gates on — and two identical runs must serialize
// to identical JSONL (modulo the process-global trace pid).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "control/mpc.hpp"
#include "core/capgpu_controller.hpp"
#include "core/rig.hpp"
#include "telemetry/context.hpp"
#include "telemetry/flight.hpp"

namespace capgpu::core {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Runs one 30-period CapGPU experiment under a private telemetry context
/// and returns its serialized flight log. The analytic power model skips
/// the sysid sweep, keeping the test fast and deterministic.
std::string record_run(telemetry::Context& context) {
  telemetry::Context::Binding bind(context);
  telemetry::FlightRecorder& recorder = context.flight();
  recorder.set_enabled(true);

  ServerRig rig;
  CapGpuController ctl(CapGpuConfig{}, rig.device_ranges(),
                       rig.analytic_power_model(), 900_W,
                       rig.latency_models());
  RunOptions opt;
  opt.periods = 30;
  opt.set_point = 900_W;
  opt.initial_slos = {{1, 1.0}};  // exercise the SLO frequency floors
  (void)rig.run(ctl, opt);

  recorder.finish();
  std::ostringstream out;
  recorder.write_jsonl(out);
  return out.str();
}

/// Strips the leading "pid":N member of every JSONL line: the trace pid is
/// a process-global counter, so back-to-back in-process runs differ there
/// and nowhere else.
std::string strip_pids(const std::string& jsonl) {
  std::string out;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::size_t comma = jsonl.find(',', start);
    out.append(jsonl, comma, end - comma + 1);
    start = end + 1;
  }
  return out;
}

TEST(FlightReplay, RecordedCapsReplayBitIdentically) {
  telemetry::Context context;
  const std::string jsonl = record_run(context);
  const telemetry::FlightRecorder& recorder = context.flight();
  ASSERT_FALSE(recorder.records().empty());

  std::size_t replayed = 0;
  for (const telemetry::FlightRecord& rec : recorder.records()) {
    if (!rec.mpc.present) continue;
    const telemetry::FlightMpcState& m = rec.mpc;
    const std::size_t n = m.gains_w_per_mhz.size();
    control::MpcConfig cfg;
    cfg.prediction_horizon = m.prediction_horizon;
    cfg.control_horizon = m.control_horizon;
    cfg.tracking_weight = m.tracking_weight;
    cfg.reference_decay = m.reference_decay;
    cfg.violation_decay = m.violation_decay;
    cfg.regularization = m.regularization;
    std::vector<control::DeviceRange> devices(n);
    for (std::size_t j = 0; j < n; ++j) {
      devices[j].kind =
          m.device_kinds[j] == 0 ? DeviceKind::kCpu : DeviceKind::kGpu;
      devices[j].f_min_mhz = m.f_lo_mhz[j];
      devices[j].f_max_mhz = m.f_hi_mhz[j];
    }
    control::MpcController mpc(
        cfg, std::move(devices),
        control::LinearPowerModel(m.gains_w_per_mhz, m.offset_w),
        Watts{rec.set_point_w});
    for (std::size_t j = 0; j < n; ++j) {
      if (m.f_max_mhz[j] < m.f_hi_mhz[j]) {
        mpc.set_max_frequency_override(j, m.f_max_mhz[j]);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (m.f_min_mhz[j] > m.f_lo_mhz[j]) {
        mpc.set_min_frequency_override(j, m.f_min_mhz[j]);
      }
    }
    if (!m.weights.empty()) mpc.set_control_weights(m.weights);
    const control::MpcDecision& d =
        mpc.step(Watts{m.fed_power_w}, rec.freqs_mhz);
    ASSERT_EQ(d.target_freqs_mhz.size(), rec.targets_mhz.size());
    for (std::size_t j = 0; j < rec.targets_mhz.size(); ++j) {
      EXPECT_TRUE(bits_equal(d.target_freqs_mhz[j], rec.targets_mhz[j]))
          << "period " << rec.period << " device " << j << ": recorded "
          << rec.targets_mhz[j] << " replayed " << d.target_freqs_mhz[j];
    }
    ++replayed;
  }
  EXPECT_GT(replayed, 20u);
  (void)jsonl;
}

TEST(FlightReplay, RoundTripThroughJsonPreservesReplayInputs) {
  telemetry::Context context;
  const std::string jsonl = record_run(context);
  const telemetry::FlightRecorder& recorder = context.flight();

  // Parse the serialized log back and check the replay-critical inputs are
  // bit-identical to the in-memory records.
  std::size_t pos = 0;
  for (const telemetry::FlightRecord& rec : recorder.records()) {
    const telemetry::FlightRecord back =
        telemetry::FlightRecord::from_json(json::parse_prefix(jsonl, pos));
    ++pos;  // newline
    ASSERT_EQ(back.period, rec.period);
    ASSERT_EQ(back.mpc.present, rec.mpc.present);
    for (std::size_t j = 0; j < rec.freqs_mhz.size(); ++j) {
      EXPECT_TRUE(bits_equal(back.freqs_mhz[j], rec.freqs_mhz[j]));
      EXPECT_TRUE(bits_equal(back.targets_mhz[j], rec.targets_mhz[j]));
    }
    if (rec.mpc.present) {
      EXPECT_TRUE(bits_equal(back.mpc.fed_power_w, rec.mpc.fed_power_w));
      for (std::size_t j = 0; j < rec.mpc.gains_w_per_mhz.size(); ++j) {
        EXPECT_TRUE(bits_equal(back.mpc.gains_w_per_mhz[j],
                               rec.mpc.gains_w_per_mhz[j]));
        EXPECT_TRUE(bits_equal(back.mpc.f_min_mhz[j], rec.mpc.f_min_mhz[j]));
      }
    }
  }
}

TEST(FlightReplay, TwoIdenticalRunsSerializeIdentically) {
  telemetry::Context first;
  telemetry::Context second;
  const std::string a = record_run(first);
  const std::string b = record_run(second);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(strip_pids(a), strip_pids(b));
}

}  // namespace
}  // namespace capgpu::core
