// End-to-end integration tests: whole-stack runs that mirror the paper's
// experiments in miniature (fewer periods than the benches, same shapes).
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"

#include "baselines/cpu_only.hpp"
#include "baselines/cpu_plus_gpu.hpp"
#include "baselines/fixed_step.hpp"
#include "baselines/gpu_only.hpp"
#include "baselines/safe_fixed_step.hpp"
#include "core/capgpu_controller.hpp"
#include "core/motivation.hpp"
#include "core/rig.hpp"

namespace capgpu::core {
namespace {

/// Shared identified model (one sysid pass for the whole suite).
const control::IdentifiedModel& identified() {
  static const control::IdentifiedModel model = [] {
    ServerRig rig;
    return rig.identify();
  }();
  return model;
}

CapGpuController make_capgpu(ServerRig& rig, Watts set_point) {
  return CapGpuController(CapGpuConfig{}, rig.device_ranges(),
                          identified().model, set_point,
                          rig.latency_models());
}

TEST(Integration, CapGpuConvergesToSetPoint) {
  ServerRig rig;
  CapGpuController ctl = make_capgpu(rig, 900_W);
  RunOptions opt;
  opt.periods = 60;
  opt.set_point = 900_W;
  const RunResult res = rig.run(ctl, opt);
  const auto steady = res.steady_power(20);
  EXPECT_NEAR(steady.mean(), 900.0, 8.0);
  EXPECT_LT(steady.stddev(), 12.0);
}

TEST(Integration, CapGpuRespectsRunOnceRule) {
  ServerRig rig;
  CapGpuController ctl = make_capgpu(rig, 900_W);
  RunOptions opt;
  opt.periods = 5;
  (void)rig.run(ctl, opt);
  EXPECT_THROW((void)rig.run(ctl, opt), capgpu::InvalidArgument);
}

TEST(Integration, GpuOnlyConvergesButCpuStaysMaxed) {
  ServerRig rig;
  baselines::GpuOnlyController ctl(rig.device_ranges(), identified().model,
                                   0.3, 900_W);
  RunOptions opt;
  opt.periods = 60;
  const RunResult res = rig.run(ctl, opt);
  EXPECT_NEAR(res.steady_power(20).mean(), 900.0, 8.0);
  EXPECT_DOUBLE_EQ(res.device_freqs[0].values().back(), 2400.0);
}

TEST(Integration, CpuOnlyCannotReachTheCap) {
  // Paper Fig 3: the CPU knob's range is far too small on a GPU server.
  ServerRig rig;
  baselines::CpuOnlyController ctl(rig.device_ranges(), identified().model,
                                   0.3, 900_W);
  RunOptions opt;
  opt.periods = 40;
  const RunResult res = rig.run(ctl, opt);
  EXPECT_GT(res.steady_power(20).mean(), 1000.0);
}

TEST(Integration, CpuPlusGpuMissesTheCap) {
  // Paper Fig 3/6: fixed-ratio split does not converge to the total cap.
  for (const double share : {0.5, 0.6}) {
    ServerRig rig;
    baselines::CpuPlusGpuController ctl(rig.device_ranges(),
                                        identified().model, 0.3, 900_W,
                                        share);
    RunOptions opt;
    opt.periods = 60;
    const RunResult res = rig.run(ctl, opt);
    EXPECT_GT(std::abs(res.steady_power(20).mean() - 900.0), 25.0)
        << "gpu share " << share;
  }
}

TEST(Integration, FixedStepOscillatesMoreThanCapGpu) {
  ServerRig rig_fs;
  baselines::FixedStepController fs(baselines::FixedStepConfig{},
                                    rig_fs.device_ranges(), 900_W);
  RunOptions opt;
  opt.periods = 100;
  const RunResult res_fs = rig_fs.run(fs, opt);

  ServerRig rig_cap;
  CapGpuController cap = make_capgpu(rig_cap, 900_W);
  const RunResult res_cap = rig_cap.run(cap, opt);

  EXPECT_GT(res_fs.steady_power(50).stddev(),
            1.5 * res_cap.steady_power(50).stddev());
}

TEST(Integration, SafeFixedStepStaysMostlyBelowCap) {
  ServerRig rig;
  const double margin = baselines::SafeFixedStepController::estimate_margin(
      identified().model, rig.device_ranges(), baselines::FixedStepConfig{});
  baselines::SafeFixedStepController ctl(baselines::FixedStepConfig{},
                                         rig.device_ranges(), 900_W, margin);
  RunOptions opt;
  opt.periods = 100;
  const RunResult res = rig.run(ctl, opt);
  // Paper Fig 5: at most an occasional violation after settling.
  EXPECT_LE(res.power.count_above(905.0, 50), 3u);
  EXPECT_LT(res.steady_power(50).mean(), 900.0);
}

TEST(Integration, CapGpuBeatsGpuOnlyOnGpuThroughput) {
  // Paper Fig 7(a): CapGPU shifts watts from the CPU job to the GPUs.
  RunOptions opt;
  opt.periods = 80;
  opt.set_point = 900_W;

  ServerRig rig_cap;
  CapGpuController cap = make_capgpu(rig_cap, 900_W);
  const RunResult res_cap = rig_cap.run(cap, opt);

  ServerRig rig_gpu;
  baselines::GpuOnlyController gpu(rig_gpu.device_ranges(),
                                   identified().model, 0.3, 900_W);
  const RunResult res_gpu = rig_gpu.run(gpu, opt);

  double cap_thr = 0.0;
  double gpu_thr = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    cap_thr += res_cap.gpu_throughput[i].stats_from(40).mean();
    gpu_thr += res_gpu.gpu_throughput[i].stats_from(40).mean();
  }
  EXPECT_GT(cap_thr, gpu_thr * 1.03);

  // Fig 7(b): the flip side — GPU-only leaves the CPU job at full speed.
  EXPECT_GT(res_gpu.cpu_throughput.stats_from(40).mean(),
            res_cap.cpu_throughput.stats_from(40).mean());
}

TEST(Integration, SetPointScheduleTracksChanges) {
  // Paper Fig 10: 800 W -> 900 W at period 40 -> 800 W at period 80.
  ServerRig rig;
  CapGpuController ctl = make_capgpu(rig, 800_W);
  RunOptions opt;
  opt.periods = 120;
  opt.set_point = 800_W;
  opt.set_point_changes[40] = 900_W;
  opt.set_point_changes[80] = 800_W;
  const RunResult res = rig.run(ctl, opt);
  // Steady segments before each change.
  EXPECT_NEAR(res.power.stats_from(110).mean(), 800.0, 10.0);
  telemetry::RunningStats mid;
  for (std::size_t k = 60; k < 80; ++k) mid.add(res.power.value_at(k));
  EXPECT_NEAR(mid.mean(), 900.0, 10.0);
  EXPECT_DOUBLE_EQ(res.set_point.value_at(39), 800.0);
  EXPECT_DOUBLE_EQ(res.set_point.value_at(41), 900.0);
}

TEST(Integration, CapGpuMeetsSlosWhereGpuOnlyMisses) {
  // Paper Fig 8/9 in miniature: per-device SLOs at a 1000 W budget.
  RunOptions opt;
  opt.periods = 60;
  opt.set_point = 1000_W;
  // Heterogeneous SLOs chosen so a per-GPU frequency assignment fits the
  // 1000 W budget (CapGPU throttles the CPU job to fund it) but a single
  // shared GPU frequency cannot satisfy the tight ResNet SLO.
  opt.initial_slos = {{1, 0.42}, {2, 0.85}, {3, 0.58}};

  ServerRig rig_cap;
  CapGpuController cap = make_capgpu(rig_cap, 1000_W);
  const RunResult res_cap = rig_cap.run(cap, opt);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LT(res_cap.slo_misses[i].ratio(), 0.15) << "gpu " << i;
  }

  ServerRig rig_gpu;
  baselines::GpuOnlyController gpu(rig_gpu.device_ranges(),
                                   identified().model, 0.3, 1000_W);
  const RunResult res_gpu = rig_gpu.run(gpu, opt);
  double worst = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    worst = std::max(worst, res_gpu.slo_misses[i].ratio());
  }
  EXPECT_GT(worst, 0.3);  // shared frequency cannot honour per-GPU SLOs
}

TEST(Integration, SloScheduleChangeIsHonoured) {
  ServerRig rig;
  CapGpuController ctl = make_capgpu(rig, 1000_W);
  RunOptions opt;
  opt.periods = 40;
  opt.set_point = 1000_W;
  opt.initial_slos = {{1, 0.8}};
  opt.slo_changes.emplace_back(14, 1, 0.45);  // tighten at period 14
  const RunResult res = rig.run(ctl, opt);
  EXPECT_DOUBLE_EQ(res.gpu_slo[0].value_at(10), 0.8);
  EXPECT_DOUBLE_EQ(res.gpu_slo[0].value_at(20), 0.45);
  // After tightening, the ResNet GPU's latency must come down under 0.45.
  telemetry::RunningStats tail;
  for (std::size_t k = 25; k < 40; ++k) {
    tail.add(res.gpu_latency[0].value_at(k));
  }
  EXPECT_LT(tail.mean(), 0.45 * 1.05);
}

TEST(Integration, MotivationTable1Shape) {
  // Paper Table 1: throughput ordering CapGPU > GPU-only > CPU-only, with
  // CapGPU having the lowest queue delay.
  const MotivationRow cpu_only =
      run_motivation_config("CPU-only", 1.1_GHz, 810_MHz);
  const MotivationRow gpu_only =
      run_motivation_config("GPU-only", 2.1_GHz, 495_MHz);
  const MotivationRow capgpu =
      run_motivation_config("CapGPU", 1.6_GHz, 660_MHz);

  EXPECT_GT(capgpu.throughput_img_s, gpu_only.throughput_img_s);
  EXPECT_GT(gpu_only.throughput_img_s, cpu_only.throughput_img_s);
  EXPECT_LT(capgpu.queue_s_per_img, gpu_only.queue_s_per_img);
  EXPECT_LT(capgpu.queue_s_per_img, cpu_only.queue_s_per_img + 0.5);
  // GPU batch latency follows the clock: 495 MHz slowest.
  EXPECT_GT(gpu_only.gpu_s_per_batch, capgpu.gpu_s_per_batch);
  EXPECT_GT(capgpu.gpu_s_per_batch, cpu_only.gpu_s_per_batch);
  // Power band: all three land in the paper's ~380-450 W range, with the
  // CPU-only (throttled CPU) configuration the cheapest.
  EXPECT_LT(cpu_only.power_w, gpu_only.power_w);
  EXPECT_LT(cpu_only.power_w, capgpu.power_w);
  for (const auto* row : {&cpu_only, &gpu_only, &capgpu}) {
    EXPECT_GT(row->power_w, 350.0);
    EXPECT_LT(row->power_w, 470.0);
  }
}

TEST(Integration, OpenLoopRigServesOfferedLoadUnderTheCap) {
  // Light offered load: the pipeline serves everything offered and power
  // sits below the cap (capping does not bind).
  RigConfig cfg;
  cfg.offered_load = {{0.0, 0.35}};
  ServerRig rig(cfg);
  CapGpuController ctl = make_capgpu(rig, 950_W);
  RunOptions opt;
  opt.periods = 60;
  opt.set_point = 950_W;
  const RunResult res = rig.run(ctl, opt);
  EXPECT_LT(res.steady_power(20).mean(), 935.0);
  for (std::size_t i = 0; i < 3; ++i) {
    const double offered = 0.35 * rig.stream(i).max_images_per_s();
    EXPECT_NEAR(res.gpu_throughput[i].stats_from(20).mean(), offered,
                0.15 * offered)
        << "stream " << i;
  }
}

TEST(Integration, GpuDemandSignalSeparatesLoadRegimes) {
  // Saturated at a tight budget: busy GPUs with clock headroom -> high
  // demand. Lightly loaded: idle GPUs -> low demand.
  ServerRig saturated;
  CapGpuController ctl_a = make_capgpu(saturated, 800_W);
  RunOptions opt;
  opt.periods = 40;
  opt.set_point = 800_W;
  (void)saturated.run(ctl_a, opt);

  RigConfig light_cfg;
  light_cfg.offered_load = {{0.0, 0.3}};
  ServerRig light(light_cfg);
  CapGpuController ctl_b = make_capgpu(light, 800_W);
  (void)light.run(ctl_b, opt);

  EXPECT_GT(saturated.gpu_demand(), 2.0 * light.gpu_demand());
}

TEST(Integration, FleetStyleRigMonitorsHoldOnlyTheThroughputWindow) {
  // The fleet's rig: one ResNet-50 at 0.7 open-loop load, 4-s periods and
  // the default 8-s throughput window, for 150 periods (600 s).
  RigConfig cfg;
  cfg.models = {workload::resnet50_v100()};
  cfg.offered_load = {{0.0, 0.7}};
  ServerRig rig(cfg);
  CapGpuController ctl(CapGpuConfig{}, rig.device_ranges(),
                       rig.analytic_power_model(), 560_W,
                       rig.latency_models());
  RunOptions opt;
  opt.periods = 150;
  opt.set_point = 560_W;
  const RunResult res = rig.run(ctl, opt);
  // Read at the last control tick, where end_period() last trimmed: every
  // latency monitor holds nothing older than the 8-s window, and the
  // per-image ones, which a rig stream never records, hold nothing.
  const double now = res.gpu_latency[0].times().back();
  const double forever = std::numeric_limits<double>::infinity();
  auto& s = rig.stream(0);
  const std::vector<std::pair<const char*, const workload::LatencyMonitor*>>
      monitors{{"batch_latency", &s.batch_latency()},
               {"subset_latency", &rig.cpu_task().subset_latency()}};
  for (const auto& [name, monitor] : monitors) {
    const std::size_t in_window = monitor->count(now, 8.0);
    EXPECT_GT(in_window, 0u) << name;
    EXPECT_EQ(monitor->count(now, forever), in_window) << name;
  }
  const std::vector<std::pair<const char*, const workload::LatencyMonitor*>>
      per_image{
          {"queue_delay", &s.queue_delay()},
          {"preprocess_latency", &s.preprocess_latency()},
          {"preprocess_compute_latency", &s.preprocess_compute_latency()}};
  for (const auto& [name, monitor] : per_image) {
    EXPECT_EQ(monitor->count(now, forever), 0u) << name;
  }
}

TEST(Integration, RigStreamsRecordNoPerImageMonitors) {
  // Closed loop (saturated) and open loop: the rig reads only each
  // stream's batch latency and throughput and the CPU task's monitors, so
  // its streams leave the three per-image monitors empty.
  for (const bool open_loop : {false, true}) {
    RigConfig cfg;
    if (open_loop) cfg.offered_load = {{0.0, 0.7}};
    ServerRig rig(cfg);
    baselines::GpuOnlyController ctl(rig.device_ranges(),
                                     rig.analytic_power_model(), 0.3, 900_W);
    RunOptions opt;
    opt.periods = 10;
    const RunResult res = rig.run(ctl, opt);
    const double now = res.gpu_latency[0].times().back();
    const double forever = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < rig.gpu_count(); ++i) {
      auto& s = rig.stream(i);
      EXPECT_GT(s.images_completed(), 0u) << open_loop << " stream " << i;
      EXPECT_EQ(s.queue_delay().count(now, forever), 0u) << open_loop;
      EXPECT_EQ(s.preprocess_latency().count(now, forever), 0u) << open_loop;
      EXPECT_EQ(s.preprocess_compute_latency().count(now, forever), 0u)
          << open_loop;
      // The monitors the rig reads still hold their 8-s window.
      const std::size_t batches = s.batch_latency().count(now, 8.0);
      EXPECT_GT(batches, 0u) << open_loop << " stream " << i;
      EXPECT_EQ(s.batch_latency().count(now, forever), batches) << open_loop;
      EXPECT_GT(s.images_throughput().rate(now, 8.0), 0.0) << open_loop;
      EXPECT_EQ(s.images_throughput().samples().size(), batches) << open_loop;
    }
    const auto& task = rig.cpu_task();
    const std::size_t subsets = task.subset_latency().count(now, 8.0);
    EXPECT_GT(subsets, 0u) << open_loop;
    EXPECT_EQ(task.subset_latency().count(now, forever), subsets) << open_loop;
    EXPECT_GT(task.throughput().rate(now, 8.0), 0.0) << open_loop;
  }
}

TEST(Integration, LatencyPercentilesPopulatedAndOrdered) {
  ServerRig rig;
  CapGpuController ctl = make_capgpu(rig, 900_W);
  RunOptions opt;
  opt.periods = 60;
  opt.set_point = 900_W;
  const RunResult res = rig.run(ctl, opt);
  ASSERT_EQ(res.gpu_latency_dist.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& dist = res.gpu_latency_dist[i];
    ASSERT_GT(dist.count(), 50u) << "gpu " << i;
    const double p50 = dist.quantile(0.5);
    const double p95 = dist.quantile(0.95);
    const double p99 = dist.quantile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    // Tails stay close to the median: jitter is only +/-3%.
    EXPECT_LT(p99, p50 * 1.2);
    // The distribution median agrees with the per-period mean trace.
    EXPECT_NEAR(p50, res.gpu_latency[i].stats_from(20).mean(),
                0.1 * p50);
  }
}

TEST(Integration, RigDeterministicAcrossRuns) {
  // Bit-for-bit: the full power and frequency traces, not just a summary.
  auto run_once = [] {
    ServerRig rig;
    CapGpuController ctl = make_capgpu(rig, 900_W);
    RunOptions opt;
    opt.periods = 30;
    return rig.run(ctl, opt);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  ASSERT_EQ(a.power.size(), b.power.size());
  for (std::size_t k = 0; k < a.power.size(); ++k) {
    ASSERT_EQ(a.power.value_at(k), b.power.value_at(k)) << "period " << k;
    for (std::size_t j = 0; j < a.device_freqs.size(); ++j) {
      ASSERT_EQ(a.device_freqs[j].value_at(k), b.device_freqs[j].value_at(k));
    }
  }
}

TEST(Integration, RigSeedChangesNoiseNotBehaviour) {
  RigConfig a;
  a.seed = 1;
  RigConfig b;
  b.seed = 999;
  ServerRig rig_a(a);
  ServerRig rig_b(b);
  CapGpuController ctl_a = make_capgpu(rig_a, 900_W);
  CapGpuController ctl_b = make_capgpu(rig_b, 900_W);
  RunOptions opt;
  opt.periods = 60;
  const double mean_a = rig_a.run(ctl_a, opt).steady_power(20).mean();
  const double mean_b = rig_b.run(ctl_b, opt).steady_power(20).mean();
  EXPECT_NE(mean_a, mean_b);            // different noise
  EXPECT_NEAR(mean_a, mean_b, 10.0);    // same behaviour
}

}  // namespace
}  // namespace capgpu::core
