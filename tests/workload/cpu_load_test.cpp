#include "workload/cpu_load.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace capgpu::workload {
namespace {

TEST(HostCpuLoad, UtilizationTracksBusyCores) {
  hw::CpuModel cpu{hw::CpuParams{}};
  HostCpuLoad load(cpu, 40);
  EXPECT_DOUBLE_EQ(load.utilization(), 0.0);
  load.add_always_busy_cores(20);
  EXPECT_DOUBLE_EQ(load.utilization(), 0.5);
  EXPECT_DOUBLE_EQ(cpu.utilization(), 0.5);
}

TEST(HostCpuLoad, WorkerDeltasAdjustUtilization) {
  hw::CpuModel cpu{hw::CpuParams{}};
  HostCpuLoad load(cpu, 10);
  load.worker_compute_delta(+1);
  load.worker_compute_delta(+1);
  EXPECT_DOUBLE_EQ(load.utilization(), 0.2);
  load.worker_compute_delta(-1);
  EXPECT_DOUBLE_EQ(load.utilization(), 0.1);
}

TEST(HostCpuLoad, UtilizationClampsAtOne) {
  hw::CpuModel cpu{hw::CpuParams{}};
  HostCpuLoad load(cpu, 4);
  load.add_always_busy_cores(4);
  load.worker_compute_delta(+3);
  EXPECT_DOUBLE_EQ(load.utilization(), 1.0);
}

TEST(HostCpuLoad, OverCommittingAlwaysBusyThrows) {
  hw::CpuModel cpu{hw::CpuParams{}};
  HostCpuLoad load(cpu, 4);
  EXPECT_THROW(load.add_always_busy_cores(5), capgpu::InvalidArgument);
}

TEST(HostCpuLoad, NegativeWorkerBalanceAsserts) {
  hw::CpuModel cpu{hw::CpuParams{}};
  HostCpuLoad load(cpu, 4);
  EXPECT_THROW(load.worker_compute_delta(-1), capgpu::Error);
}

class CpuTaskHarness {
 public:
  sim::Engine engine;
  hw::CpuModel cpu{hw::CpuParams{}};

  std::unique_ptr<CpuTaskSim> make(std::size_t cores, double cost) {
    CpuTaskParams p;
    p.cores = cores;
    p.subset_s_ghz = cost;
    p.jitter_frac = 0.0;
    return std::make_unique<CpuTaskSim>(engine, cpu, p, Rng(1));
  }
};

TEST(CpuTaskSim, ThroughputMatchesAnalyticRate) {
  CpuTaskHarness h;
  auto task = h.make(36, 0.08);
  h.cpu.set_frequency(2_GHz);
  task->start();
  h.engine.run_until(100.0);
  // 36 cores, 0.08/2.0 = 0.04 s per subset => 900 subsets/s.
  EXPECT_NEAR(task->throughput().rate(100.0, 50.0), 900.0, 20.0);
}

TEST(CpuTaskSim, ThroughputScalesWithFrequency) {
  CpuTaskHarness h;
  auto task = h.make(10, 0.1);
  h.cpu.set_frequency(1_GHz);
  task->start();
  h.engine.run_until(100.0);
  const double slow = task->throughput().rate(100.0, 50.0);
  h.cpu.set_frequency(2.4_GHz);
  h.engine.run_until(200.0);
  const double fast = task->throughput().rate(200.0, 50.0);
  EXPECT_NEAR(fast / slow, 2.4, 0.1);
}

TEST(CpuTaskSim, NormalizedRateIsOneAtMaxFrequency) {
  CpuTaskHarness h;
  auto task = h.make(8, 0.05);
  h.cpu.set_frequency(h.cpu.freqs().max());
  task->start();
  h.engine.run_until(100.0);
  EXPECT_NEAR(task->throughput().normalized_rate(100.0, 50.0), 1.0, 0.05);
}

TEST(CpuTaskSim, SubsetLatencyMatchesFrequency) {
  CpuTaskHarness h;
  auto task = h.make(4, 0.08);
  h.cpu.set_frequency(1.6_GHz);
  task->start();
  h.engine.run_until(50.0);
  EXPECT_NEAR(task->subset_latency().mean(50.0, 25.0), 0.05, 1e-9);
}

TEST(CpuTaskSim, CountsSubsets) {
  CpuTaskHarness h;
  auto task = h.make(4, 0.1);
  h.cpu.set_frequency(1_GHz);
  task->start();
  h.engine.run_until(10.0);
  // 10 s / 0.1 s per round * 4 cores = 400.
  EXPECT_NEAR(static_cast<double>(task->subsets_evaluated()), 400.0, 8.0);
}

TEST(CpuTaskSim, DoubleStartThrows) {
  CpuTaskHarness h;
  auto task = h.make(4, 0.1);
  task->start();
  EXPECT_THROW(task->start(), capgpu::InvalidArgument);
}

/// Exact bit pattern, so a last-bit change would fail.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(CpuTask, RoundsFollowTheirRngStream) {
  // A round draws its subset time when it starts (from the frequency at
  // that moment) and records it when it finishes. The round chain re-arms
  // one event, so each firing must stamp the round that just finished, not
  // the one it draws next.
  sim::Engine engine;
  hw::CpuModel cpu{hw::CpuParams{}};
  cpu.set_frequency(1.6_GHz);
  CpuTaskParams p;
  p.cores = 4;
  p.subset_s_ghz = 0.08;
  p.jitter_frac = 0.05;
  CpuTaskSim task(engine, cpu, p, Rng(7));
  Rng ref(7);
  const double j = p.jitter_frac;
  const auto draw = [&] {
    const double f_ghz = cpu.frequency().value / 1000.0;
    return p.subset_s_ghz / f_ghz * ref.uniform(1.0 - j, 1.0 + j);
  };
  constexpr int kRounds = 200;
  std::vector<double> expected;
  double next = draw();  // the first round is drawn by start()
  task.start();
  sim::SimTime t = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const double subset_time = next;
    expected.push_back(subset_time);
    t += subset_time;
    ASSERT_TRUE(engine.step());
    ASSERT_EQ(bits(engine.now()), bits(t)) << "round " << round;
    next = draw();  // drawn inside the finished round's event
    // The newest sample is the only one within half a round of now.
    std::vector<double> newest;
    task.subset_latency().visit(engine.now(), subset_time / 2,
                                [&](double v) { newest.push_back(v); });
    ASSERT_EQ(newest.size(), 1u) << "round " << round;
    EXPECT_EQ(bits(newest[0]), bits(subset_time)) << "round " << round;
    // A mid-run frequency change reaches the round after the one in flight.
    if (round == kRounds / 2) cpu.set_frequency(2.4_GHz);
  }
  std::vector<double> all;
  task.subset_latency().visit(engine.now(), engine.now(),
                              [&](double v) { all.push_back(v); });
  ASSERT_EQ(all.size(), expected.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(bits(all[i]), bits(expected[i])) << "round " << i;
  }
  EXPECT_EQ(task.subsets_evaluated(), std::uint64_t{kRounds} * p.cores);
}

TEST(CpuTask, FrequencyChangeFromAHeapEventReachesTheNextRound) {
  // Fault-delayed actuations land at arbitrary times, not at round
  // boundaries. The rounds run as a lazy chain, so a heap event that sets
  // the frequency mid-round must still reach exactly the rounds that start
  // after it: each draw is replayed bitwise from an identically seeded Rng
  // with the frequency applied at the round's start.
  sim::Engine engine;
  hw::CpuModel cpu{hw::CpuParams{}};
  cpu.set_frequency(1.6_GHz);
  CpuTaskParams p;
  p.cores = 4;
  p.subset_s_ghz = 0.08;
  p.jitter_frac = 0.05;
  CpuTaskSim task(engine, cpu, p, Rng(11));
  task.start();
  struct Change {
    sim::SimTime at;
    Megahertz f;
  };
  std::vector<Change> applied{{0.0, cpu.frequency()}};
  const std::vector<Change> changes{{0.7310, 2.4_GHz}, {2.0937, 1.2_GHz},
                                    {5.4171, 2.0_GHz}, {9.8803, 1.0_GHz},
                                    {14.2069, 2.2_GHz}};
  for (const Change& c : changes) {
    engine.schedule_at(c.at, [&, c] {
      applied.push_back({engine.now(), cpu.set_frequency(c.f)});
    });
  }
  constexpr double kHorizon = 20.0;
  engine.run_until(kHorizon);
  ASSERT_EQ(applied.size(), changes.size() + 1);

  Rng ref(11);
  const double j = p.jitter_frac;
  const auto freq_at = [&](sim::SimTime t) {
    Megahertz f = applied.front().f;
    for (const Change& c : applied) {
      if (c.at < t) f = c.f;  // no change lands exactly on a round start
    }
    return f;
  };
  std::vector<std::pair<sim::SimTime, double>> expected;
  for (sim::SimTime start = 0.0;;) {
    const double f_ghz = freq_at(start).value / 1000.0;
    const double subset_time =
        p.subset_s_ghz / f_ghz * ref.uniform(1.0 - j, 1.0 + j);
    const sim::SimTime end = start + subset_time;
    if (end > kHorizon) break;
    expected.emplace_back(end, subset_time);
    start = end;
  }
  const SampleRing& got = task.subset_latency().samples();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i].time), bits(expected[i].first)) << "round " << i;
    EXPECT_EQ(bits(got[i].value), bits(expected[i].second)) << "round " << i;
  }
  EXPECT_EQ(task.subsets_evaluated(), expected.size() * p.cores);
}

}  // namespace
}  // namespace capgpu::workload
