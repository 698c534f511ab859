#include "workload/monitors.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace capgpu::workload {
namespace {

TEST(ThroughputMonitor, RateOverWindow) {
  ThroughputMonitor m(100.0);
  m.record(1.0, 10.0);
  m.record(2.0, 10.0);
  m.record(3.0, 10.0);
  EXPECT_DOUBLE_EQ(m.rate(4.0, 4.0), 30.0 / 4.0);
}

TEST(ThroughputMonitor, WindowExcludesOldEvents) {
  ThroughputMonitor m(100.0);
  m.record(1.0, 50.0);
  m.record(10.0, 10.0);
  EXPECT_DOUBLE_EQ(m.rate(10.0, 4.0), 10.0 / 4.0);
}

TEST(ThroughputMonitor, NormalizedClampsToOne) {
  ThroughputMonitor m(10.0);
  m.record(1.0, 200.0);
  EXPECT_DOUBLE_EQ(m.normalized_rate(2.0, 2.0), 1.0);
}

TEST(ThroughputMonitor, NormalizedFraction) {
  ThroughputMonitor m(20.0);
  m.record(1.0, 40.0);
  // 40 over a 4 s window = 10/s of a 20/s max.
  EXPECT_DOUBLE_EQ(m.normalized_rate(4.0, 4.0), 0.5);
}

TEST(ThroughputMonitor, TotalAccumulates) {
  ThroughputMonitor m(10.0);
  m.record(1.0, 2.0);
  m.record(2.0, 3.0);
  EXPECT_DOUBLE_EQ(m.total(), 5.0);
}

TEST(ThroughputMonitor, TrimDropsOldEvents) {
  ThroughputMonitor m(10.0);
  m.record(1.0, 5.0);
  m.record(100.0, 5.0);
  m.trim(100.0, 50.0);
  // Only the recent event is left inside the horizon. A window reaching
  // back to the dropped one is refused rather than silently undercounted.
  EXPECT_DOUBLE_EQ(m.rate(100.0, 50.0), 5.0 / 50.0);
  EXPECT_THROW((void)m.rate(100.0, 1000.0), capgpu::InvalidArgument);
  EXPECT_DOUBLE_EQ(m.total(), 10.0);
}

TEST(ThroughputMonitor, InvalidArgsThrow) {
  EXPECT_THROW(ThroughputMonitor(0.0), capgpu::InvalidArgument);
  ThroughputMonitor m(10.0);
  EXPECT_THROW((void)m.rate(1.0, 0.0), capgpu::InvalidArgument);
}

TEST(LatencyMonitor, MeanMaxCountOverWindow) {
  LatencyMonitor m;
  m.record(1.0, 0.2);
  m.record(2.0, 0.4);
  EXPECT_DOUBLE_EQ(m.mean(2.5, 2.5), 0.3);
  m.record(10.0, 1.0);
  EXPECT_DOUBLE_EQ(m.mean(10.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(m.max(10.0, 100.0), 1.0);
  EXPECT_EQ(m.count(10.0, 100.0), 3u);
}

TEST(LatencyMonitor, EmptyWindowYieldsZero) {
  LatencyMonitor m;
  EXPECT_DOUBLE_EQ(m.mean(10.0, 4.0), 0.0);
  EXPECT_EQ(m.misses(10.0, 4.0, 1.0), 0u);
}

TEST(LatencyMonitor, MissRateAgainstThreshold) {
  LatencyMonitor m;
  m.record(1.0, 0.5);
  m.record(2.0, 1.5);
  m.record(3.0, 2.5);
  m.record(4.0, 0.9);
  m.record(4.0, 1.0);  // at the threshold: not a miss
  EXPECT_EQ(m.misses(4.0, 4.0, 1.0), 2u);
  EXPECT_EQ(m.misses(4.0, 4.0, 3.0), 0u);
  EXPECT_EQ(m.misses(4.0, 4.0, 0.1), 5u);
  // The window is (now - window, now]: the 1.5 s miss at t = 2 is out.
  EXPECT_EQ(m.misses(4.0, 2.0, 1.0), 1u);
}

TEST(LatencyMonitor, WindowPastTheRetainedHorizonThrows) {
  LatencyMonitor lat;
  ThroughputMonitor thr(10.0);
  for (int t = 1; t <= 20; ++t) {
    lat.record(t, 0.5);
    thr.record(t, 1.0);
  }
  lat.trim(20.0, 8.0);
  thr.trim(20.0, 8.0);
  // The horizon itself and anything shorter still answer; later reads may
  // use the full horizon from their own time.
  EXPECT_EQ(lat.count(20.0, 8.0), 8u);
  EXPECT_EQ(lat.count(23.0, 8.0), 5u);
  EXPECT_DOUBLE_EQ(thr.rate(20.0, 8.0), 1.0);
  // Any finite window reaching before the cutoff at t = 12 throws, naming
  // the window and the horizon, even when it would find no extra sample.
  try {
    (void)lat.count(20.0, 8.5);
    FAIL() << "expected InvalidArgument";
  } catch (const capgpu::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("8.5 s"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("8 s"), std::string::npos);
  }
  EXPECT_THROW((void)lat.mean(20.0, 600.0), capgpu::InvalidArgument);
  EXPECT_THROW((void)lat.max(20.0, 9.0), capgpu::InvalidArgument);
  EXPECT_THROW((void)lat.misses(20.0, 9.0, 0.1), capgpu::InvalidArgument);
  EXPECT_THROW(lat.visit(20.0, 9.0, [](double) {}), capgpu::InvalidArgument);
  EXPECT_THROW((void)thr.rate(20.0, 9.0), capgpu::InvalidArgument);
  EXPECT_THROW((void)thr.normalized_rate(19.0, 8.0), capgpu::InvalidArgument);
  // An infinite window reads exactly the retained samples (t = 13..20).
  const double forever = std::numeric_limits<double>::infinity();
  EXPECT_EQ(lat.count(20.0, forever), 8u);
  EXPECT_EQ(lat.misses(20.0, forever, 0.1), 8u);
  EXPECT_DOUBLE_EQ(lat.mean(20.0, forever), 0.5);
}

/// Exact bit pattern, so -0.0 / 0.0 or a last-bit change would fail.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(MonitorRetention, TrimmedMonitorMatchesUntrimmedTwinBitwise) {
  // Sample times, windows and horizons sit on a 1/4-s grid, so samples land
  // exactly on trim and query cutoffs (the (now - window, now] boundary)
  // and the cutoff arithmetic is exact.
  constexpr double kStep = 0.25;
  constexpr double kPeriod = 4.0;
  constexpr int kPeriods = 40;
  const double forever = std::numeric_limits<double>::infinity();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const auto steps = [&rng](std::uint64_t n) {
      return kStep * static_cast<double>(rng.uniform_index(n));
    };
    // A horizon of one to four periods.
    const double horizon =
        kPeriod * static_cast<double>(1 + rng.uniform_index(4));
    const auto horizon_steps = static_cast<std::uint64_t>(horizon / kStep);
    LatencyMonitor lat;
    LatencyMonitor lat_twin;
    ThroughputMonitor thr(100.0);
    ThroughputMonitor thr_twin(100.0);

    // Every query kind over windows up to the horizon (every fourth one is
    // the horizon itself) returns the same bits on both monitors.
    const auto check = [&](double now) {
      for (int q = 0; q < 12; ++q) {
        const double window =
            q % 4 == 0 ? horizon : kStep + steps(horizon_steps);
        const double threshold = steps(9);
        SCOPED_TRACE("seed " + std::to_string(seed) + " now " +
                     std::to_string(now) + " window " + std::to_string(window));
        ASSERT_EQ(bits(lat.mean(now, window)),
                  bits(lat_twin.mean(now, window)));
        ASSERT_EQ(bits(lat.max(now, window)), bits(lat_twin.max(now, window)));
        ASSERT_EQ(lat.count(now, window), lat_twin.count(now, window));
        ASSERT_EQ(lat.misses(now, window, threshold),
                  lat_twin.misses(now, window, threshold));
        std::vector<std::uint64_t> seen;
        std::vector<std::uint64_t> seen_twin;
        lat.visit(now, window, [&](double v) { seen.push_back(bits(v)); });
        lat_twin.visit(now, window,
                       [&](double v) { seen_twin.push_back(bits(v)); });
        ASSERT_EQ(seen, seen_twin);
        ASSERT_EQ(bits(thr.rate(now, window)),
                  bits(thr_twin.rate(now, window)));
        ASSERT_EQ(bits(thr.normalized_rate(now, window)),
                  bits(thr_twin.normalized_rate(now, window)));
      }
    };

    std::size_t recorded = 0;
    for (int k = 1; k <= kPeriods; ++k) {
      const double end = kPeriod * k;
      // Non-decreasing times in [end - period, end] with repeats; the first
      // sample of a period may share the previous trim's tick.
      double t = end - kPeriod;
      for (std::uint64_t j = rng.uniform_index(25); j > 0; --j) {
        t = std::min(end, t + steps(3));
        // On-grid latencies tie with the thresholds; off-grid ones make a
        // reordered sum visible in the mean's last bits.
        const double latency =
            steps(9) + (rng.uniform_index(2) ? rng.uniform(0.0, 1e-3) : 0.0);
        const double images = static_cast<double>(1 + rng.uniform_index(8));
        lat.record(t, latency);
        lat_twin.record(t, latency);
        thr.record(t, images);
        thr_twin.record(t, images);
        ++recorded;
      }
      check(end);
      lat.trim(end, horizon);
      thr.trim(end, horizon);
      check(end);
      check(end + kStep + steps(8));  // a later read, before the next trim
      // The trimmed monitor holds exactly the horizon.
      ASSERT_EQ(lat.count(end, forever), lat_twin.count(end, horizon));
    }
    ASSERT_EQ(lat_twin.count(kPeriod * kPeriods, forever), recorded);
  }
}

}  // namespace
}  // namespace capgpu::workload
