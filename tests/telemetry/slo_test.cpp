#include "telemetry/slo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "telemetry/metrics.hpp"

namespace capgpu::telemetry {
namespace {

using Transition = SloBurnMonitor::Transition;

/// objective 0.99 -> 1% error budget; threshold 10 -> a 10% miss rate
/// burns exactly at threshold. Windows shrunk so tests stay tiny.
SloBurnConfig test_config() {
  SloBurnConfig cfg;
  cfg.objective = 0.99;
  cfg.fast_window_s = 60.0;
  cfg.slow_window_s = 600.0;
  cfg.burn_threshold = 10.0;
  cfg.clear_fraction = 0.5;
  return cfg;
}

TEST(SloBurnMonitor, FiresExactlyAtThreshold) {
  SloBurnMonitor m(test_config());
  // 10 misses per 100 checked = burn of exactly 10.0 in both windows.
  EXPECT_EQ(m.record(1.0, 100, 10), Transition::kFired);
  EXPECT_TRUE(m.alerting());
  EXPECT_EQ(m.alerts_fired(), 1u);
  // 0.1 / 0.01 lands a few ulps under 10.0 — the monitor's epsilon is
  // what makes the exact-threshold case fire.
  EXPECT_NEAR(m.fast_burn(), 10.0, 1e-9);
  EXPECT_NEAR(m.slow_burn(), 10.0, 1e-9);
}

TEST(SloBurnMonitor, JustBelowThresholdNeverFires) {
  SloBurnMonitor m(test_config());
  for (int t = 1; t <= 100; ++t) {
    EXPECT_EQ(m.record(double(t), 1000, 99), Transition::kNone) << t;
  }
  EXPECT_FALSE(m.alerting());
  EXPECT_EQ(m.alerts_fired(), 0u);
}

TEST(SloBurnMonitor, RequiresBothWindowsToAgree) {
  // Seed the slow window with 540 s of clean history, then a hot burst:
  // the fast window reaches threshold immediately but the slow window is
  // still diluted by the clean period, so no alert until it catches up.
  SloBurnMonitor m(test_config());
  double now = 0.0;
  for (int t = 0; t < 54; ++t) {
    now += 10.0;
    EXPECT_EQ(m.record(now, 100, 0), Transition::kNone);
  }
  now += 10.0;
  EXPECT_EQ(m.record(now, 100, 100), Transition::kNone);  // outage begins
  EXPECT_GE(m.fast_burn(), 10.0);
  EXPECT_LT(m.slow_burn(), 10.0);
  Transition fired = Transition::kNone;
  while (fired == Transition::kNone && now < 2000.0) {
    now += 10.0;
    fired = m.record(now, 100, 100);
  }
  EXPECT_EQ(fired, Transition::kFired);
  EXPECT_GE(m.slow_burn(), 10.0 - 1e-9);
}

TEST(SloBurnMonitor, ClearIsHysteretic) {
  SloBurnMonitor m(test_config());
  ASSERT_EQ(m.record(1.0, 100, 10), Transition::kFired);
  // Burn drops below threshold but stays above threshold * clear_fraction
  // (5.0): the alert must hold.
  double now = 1.0;
  for (int t = 0; t < 80; ++t) {
    now += 10.0;
    EXPECT_EQ(m.record(now, 100, 7), Transition::kNone) << now;
    EXPECT_TRUE(m.alerting());
  }
  // Clean traffic ages the misses out of both windows; once both burns
  // drop under 5.0 the alert clears, exactly once.
  Transition cleared = Transition::kNone;
  int clear_events = 0;
  for (int t = 0; t < 200; ++t) {
    now += 10.0;
    const Transition tr = m.record(now, 100, 0);
    if (tr == Transition::kCleared) {
      cleared = tr;
      ++clear_events;
    }
  }
  EXPECT_EQ(cleared, Transition::kCleared);
  EXPECT_EQ(clear_events, 1);
  EXPECT_FALSE(m.alerting());
  EXPECT_EQ(m.alerts_fired(), 1u);  // refiring would need a new episode
}

TEST(SloBurnMonitor, DisabledMonitorRecordsNothing) {
  SloBurnConfig cfg = test_config();
  cfg.enabled = false;
  SloBurnMonitor m(cfg);
  for (int t = 1; t <= 50; ++t) {
    EXPECT_EQ(m.record(double(t), 100, 100), Transition::kNone);
  }
  EXPECT_FALSE(m.alerting());
  EXPECT_EQ(m.alerts_fired(), 0u);
  EXPECT_EQ(m.checked_total(), 0u);
  EXPECT_EQ(m.missed_total(), 0u);
  EXPECT_DOUBLE_EQ(m.budget_consumed(), 0.0);
}

TEST(SloBurnMonitor, BudgetConsumedIsLifetime) {
  SloBurnMonitor m(test_config());
  m.record(1.0, 100, 1);  // 1% miss rate on a 1% budget: fully consumed
  EXPECT_NEAR(m.budget_consumed(), 1.0, 1e-12);
  m.record(2.0, 100, 0);  // clean period halves the lifetime rate
  EXPECT_NEAR(m.budget_consumed(), 0.5, 1e-12);
  EXPECT_EQ(m.checked_total(), 200u);
  EXPECT_EQ(m.missed_total(), 1u);
}

TEST(SloBurnMonitor, MissedExceedingCheckedThrows) {
  SloBurnMonitor m(test_config());
  EXPECT_THROW(m.record(1.0, 10, 11), InvalidArgument);
}

/// The burn rates by walking every retained sample, as the monitor once
/// did: the oracle its running totals must match bit for bit.
class BruteForceBurn {
 public:
  explicit BruteForceBurn(SloBurnConfig config) : config_(config) {}

  void record(double now, std::uint64_t checked, std::uint64_t missed) {
    samples_.push_back({now, checked, missed});
    while (samples_.front().time <= now - config_.slow_window_s) {
      samples_.pop_front();
    }
    fast_ = window_burn(now, config_.fast_window_s);
    slow_ = window_burn(now, config_.slow_window_s);
  }
  [[nodiscard]] double fast() const { return fast_; }
  [[nodiscard]] double slow() const { return slow_; }

 private:
  struct Sample {
    double time;
    std::uint64_t checked;
    std::uint64_t missed;
  };
  [[nodiscard]] double window_burn(double now, double window_s) const {
    std::uint64_t checked = 0;
    std::uint64_t missed = 0;
    for (auto it = samples_.rbegin(); it != samples_.rend(); ++it) {
      if (it->time <= now - window_s) break;
      checked += it->checked;
      missed += it->missed;
    }
    if (checked == 0) return 0.0;
    return static_cast<double>(missed) / static_cast<double>(checked) /
           (1.0 - config_.objective);
  }

  SloBurnConfig config_;
  std::deque<Sample> samples_;
  double fast_{0.0};
  double slow_{0.0};
};

TEST(SloBurnMonitor, RunningTotalsMatchAWalkOverTheWindow) {
  SloBurnConfig equal = test_config();
  equal.slow_window_s = equal.fast_window_s;
  for (const SloBurnConfig& cfg : {test_config(), equal}) {
    SloBurnMonitor m(cfg);
    BruteForceBurn ref(cfg);
    Rng rng(17);
    double now = 0.0;
    // Bursty miss rates so the alert fires and clears repeatedly; a third
    // of the records repeat the previous timestamp, and empty periods
    // (nothing checked) land in the windows too.
    std::size_t fired = 0;
    std::size_t cleared = 0;
    bool alerting = false;
    for (int k = 0; k < 2000; ++k) {
      if (k == 0 || rng.uniform_index(3) != 0) {
        now += 4.0 * static_cast<double>(1 + rng.uniform_index(8));
      }
      const std::uint64_t checked = rng.uniform_index(40);
      const bool hot = (k / 150) % 2 == 1;
      const std::uint64_t missed =
          checked == 0 ? 0 : rng.uniform_index(hot ? checked + 1 : 2);
      const Transition t = m.record(now, checked, missed);
      ref.record(now, checked, missed);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(m.fast_burn()),
                std::bit_cast<std::uint64_t>(ref.fast()))
          << "record " << k;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(m.slow_burn()),
                std::bit_cast<std::uint64_t>(ref.slow()))
          << "record " << k;
      // The transition the same thresholds give on the oracle's rates.
      const double eps = 1e-9 * cfg.burn_threshold;
      Transition expected = Transition::kNone;
      if (!alerting && ref.fast() >= cfg.burn_threshold - eps &&
          ref.slow() >= cfg.burn_threshold - eps) {
        expected = Transition::kFired;
        alerting = true;
        ++fired;
      } else if (alerting &&
                 ref.fast() < cfg.burn_threshold * cfg.clear_fraction &&
                 ref.slow() < cfg.burn_threshold * cfg.clear_fraction) {
        expected = Transition::kCleared;
        alerting = false;
        ++cleared;
      }
      ASSERT_EQ(t, expected) << "record " << k;
    }
    EXPECT_GT(fired, 2u);
    EXPECT_GT(cleared, 2u);
    EXPECT_EQ(m.alerts_fired(), fired);
  }
}

TEST(SloBurnMonitor, TimeGoingBackThrows) {
  SloBurnMonitor m(test_config());
  m.record(10.0, 100, 1);
  m.record(10.0, 100, 1);  // a repeated timestamp is fine
  EXPECT_THROW(m.record(9.0, 100, 1), InvalidArgument);
}

TEST(SloBurnMonitor, InvalidConfigThrows) {
  SloBurnConfig bad = test_config();
  bad.objective = 1.0;
  EXPECT_THROW(SloBurnMonitor{bad}, InvalidArgument);
  bad = test_config();
  bad.slow_window_s = bad.fast_window_s / 2.0;
  EXPECT_THROW(SloBurnMonitor{bad}, InvalidArgument);
  bad = test_config();
  bad.clear_fraction = 0.0;
  EXPECT_THROW(SloBurnMonitor{bad}, InvalidArgument);
}

TEST(SloRegistry, MergeShiftsPids) {
  SloRegistry parent;
  SloEntry a;
  a.pid = 1;
  a.policy = "mpc";
  parent.add(a);
  SloRegistry child;
  SloEntry b;
  b.pid = 1;
  b.policy = "fixed-step";
  child.add(b);
  parent.merge_from(child, 10);
  ASSERT_EQ(parent.entries().size(), 2u);
  EXPECT_EQ(parent.entries()[1].pid, 11);
  EXPECT_EQ(parent.entries()[1].policy, "fixed-step");
}

TEST(SloReport, RendersEntriesAndEpisodes) {
  SloRegistry slo;
  SloEntry e;
  e.pid = 2;
  e.policy = "mpc";
  e.model = "resnet50";
  e.objective = 0.99;
  e.slo_seconds = 0.2;
  e.checked = 100;
  e.missed = 5;
  e.budget_consumed = 5.0;
  e.alerts = 1;
  e.episodes.push_back({12.5, 30.0, true});
  slo.add(e);
  MetricsRegistry metrics;
  const std::string report = to_slo_report(slo, metrics);
  EXPECT_NE(report.find("\"policy\":\"mpc\""), std::string::npos);
  EXPECT_NE(report.find("\"model\":\"resnet50\""), std::string::npos);
  EXPECT_NE(report.find("\"fired_at_s\":12.5"), std::string::npos);
  EXPECT_NE(report.find("\"cleared\":true"), std::string::npos);
  EXPECT_NE(report.find("\"stage_quantiles\""), std::string::npos);
}

}  // namespace
}  // namespace capgpu::telemetry
