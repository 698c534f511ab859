// SLO error-budget accounting with multi-window burn-rate alerting.
//
// Follows the SRE playbook: an SLO objective (fraction of batches that must
// meet their latency target) defines an error budget of 1-objective; the
// burn rate is how many times faster than budget-neutral the pipeline is
// consuming it (miss_rate / (1 - objective)). An alert fires only when BOTH
// a fast window (default 1 virtual minute — catches cliffs quickly) and a
// slow window (default 10 virtual minutes — suppresses blips) burn at or
// above the threshold, and clears with hysteresis once both windows drop
// below threshold * clear_fraction. All windows are virtual time: the DES
// clock, not wall time, so results are reproducible and --jobs independent.
//
// core::ServerRig feeds one SloBurnMonitor per stream from its per-period
// SLO miss counts and surfaces transitions as metrics
// (capgpu_slo_burn_rate / _alert_active / _alerts_total /
// _error_budget_consumed_ratio), trace instants (slo_burn_alert /
// slo_burn_clear) and SloRegistry entries, which --slo-report-out renders
// as a JSON artifact for tools/capgpu_report.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

namespace capgpu::telemetry {

class MetricsRegistry;

/// Burn-rate alerting policy. The defaults implement the classic
/// "fast + slow window must agree" page condition on a 99% objective.
struct SloBurnConfig {
  /// Master switch: a disabled monitor records nothing and never alerts.
  bool enabled{true};
  /// Target fraction of checked batches that must meet the SLO (in (0,1)).
  /// The error budget is 1 - objective.
  double objective{0.99};
  /// Fast alerting window, virtual seconds.
  double fast_window_s{60.0};
  /// Slow alerting window, virtual seconds. Also the retention horizon.
  double slow_window_s{600.0};
  /// Alert when both windows burn at >= this multiple of budget-neutral.
  double burn_threshold{10.0};
  /// Hysteresis: clear only once both windows drop below
  /// burn_threshold * clear_fraction.
  double clear_fraction{0.5};
};

/// Tracks one SLO's budget burn across the two windows.
class SloBurnMonitor {
 public:
  enum class Transition { kNone, kFired, kCleared };

  explicit SloBurnMonitor(SloBurnConfig config = {});

  /// Records one sampling period's SLO accounting (`checked` batches,
  /// `missed` of them over target) at virtual time `now` and evaluates the
  /// alert condition. `now` may repeat but must not go back in time. O(1)
  /// amortized: each window keeps running totals. No-op returning kNone
  /// when disabled.
  Transition record(double now, std::uint64_t checked, std::uint64_t missed);

  /// Burn rates over the respective windows ending at the last sample.
  [[nodiscard]] double fast_burn() const { return fast_burn_; }
  [[nodiscard]] double slow_burn() const { return slow_burn_; }
  [[nodiscard]] bool alerting() const { return alerting_; }
  [[nodiscard]] std::uint64_t alerts_fired() const { return alerts_fired_; }

  [[nodiscard]] std::uint64_t checked_total() const { return checked_total_; }
  [[nodiscard]] std::uint64_t missed_total() const { return missed_total_; }

  /// Fraction of the lifetime error budget consumed:
  /// miss_rate_lifetime / (1 - objective). 1.0 means the budget is gone.
  [[nodiscard]] double budget_consumed() const;

  [[nodiscard]] const SloBurnConfig& config() const { return config_; }

 private:
  /// Burn rate of a window that checked `checked` and missed `missed`.
  [[nodiscard]] double burn(std::uint64_t checked, std::uint64_t missed) const;

  struct Sample {
    double time;
    std::uint64_t checked;
    std::uint64_t missed;
  };

  SloBurnConfig config_;
  /// Samples inside the slow window, oldest first. The fast window is the
  /// suffix from index fast_begin_ (slow >= fast, so it is always one).
  std::deque<Sample> samples_;
  std::size_t fast_begin_{0};
  /// Integer sums over each window: exact, so a window's burn rate has the
  /// same bits as a walk over its samples.
  std::uint64_t fast_checked_{0};
  std::uint64_t fast_missed_{0};
  std::uint64_t slow_checked_{0};
  std::uint64_t slow_missed_{0};
  double fast_burn_{0.0};
  double slow_burn_{0.0};
  bool alerting_{false};
  std::uint64_t alerts_fired_{0};
  std::uint64_t checked_total_{0};
  std::uint64_t missed_total_{0};
};

/// One alert episode on the virtual timeline (cleared == false means it was
/// still firing when the run ended).
struct SloAlertEpisode {
  double fired_at_s{0.0};
  double cleared_at_s{0.0};
  bool cleared{false};
};

/// Final burn accounting for one (policy, model) SLO, tagged with the trace
/// pid of the rig that produced it so report consumers can join against the
/// event stream.
struct SloEntry {
  int pid{0};
  std::string policy;
  std::string model;
  double objective{0.0};
  double slo_seconds{0.0};  ///< last active SLO target
  std::uint64_t checked{0};
  std::uint64_t missed{0};
  double budget_consumed{0.0};
  double final_fast_burn{0.0};
  double final_slow_burn{0.0};
  std::uint64_t alerts{0};
  std::vector<SloAlertEpisode> episodes;
};

/// Accumulates SloEntry records across runs. Like every sink it belongs to
/// a telemetry::Context, so parallel scenarios stay isolated and merge
/// deterministically in scenario order.
class SloRegistry {
 public:
  SloRegistry() = default;
  SloRegistry(const SloRegistry&) = delete;
  SloRegistry& operator=(const SloRegistry&) = delete;

  /// Appends an entry (call once per monitor at end of run).
  void add(SloEntry entry);

  [[nodiscard]] const std::vector<SloEntry>& entries() const {
    return entries_;
  }
  void clear() { entries_.clear(); }

  /// Appends another registry's entries, shifting their pids by
  /// `pid_offset` — pass the parent tracer's pid captured *before*
  /// Tracer::merge_from so entry pids keep matching the merged event
  /// stream.
  void merge_from(const SloRegistry& other, int pid_offset);

  /// Context::global().slo() / Context::current().slo().
  static SloRegistry& global();
  static SloRegistry& current();

 private:
  std::vector<SloEntry> entries_;
};

/// Renders the SLO report JSON: every registry entry (burn accounting +
/// alert episodes) plus the per-model/per-stage latency quantiles from the
/// metrics registry's sketches. Deterministic byte-for-byte given the same
/// registries.
void write_slo_report(const SloRegistry& slo, const MetricsRegistry& metrics,
                      std::ostream& out);
std::string to_slo_report(const SloRegistry& slo,
                          const MetricsRegistry& metrics);
void save_slo_report(const SloRegistry& slo, const MetricsRegistry& metrics,
                     const std::string& path);

}  // namespace capgpu::telemetry
