// Throughput and latency monitors (paper Sec 3.1, loop step 2).
//
// Each device's monitor reports the average throughput over the last control
// period; the controller normalizes it by the device's maximum throughput to
// drive weight assignment.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace capgpu::workload {

/// Flat ring of (time, value) samples backing the monitors.
///
/// Replaces the std::deque sample stores on the request hot path: trim()
/// advances the head without releasing storage, so steady-state record()s
/// land in warm, already-mapped memory and the rolling window cycles
/// through one power-of-two allocation. Scans visit the same elements in
/// the same order as the deque did, so every windowed statistic is
/// bit-identical to the old storage.
///
/// Retention is enforced: trim() remembers its cutoff, and cutoff() refuses
/// a finite query window that reaches before it, since the samples that
/// query needs are gone. An infinite window reads every retained sample; a
/// ring that was never trimmed answers every window.
class SampleRing {
 public:
  struct Entry {
    sim::SimTime time;
    double value;
  };

  [[nodiscard]] std::size_t size() const { return size_; }

  /// i-th live entry, oldest first (i < size()).
  [[nodiscard]] const Entry& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask_];
  }

  void push_back(sim::SimTime time, double value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask_] = Entry{time, value};
    ++size_;
  }

  /// Drops every entry stamped at or before `now - horizon`.
  void trim(sim::SimTime now, double horizon);

  /// Start of the query window (now - window, now]. Throws InvalidArgument
  /// when a finite window reaches before the last trim's cutoff.
  [[nodiscard]] double cutoff(sim::SimTime now, double window) const {
    const double c = now - window;
    if (c < trimmed_through_ && window != kForever) retention_error(window);
    return c;
  }

 private:
  static constexpr double kForever = std::numeric_limits<double>::infinity();

  void grow();
  [[noreturn]] void retention_error(double window) const;

  std::vector<Entry> buf_;
  std::size_t head_{0};
  std::size_t size_{0};
  std::size_t mask_{0};  // buf_.size() - 1 (capacity is a power of two)
  /// Cutoff and horizon of the last trim (-inf / +inf before the first).
  double trimmed_through_{-kForever};
  double horizon_{kForever};
};

/// Counts completion events and reports a windowed rate.
class ThroughputMonitor {
 public:
  /// `max_rate` is the device's nominal peak throughput, used for
  /// normalization (e.g. batch_size / e_min for a GPU stream at f_max).
  explicit ThroughputMonitor(double max_rate);

  /// Records `count` completions at simulated time `now`.
  void record(sim::SimTime now, double count = 1.0) {
    CAPGPU_ASSERT(count >= 0.0);
    events_.push_back(now, count);
    total_ += count;
  }

  /// Completions per second over (now - window, now].
  [[nodiscard]] double rate(sim::SimTime now, double window) const;

  /// rate / max_rate, clamped to [0, 1].
  [[nodiscard]] double normalized_rate(sim::SimTime now, double window) const;

  [[nodiscard]] double max_rate() const { return max_rate_; }
  [[nodiscard]] double total() const { return total_; }

  /// Drops events at or before `now - horizon` (bounds memory; the backing
  /// ring keeps its capacity for reuse). Later queries may not reach past
  /// the dropped events (see SampleRing).
  void trim(sim::SimTime now, double horizon) { events_.trim(now, horizon); }

  /// The retained (time, count) records, oldest first.
  [[nodiscard]] const SampleRing& samples() const { return events_; }

 private:
  double max_rate_;
  double total_{0.0};
  SampleRing events_;
};

/// Collects latency samples within a rolling window. Every statistic is
/// windowed; a sample dropped by trim() is gone for good.
class LatencyMonitor {
 public:
  void record(sim::SimTime now, double latency_s) {
    samples_.push_back(now, latency_s);
  }

  /// Mean latency of samples in (now - window, now]; 0 when none.
  [[nodiscard]] double mean(sim::SimTime now, double window) const;
  /// Max latency in the window; 0 when none.
  [[nodiscard]] double max(sim::SimTime now, double window) const;
  /// Number of samples in the window.
  [[nodiscard]] std::size_t count(sim::SimTime now, double window) const;
  /// Number of samples in the window exceeding `threshold`.
  [[nodiscard]] std::size_t misses(sim::SimTime now, double window,
                                   double threshold) const;

  /// Invokes `fn(latency)` for every sample in (now - window, now], oldest
  /// first (percentile extraction, custom aggregation).
  void visit(sim::SimTime now, double window,
             const std::function<void(double)>& fn) const;

  /// Drops samples at or before `now - horizon`. Later queries may not
  /// reach past the dropped samples (see SampleRing).
  void trim(sim::SimTime now, double horizon) { samples_.trim(now, horizon); }

  /// The retained (time, latency) samples, oldest first.
  [[nodiscard]] const SampleRing& samples() const { return samples_; }

 private:
  SampleRing samples_;
};

}  // namespace capgpu::workload
