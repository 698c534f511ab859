// Unified metrics registry: labeled counters, gauges and log-linear
// histograms for every subsystem (control loop, pipeline, governors, rack,
// HAL).
//
// Usage mirrors the Prometheus client model: instrumentation sites register
// once (name + help + label set) and keep the returned reference, so the
// hot path is a single add on a pre-resolved slot — no lookup, no
// allocation. Registration of an already-known (name, labels) pair returns
// the same instrument, which lets short-lived components (one rig per
// bench run) accumulate into process-wide series.
//
// Thread-compatible, like the rest of the library: concurrent reads are
// fine, concurrent mutation needs external synchronisation (the DES is
// single-threaded). Parallel scenario execution (runner::ScenarioRunner)
// gives every scenario a private registry, part of a telemetry::Context
// bound to its worker thread, and merges the instances back into the
// parent registry in scenario order, so exports stay deterministic under
// any --jobs value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace capgpu::telemetry {

/// Label set as (key, value) pairs. Keys must match
/// [a-zA-Z_][a-zA-Z0-9_]*; values are free-form. Order does not matter:
/// the registry canonicalises by key.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram, kSketch };

class QuantileSketch;
struct QuantileSketchSpec;

/// Monotonically increasing count (resets only with the registry).
class Counter {
 public:
  void inc(double delta = 1.0) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_{0.0};
};

/// Point-in-time value.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_{0.0};
};

/// Bucket layout of a log-linear histogram: `decades` decades starting at
/// `min_bound`, each decade split into `buckets_per_decade` linear buckets
/// (HdrHistogram-style). With the defaults the upper bounds are
/// 0.001, 0.004, 0.007, 0.01, 0.04, 0.07, 0.1, ... — wide dynamic range,
/// bounded relative error, and O(1) bucket selection.
struct HistogramSpec {
  double min_bound{1e-3};
  std::size_t decades{6};
  std::size_t buckets_per_decade{3};
};

/// Fixed-layout histogram with log-spaced decades and linearly subdivided
/// buckets inside each decade. Observations <= min_bound land in the
/// bottom bucket; observations beyond the last bound land in the implicit
/// +Inf bucket.
class LogLinearHistogram {
 public:
  explicit LogLinearHistogram(HistogramSpec spec);

  void observe(double x) noexcept;

  /// Index into counts() for a value (last index = +Inf bucket).
  [[nodiscard]] std::size_t bucket_index(double x) const noexcept;

  /// Inclusive upper bounds, one per finite bucket.
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }
  /// Per-bucket observation counts; size() == upper_bounds().size() + 1,
  /// the extra slot being the +Inf bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] const HistogramSpec& spec() const { return spec_; }

  /// Adds another histogram's observations; both must share one spec.
  void merge_from(const LogLinearHistogram& other);

 private:
  HistogramSpec spec_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  double sum_{0.0};
  std::uint64_t count_{0};
};

/// One labeled series within a family.
struct Instrument {
  Labels labels;  ///< canonical (key-sorted) order
  MetricType type{MetricType::kCounter};
  Counter counter;
  Gauge gauge;
  std::unique_ptr<LogLinearHistogram> histogram;
  std::unique_ptr<QuantileSketch> sketch;

  Instrument();
  ~Instrument();
};

/// The registry. Families are keyed by metric name; each family owns its
/// labeled series. Instrument references stay valid until clear().
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Throws InvalidArgument on a malformed name/label key
  /// or when `name` already exists with a different type.
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  LogLinearHistogram& histogram(const std::string& name,
                                const std::string& help,
                                HistogramSpec spec = {},
                                const Labels& labels = {});
  /// Streaming quantile sketch, exported as a Prometheus summary
  /// (p50/p95/p99/p99.9 + _sum + _count). Spec must match on re-lookup.
  QuantileSketch& sketch(const std::string& name, const std::string& help,
                         const Labels& labels = {});

  /// One metric family (all series sharing a name).
  struct Family {
    std::string name;
    std::string help;
    MetricType type{MetricType::kCounter};
    /// Canonical label serialisation -> series, ordered for deterministic
    /// export.
    std::map<std::string, std::unique_ptr<Instrument>> series;
  };

  /// Families in registration order (exporter input).
  [[nodiscard]] std::vector<const Family*> families() const;
  [[nodiscard]] std::vector<std::string> metric_names() const;
  [[nodiscard]] std::size_t series_count() const;

  /// Drops every family and series; outstanding references dangle, so this
  /// is for test isolation only.
  void clear();

  /// Folds another registry into this one: counters and histograms
  /// accumulate, gauges take the other registry's value (last merge in
  /// call order wins, mirroring sequential execution). Families and series
  /// missing here are created in the other registry's registration order,
  /// so merging scenario registries in scenario order reproduces the
  /// sequential export byte for byte.
  void merge_from(const MetricsRegistry& other);

  /// The process-wide registry, Context::global().metrics().
  static MetricsRegistry& global();
  /// The registry instrumentation on this thread writes to: that of the
  /// thread's bound telemetry::Context (see context.hpp).
  static MetricsRegistry& current();

 private:
  Instrument& find_or_create(const std::string& name, const std::string& help,
                             MetricType type, const Labels& labels);

  std::map<std::string, std::unique_ptr<Family>> families_;
  std::vector<Family*> order_;
};

}  // namespace capgpu::telemetry
