// Mergeable streaming quantile sketch with a bounded relative error
// (DDSketch-style: Masson, Rim & Lee, VLDB'19).
//
// Values map to geometrically spaced buckets: bucket i covers
// (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha), so any quantile
// estimate is within relative error alpha of the true sample quantile, at
// O(log(max/min)) memory and O(1) per observation — no samples stored.
//
// Sketches merge by adding bucket counts, which is associative and
// commutative over integer counts; merging per-scenario sketches in
// scenario order therefore reproduces the sequential run's state exactly
// (runner::ScenarioRunner determinism contract). Benches use sketches for
// per-stage request-latency quantiles (p50/p95/p99/p99.9) where a
// log-linear histogram's fixed decade layout would be too coarse at the
// tail.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace capgpu::telemetry {

/// Sketch accuracy configuration.
struct QuantileSketchSpec {
  /// Relative error bound alpha: quantile(q) is within a factor
  /// [1-alpha, 1+alpha] of the true sample quantile.
  double relative_error{0.01};
  /// Observations below this magnitude collapse into the zero bucket and
  /// report as 0.0 (latencies below a microsecond are noise here).
  double min_trackable{1e-6};
};

/// Replayable summary of one observed span: the quantized values (the
/// span's fingerprint) plus the count/sum/extreme deltas the span produced.
/// Produced by QuantileSketch::observe_span_record; a caller that sees the
/// same quantized values again can re-apply the span via apply_record
/// instead of re-observing every element — the workload pipeline uses this
/// for streams whose batches repeat. Bucket keys are recomputed from the
/// quantized values on replay, so sketch bucket growth between record and
/// replay is harmless.
struct SpanRecord {
  std::vector<std::uint64_t> quant;
  std::uint64_t n{0};
  std::uint64_t zeros{0};
  /// Sum of the quantized clamped values (what observe_span returns).
  double quant_sum{0.0};
  /// Min/max over the span's non-zero quantized values (+/-inf when none).
  double qmin{0.0};
  double qmax{0.0};
};

/// The sketch. Tracks non-negative values (negatives clamp into the zero
/// bucket). Thread-compatible like the rest of the telemetry layer.
///
/// Every bucket lookup keys the value's quantized bits (the top 14 mantissa
/// bits): durations come from subtracting large absolute sim times, so "the
/// same" duration jiggles at the ULP level, and the 2^-14 quantization
/// error is far inside any sensible alpha. Inside a fixed range of binades
/// the key comes from a table shared by every sketch of one spec (see
/// KeyLookup), so the per-value cost is a shift, a load and a compare; only
/// values outside that range pay the libm log.
class QuantileSketch {
 public:
  explicit QuantileSketch(QuantileSketchSpec spec = {});

  void observe(double x) noexcept { observe_many(x, 1); }
  /// Bulk observation: `n` samples of the same value, one bucket update.
  /// The pipeline uses this for per-batch stages where every image in the
  /// batch shares one latency (GPU execution).
  void observe_many(double x, std::uint64_t n) noexcept {
    if (n == 0 || std::isnan(x)) return;
    if (!(x > 0.0)) x = 0.0;
    count_ += n;
    sum_ += x * static_cast<double>(n);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    if (x < spec_.min_trackable) {
      zero_count_ += n;
      return;
    }
    add(keys_(quantized_bits(x)), n);
  }

  /// Bulk observation of `n` contiguous values. Values must be finite;
  /// negatives clamp to the zero bucket. Returns the sum of the quantized
  /// clamped values (within 2^-14 relative of the exact sum, far inside the
  /// sketch's error bound) so callers keeping a running total do not
  /// re-traverse the span.
  double observe_span(const double* v, std::size_t n) noexcept {
    return observe_span_record(v, n, span_scratch_);
  }

  /// observe_span that additionally fills `rec` with the span's fingerprint
  /// and deltas, in the same single pass over the values. A caller whose
  /// next span's quantized values (compare via quantized_bits) equal
  /// rec.quant can skip re-observation and call apply_record(rec, 1)
  /// instead.
  double observe_span_record(const double* v, std::size_t n,
                             SpanRecord& rec) noexcept;

  /// Re-applies a span record `k` more times (k * rec.n observations), as
  /// if the recorded span had been observed k additional times. Valid on
  /// any sketch with the same spec as the recording one.
  void apply_record(const SpanRecord& rec, std::uint64_t k) noexcept;

  /// Quantized bit pattern of a clamped span value — the unit of span
  /// fingerprint comparison against SpanRecord::quant.
  [[nodiscard]] static std::uint64_t quantized_bits(double x) noexcept {
    const double c = x > 0.0 ? x : 0.0;
    return std::bit_cast<std::uint64_t>(c) & kQuantMask;
  }

  /// Bucket key of a value at or above min_trackable: bucket i covers
  /// (gamma^(i-1), gamma^i], evaluated at the value's quantized bits q.
  /// Equal to ceil(log(q) / log(gamma) - 1e-9) whether the key table or
  /// libm answers.
  [[nodiscard]] int bucket_key(double x) const noexcept {
    return keys_(quantized_bits(x));
  }

  /// Estimate of the q-quantile (q in [0, 1]), within the configured
  /// relative error of the true sample quantile. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Smallest / largest observed value; 0 when empty.
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] const QuantileSketchSpec& spec() const { return spec_; }
  /// Buckets currently allocated (memory diagnostic).
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

  /// Adds another sketch's observations; both must share one spec.
  void merge_from(const QuantileSketch& other);

 private:
  /// Mantissa bits dropped by the quantization (keeps the top 14).
  static constexpr unsigned kQuantBits = 38;
  static constexpr std::uint64_t kQuantMask =
      ~((std::uint64_t{1} << kQuantBits) - 1);
  /// log2 of the quantized values per key-table cell (at most 6: a cell
  /// entry keeps 128 - edge offset below its key bits).
  static constexpr unsigned kCellBits = 6;

  /// The bucket-key function: a read-only view of the spec's shared key
  /// table, with the libm key for values outside it. A span loop copies it
  /// into locals, so no store to the sketch forces a reload.
  ///
  /// The table covers every quantized value of the binades from
  /// min_trackable's up to 2^12 s. Those values are cut into cells of
  /// 2^kCellBits consecutive quantized values, and each cell holds at most
  /// one bucket edge, so one int per cell answers every value in it:
  /// 128 * (key of the cell's first value) + 128 - (offset of the first
  /// value past the edge, 64 when there is none). Adding a value's offset
  /// in the cell carries into the key bits exactly when the value lies past
  /// the edge, so its key is (cell + offset) >> 7. A spec whose buckets are
  /// narrower than a cell has no table (size 0), and every value takes the
  /// libm key.
  struct KeyLookup {
    const std::int32_t* cells{nullptr};
    /// (quantized bits >> kQuantBits) of the first value covered.
    std::uint64_t first{0};
    /// Quantized values covered.
    std::uint64_t size{0};
    double inv_log_gamma{0.0};

    [[nodiscard]] int operator()(std::uint64_t q) const noexcept {
      const std::uint64_t i = (q >> kQuantBits) - first;
      if (i < size) {
        const auto offset =
            static_cast<std::int32_t>(i & ((1u << kCellBits) - 1));
        return (cells[i >> kCellBits] + offset) >> 7;
      }
      return log_key(std::bit_cast<double>(q), inv_log_gamma);
    }
  };
  /// The cells behind a KeyLookup (defined in sketch.cpp).
  struct KeyTable;
  /// The key function for `spec`. Its table is built on first use and
  /// shared read-only by every sketch (and thread) of that spec for the
  /// life of the process.
  static KeyLookup shared_key_lookup(const QuantileSketchSpec& spec,
                                     double inv_log_gamma);
  /// Calls log_key on each cell's first and last value and bisects the
  /// edge between them, so every table key equals the libm key. Returns an
  /// empty table when some cell holds two edges.
  static KeyTable build_key_table(const QuantileSketchSpec& spec,
                                  double inv_log_gamma);
  /// The libm key: ceil of the log-gamma index. Builds the table and
  /// answers every value outside it.
  [[nodiscard]] static int log_key(double x, double inv_log_gamma) noexcept;
  [[nodiscard]] double bucket_value(int key) const noexcept;
  /// Adds `n` to bucket `key`, growing the dense range if it lies outside.
  void add(int key, std::uint64_t n) noexcept {
    const auto i = static_cast<std::size_t>(key - offset_);
    if (i < buckets_.size()) {
      buckets_[i] += n;
      return;
    }
    grow_to(key);
    buckets_[static_cast<std::size_t>(key - offset_)] += n;
  }
  void grow_to(int key) noexcept;
  /// Folds a span's extremes into min_/max_; a span with zeros pulls them
  /// to 0.
  void merge_extremes(double qmin, double qmax, std::uint64_t zeros) noexcept;

  QuantileSketchSpec spec_;
  double gamma_{0.0};
  double inv_log_gamma_{0.0};
  KeyLookup keys_;
  /// Dense bucket counts; buckets_[i] holds key = offset_ + i.
  std::vector<std::uint64_t> buckets_;
  int offset_{0};
  /// Reused record for plain observe_span calls.
  SpanRecord span_scratch_;
  std::uint64_t zero_count_{0};
  std::uint64_t count_{0};
  double sum_{0.0};
  /// +/-inf identity elements keep every update path a plain compare; the
  /// accessors report 0 while the sketch is empty.
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// The quantiles every summary export reports, highest-resolution tail
/// last. Shared by the Prometheus exporter and the SLO report writer.
inline constexpr double kSummaryQuantiles[] = {0.5, 0.95, 0.99, 0.999};
inline constexpr std::size_t kSummaryQuantileCount = 4;

}  // namespace capgpu::telemetry
