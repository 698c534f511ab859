// Reference quantile sketch for the QuantileSketch tests.
//
// A direct transcription of the documented semantics with none of the
// production sketch's machinery: buckets live in a std::map keyed by the
// libm key ceil(log(q) / log(gamma) - 1e-9) of each value's quantized bits,
// every span value is processed on its own, and replays walk the recorded
// values again. Count, sum, min and max follow the same arithmetic as the
// documented contract (span sums accumulate in element order; a replay adds
// k times the span sum), so the production sketch must match it bit for
// bit.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "telemetry/sketch.hpp"

namespace capgpu::telemetry {

/// What ReferenceSketch::observe_span returns: the span's quantized values
/// and the totals a replay adds again.
struct ReferenceSpan {
  std::vector<double> quant;
  double quant_sum{0.0};
};

class ReferenceSketch {
 public:
  explicit ReferenceSketch(QuantileSketchSpec spec) : spec_(spec) {
    gamma_ = (1.0 + spec.relative_error) / (1.0 - spec.relative_error);
    inv_log_gamma_ = 1.0 / std::log(gamma_);
  }

  /// Value with all but the top 14 mantissa bits cleared, after clamping
  /// negatives (and NaN) to 0.
  [[nodiscard]] static double quantize(double x) {
    const double c = x > 0.0 ? x : 0.0;
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(c) &
                                 ~((std::uint64_t{1} << 38) - 1));
  }

  /// Bucket i covers (gamma^(i-1), gamma^i].
  [[nodiscard]] int key(double x) const {
    return static_cast<int>(std::ceil(std::log(quantize(x)) * inv_log_gamma_ -
                                      1e-9));
  }

  /// `n` copies of x: count, sum and extremes from the exact value, the
  /// bucket from its quantized bits.
  void observe_many(double x, std::uint64_t n) {
    if (n == 0 || std::isnan(x)) return;
    if (!(x > 0.0)) x = 0.0;
    count_ += n;
    sum_ += x * static_cast<double>(n);
    min_ = std::fmin(min_, x);
    max_ = std::fmax(max_, x);
    if (x < spec_.min_trackable) {
      zeros_ += n;
    } else {
      buckets_[key(x)] += n;
    }
  }

  /// A span of values: everything comes from the quantized values.
  ReferenceSpan observe_span(const double* v, std::size_t n) {
    ReferenceSpan span;
    for (std::size_t i = 0; i < n; ++i) {
      span.quant.push_back(quantize(v[i]));
      span.quant_sum += span.quant.back();
    }
    replay(span, 1);
    return span;
  }

  /// The span observed `k` more times.
  void replay(const ReferenceSpan& span, std::uint64_t k) {
    if (k == 0 || span.quant.empty()) return;
    count_ += k * span.quant.size();
    sum_ += static_cast<double>(k) * span.quant_sum;
    for (double q : span.quant) {
      if (q < spec_.min_trackable) {
        zeros_ += k;
        min_ = std::fmin(min_, 0.0);
        max_ = std::fmax(max_, 0.0);
      } else {
        buckets_[key(q)] += k;
        min_ = std::fmin(min_, q);
        max_ = std::fmax(max_, q);
      }
    }
  }

  /// Nearest-rank quantile over zero bucket then buckets in key order,
  /// reported at the bucket midpoint 2 gamma^i / (gamma + 1).
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1) + 0.5);
    if (rank < zeros_) return 0.0;
    std::uint64_t cumulative = zeros_;
    for (const auto& [k, c] : buckets_) {
      cumulative += c;
      if (cumulative > rank) {
        return 2.0 * std::pow(gamma_, static_cast<double>(k)) / (gamma_ + 1.0);
      }
    }
    return max();
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

 private:
  QuantileSketchSpec spec_;
  double gamma_{0.0};
  double inv_log_gamma_{0.0};
  std::map<int, std::uint64_t> buckets_;
  std::uint64_t zeros_{0};
  std::uint64_t count_{0};
  double sum_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace capgpu::telemetry
