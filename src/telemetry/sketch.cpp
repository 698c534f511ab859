#include "telemetry/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <mutex>

#include "common/error.hpp"

namespace capgpu::telemetry {

namespace {
/// Biased exponent of 2^12 s: the table stops below it (an hour-long stage
/// is off the table and takes the libm key).
constexpr std::uint64_t kTableTopExponent = 1023 + 12;
/// At most this many binades below the top, whatever min_trackable says,
/// so a tiny floor cannot make the table large.
constexpr std::uint64_t kTableMaxBinades = 48;
/// Quantized values per binade (14 mantissa bits).
constexpr std::uint64_t kValuesPerBinade = std::uint64_t{1} << 14;
}  // namespace

QuantileSketch::QuantileSketch(QuantileSketchSpec spec) : spec_(spec) {
  CAPGPU_REQUIRE(spec.relative_error > 0.0 && spec.relative_error < 1.0,
                 "sketch relative error must be in (0, 1)");
  CAPGPU_REQUIRE(spec.min_trackable > 0.0,
                 "sketch min_trackable must be positive");
  gamma_ = (1.0 + spec.relative_error) / (1.0 - spec.relative_error);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
  keys_ = shared_key_lookup(spec_, inv_log_gamma_);
}

struct QuantileSketch::KeyTable {
  std::uint64_t first{0};
  std::uint64_t size{0};
  std::vector<std::int32_t> cells;
};

QuantileSketch::KeyLookup QuantileSketch::shared_key_lookup(
    const QuantileSketchSpec& spec, double inv_log_gamma) {
  struct Entry {
    double relative_error;
    double min_trackable;
    KeyTable table;
  };
  struct Registry {
    std::mutex mutex;
    std::deque<Entry> entries;  // a deque: growth never moves a table
  };
  // Never destroyed: sketches in static storage may still look keys up
  // while exit-time telemetry flushes run.
  static Registry& registry = *new Registry;
  const std::lock_guard<std::mutex> lock(registry.mutex);
  std::deque<Entry>& entries = registry.entries;
  const Entry* found = nullptr;
  for (const Entry& e : entries) {
    if (e.relative_error == spec.relative_error &&
        e.min_trackable == spec.min_trackable) {
      found = &e;
      break;
    }
  }
  if (found == nullptr) {
    found = &entries.emplace_back(Entry{spec.relative_error,
                                        spec.min_trackable,
                                        build_key_table(spec, inv_log_gamma)});
  }
  const KeyTable& t = found->table;
  return KeyLookup{t.cells.data(), t.first, t.size, inv_log_gamma};
}

QuantileSketch::KeyTable QuantileSketch::build_key_table(
    const QuantileSketchSpec& spec, double inv_log_gamma) {
  const std::uint64_t floor_exponent =
      std::bit_cast<std::uint64_t>(spec.min_trackable) >> 52;
  const std::uint64_t lo =
      std::max(floor_exponent, kTableTopExponent - kTableMaxBinades);
  if (lo >= kTableTopExponent) return {};
  KeyTable t;
  t.first = lo * kValuesPerBinade;
  t.size = (kTableTopExponent - lo) * kValuesPerBinade;
  t.cells.resize(static_cast<std::size_t>(t.size >> kCellBits));
  const auto key = [inv_log_gamma](std::uint64_t index) {
    return log_key(std::bit_cast<double>(index << kQuantBits), inv_log_gamma);
  };
  constexpr std::int32_t kCellValues = std::int32_t{1} << kCellBits;
  for (std::size_t c = 0; c < t.cells.size(); ++c) {
    const std::uint64_t base = t.first + (std::uint64_t{c} << kCellBits);
    const int first = key(base);
    const int last = key(base + kCellValues - 1);
    std::int32_t edge = kCellValues;  // none: past the cell's last value
    if (last == first + 1) {
      // Keys are monotone in the value: bisect for the first value whose
      // key is `last`.
      std::int32_t below = 0;                // key == first
      std::int32_t above = kCellValues - 1;  // key == last
      while (above - below > 1) {
        const std::int32_t mid = (below + above) / 2;
        (key(base + static_cast<std::uint64_t>(mid)) == first ? below
                                                               : above) = mid;
      }
      edge = above;
    } else if (last != first) {
      return {};  // buckets narrower than a cell: two edges fit in one
    }
    t.cells[c] = first * 128 + 128 - edge;
  }
  return t;
}

int QuantileSketch::log_key(double x, double inv_log_gamma) noexcept {
  // Bucket i covers (gamma^(i-1), gamma^i]: ceil of the log-gamma index.
  return static_cast<int>(std::ceil(std::log(x) * inv_log_gamma - 1e-9));
}

double QuantileSketch::bucket_value(int key) const noexcept {
  // Midpoint estimate 2*gamma^i/(gamma+1): relative error <= alpha for any
  // value inside the bucket.
  return 2.0 * std::pow(gamma_, static_cast<double>(key)) / (gamma_ + 1.0);
}

// Kept out of line (cold): inlining the growth into observe_span_record's
// loop would spill the hot locals around every value.
__attribute__((noinline)) void QuantileSketch::grow_to(int key) noexcept {
  if (buckets_.empty()) {
    buckets_.assign(1, 0);
    offset_ = key;
    return;
  }
  if (key < offset_) {
    buckets_.insert(buckets_.begin(), static_cast<std::size_t>(offset_ - key),
                    0);
    offset_ = key;
  } else if (key >= offset_ + static_cast<int>(buckets_.size())) {
    buckets_.resize(static_cast<std::size_t>(key - offset_) + 1, 0);
  }
}

void QuantileSketch::merge_extremes(double qmin, double qmax,
                                    std::uint64_t zeros) noexcept {
  if (qmin < min_) min_ = qmin;
  if (qmax > max_) max_ = qmax;
  if (zeros != 0) {
    if (min_ > 0.0) min_ = 0.0;
    if (max_ < 0.0) max_ = 0.0;  // every observation so far was zero
  }
}

double QuantileSketch::observe_span_record(const double* v, std::size_t n,
                                           SpanRecord& rec) noexcept {
  rec.quant.resize(n);
  rec.n = n;
  // Everything the sketch accumulates on the span path comes from the
  // quantized values, so any span with the same quantized fingerprint
  // contributes identically whether observed here or replayed via
  // apply_record. One pass does all of it: quantize, fingerprint, sum,
  // extremes and bucket increment. The key function and the bucket range
  // live in locals (refreshed only when the range grows), so no store in
  // the loop forces a reload of sketch members.
  std::uint64_t* quant = rec.quant.data();
  const double floor = spec_.min_trackable;
  const KeyLookup keys = keys_;
  std::uint64_t* buckets = buckets_.data();
  std::size_t bucket_span = buckets_.size();
  int offset = offset_;
  double sum = 0.0;
  std::uint64_t zeros = 0;
  // min/max from the quantized values: under-reads the exact ones by at
  // most 2^-14 relative, far inside the sketch's error bound.
  double qmin = std::numeric_limits<double>::infinity();
  double qmax = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t q = quantized_bits(v[i]);
    quant[i] = q;
    const double qx = std::bit_cast<double>(q);
    sum += qx;
    if (qx < floor) {
      ++zeros;
      continue;
    }
    if (qx < qmin) qmin = qx;
    if (qx > qmax) qmax = qx;
    const int key = keys(q);
    auto b = static_cast<std::size_t>(key - offset);
    if (b >= bucket_span) {
      grow_to(key);
      buckets = buckets_.data();
      bucket_span = buckets_.size();
      offset = offset_;
      b = static_cast<std::size_t>(key - offset);
    }
    ++buckets[b];
  }
  rec.zeros = zeros;
  rec.quant_sum = sum;
  rec.qmin = qmin;
  rec.qmax = qmax;
  if (n == 0) return 0.0;
  count_ += n;
  sum_ += sum;
  zero_count_ += zeros;
  merge_extremes(qmin, qmax, zeros);
  return sum;
}

void QuantileSketch::apply_record(const SpanRecord& rec,
                                  std::uint64_t k) noexcept {
  if (k == 0 || rec.n == 0) return;
  count_ += k * rec.n;
  sum_ += static_cast<double>(k) * rec.quant_sum;
  zero_count_ += k * rec.zeros;
  const double floor = spec_.min_trackable;
  for (const std::uint64_t q : rec.quant) {
    if (std::bit_cast<double>(q) < floor) continue;
    add(keys_(q), k);
  }
  merge_extremes(rec.qmin, rec.qmax, rec.zeros);
}

double QuantileSketch::quantile(double q) const {
  CAPGPU_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count_ == 0) return 0.0;
  // Rank of the q-quantile in the sorted sample (0-based, nearest-rank).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  if (rank < zero_count_) return 0.0;
  std::uint64_t cumulative = zero_count_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative > rank) {
      return bucket_value(offset_ + static_cast<int>(i));
    }
  }
  return max();  // float fall-through safety: the top bucket
}

void QuantileSketch::merge_from(const QuantileSketch& other) {
  CAPGPU_REQUIRE(spec_.relative_error == other.spec_.relative_error &&
                     spec_.min_trackable == other.spec_.min_trackable,
                 "cannot merge sketches with different specs");
  if (other.count_ == 0) return;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  if (!other.buckets_.empty()) {
    // One growth to the union range up front instead of a grow_to (and a
    // possible reallocation + shift) per occupied bucket.
    grow_to(other.offset_);
    grow_to(other.offset_ + static_cast<int>(other.buckets_.size()) - 1);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    if (other.buckets_[i] == 0) continue;
    const int key = other.offset_ + static_cast<int>(i);
    buckets_[static_cast<std::size_t>(key - offset_)] += other.buckets_[i];
  }
}

}  // namespace capgpu::telemetry
