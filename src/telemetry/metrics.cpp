#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "telemetry/sketch.hpp"

namespace capgpu::telemetry {

// Out of line so unique_ptr<QuantileSketch> sees the complete type.
Instrument::Instrument() = default;
Instrument::~Instrument() = default;

namespace {

bool valid_identifier(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(s.front())) return false;
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

Labels canonical_labels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    CAPGPU_REQUIRE(valid_identifier(sorted[i].first),
                   "invalid label key: " + sorted[i].first);
    CAPGPU_REQUIRE(i == 0 || sorted[i - 1].first != sorted[i].first,
                   "duplicate label key: " + sorted[i].first);
  }
  return sorted;
}

std::string serialize(const Labels& canonical) {
  std::string key;
  for (const auto& [k, v] : canonical) {
    key += k;
    key += '\x1f';  // unit separator: cannot appear in a label key
    key += v;
    key += '\x1e';
  }
  return key;
}

}  // namespace

LogLinearHistogram::LogLinearHistogram(HistogramSpec spec) : spec_(spec) {
  CAPGPU_REQUIRE(spec.min_bound > 0.0, "histogram min_bound must be > 0");
  CAPGPU_REQUIRE(spec.decades >= 1, "histogram needs at least one decade");
  CAPGPU_REQUIRE(spec.buckets_per_decade >= 1,
                 "histogram needs at least one bucket per decade");
  bounds_.reserve(1 + spec.decades * spec.buckets_per_decade);
  bounds_.push_back(spec.min_bound);
  for (std::size_t d = 0; d < spec.decades; ++d) {
    const double lo = spec.min_bound * std::pow(10.0, static_cast<double>(d));
    for (std::size_t i = 1; i <= spec.buckets_per_decade; ++i) {
      bounds_.push_back(lo * (1.0 + 9.0 * static_cast<double>(i) /
                                        static_cast<double>(
                                            spec.buckets_per_decade)));
    }
  }
  counts_.assign(bounds_.size() + 1, 0);
}

std::size_t LogLinearHistogram::bucket_index(double x) const noexcept {
  std::size_t idx = 0;
  if (x > spec_.min_bound) {
    // O(1) locate via the decade exponent, then a float-safety fix-up of at
    // most one step so `le` bounds stay exactly inclusive.
    const double rel = x / spec_.min_bound;
    double d = std::floor(std::log10(rel));
    d = std::clamp(d, 0.0, static_cast<double>(spec_.decades - 1));
    const double lo = spec_.min_bound * std::pow(10.0, d);
    const double pos = (x / lo - 1.0) * static_cast<double>(
                                            spec_.buckets_per_decade) / 9.0;
    const auto i = static_cast<std::ptrdiff_t>(std::ceil(pos));
    auto raw = static_cast<std::ptrdiff_t>(d) *
                   static_cast<std::ptrdiff_t>(spec_.buckets_per_decade) +
               std::clamp<std::ptrdiff_t>(
                   i, 0,
                   static_cast<std::ptrdiff_t>(spec_.buckets_per_decade));
    idx = static_cast<std::size_t>(std::max<std::ptrdiff_t>(raw, 0));
    while (idx > 0 && x <= bounds_[idx - 1]) --idx;
    while (idx < bounds_.size() && x > bounds_[idx]) ++idx;
  }
  return idx;
}

void LogLinearHistogram::observe(double x) noexcept {
  ++counts_[bucket_index(x)];
  sum_ += x;
  ++count_;
}

void LogLinearHistogram::merge_from(const LogLinearHistogram& other) {
  CAPGPU_REQUIRE(bounds_ == other.bounds_,
                 "cannot merge histograms with different bucket layouts");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const Family* family : other.families()) {
    for (const auto& [key, series] : family->series) {
      Instrument& mine =
          find_or_create(family->name, family->help, family->type,
                         series->labels);
      switch (family->type) {
        case MetricType::kCounter:
          mine.counter.inc(series->counter.value());
          break;
        case MetricType::kGauge:
          mine.gauge.set(series->gauge.value());
          break;
        case MetricType::kHistogram:
          if (series->histogram) {
            if (!mine.histogram) {
              mine.histogram = std::make_unique<LogLinearHistogram>(
                  series->histogram->spec());
            }
            mine.histogram->merge_from(*series->histogram);
          }
          break;
        case MetricType::kSketch:
          if (series->sketch) {
            if (!mine.sketch) {
              mine.sketch =
                  std::make_unique<QuantileSketch>(series->sketch->spec());
            }
            mine.sketch->merge_from(*series->sketch);
          }
          break;
      }
    }
  }
}

Instrument& MetricsRegistry::find_or_create(const std::string& name,
                                            const std::string& help,
                                            MetricType type,
                                            const Labels& labels) {
  CAPGPU_REQUIRE(valid_identifier(name), "invalid metric name: " + name);
  auto it = families_.find(name);
  if (it == families_.end()) {
    auto family = std::make_unique<Family>();
    family->name = name;
    family->help = help;
    family->type = type;
    order_.push_back(family.get());
    it = families_.emplace(name, std::move(family)).first;
  }
  Family& family = *it->second;
  CAPGPU_REQUIRE(family.type == type,
                 "metric already registered with a different type: " + name);

  Labels canonical = canonical_labels(labels);
  const std::string key = serialize(canonical);
  auto sit = family.series.find(key);
  if (sit == family.series.end()) {
    auto inst = std::make_unique<Instrument>();
    inst->labels = std::move(canonical);
    inst->type = type;
    sit = family.series.emplace(key, std::move(inst)).first;
  }
  return *sit->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  return find_or_create(name, help, MetricType::kCounter, labels).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  return find_or_create(name, help, MetricType::kGauge, labels).gauge;
}

LogLinearHistogram& MetricsRegistry::histogram(const std::string& name,
                                               const std::string& help,
                                               HistogramSpec spec,
                                               const Labels& labels) {
  Instrument& inst =
      find_or_create(name, help, MetricType::kHistogram, labels);
  if (!inst.histogram) {
    inst.histogram = std::make_unique<LogLinearHistogram>(spec);
  }
  return *inst.histogram;
}

QuantileSketch& MetricsRegistry::sketch(const std::string& name,
                                        const std::string& help,
                                        const Labels& labels) {
  Instrument& inst = find_or_create(name, help, MetricType::kSketch, labels);
  if (!inst.sketch) {
    inst.sketch = std::make_unique<QuantileSketch>();
  }
  return *inst.sketch;
}

std::vector<const MetricsRegistry::Family*> MetricsRegistry::families() const {
  return {order_.begin(), order_.end()};
}

std::vector<std::string> MetricsRegistry::metric_names() const {
  std::vector<std::string> names;
  names.reserve(order_.size());
  for (const Family* f : order_) names.push_back(f->name);
  return names;
}

std::size_t MetricsRegistry::series_count() const {
  std::size_t n = 0;
  for (const Family* f : order_) n += f->series.size();
  return n;
}

void MetricsRegistry::clear() {
  order_.clear();
  families_.clear();
}

}  // namespace capgpu::telemetry
