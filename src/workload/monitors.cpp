#include "workload/monitors.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"

namespace capgpu::workload {

void SampleRing::grow() {
  const std::size_t cap = buf_.empty() ? 64 : buf_.size() * 2;
  std::vector<Entry> next(cap);
  for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
  buf_ = std::move(next);
  head_ = 0;
  mask_ = cap - 1;
}

void SampleRing::trim(sim::SimTime now, double horizon) {
  const double c = now - horizon;
  while (size_ > 0 && buf_[head_].time <= c) {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  if (c > trimmed_through_) {
    trimmed_through_ = c;
    horizon_ = horizon;
  }
}

void SampleRing::retention_error(double window) const {
  char msg[128];
  std::snprintf(msg, sizeof msg,
                "monitor query window of %g s reaches past the retained "
                "horizon of %g s",
                window, horizon_);
  throw InvalidArgument(msg);
}

ThroughputMonitor::ThroughputMonitor(double max_rate) : max_rate_(max_rate) {
  CAPGPU_REQUIRE(max_rate > 0.0, "max_rate must be positive");
}

double ThroughputMonitor::rate(sim::SimTime now, double window) const {
  CAPGPU_REQUIRE(window > 0.0, "window must be positive");
  const double cutoff = events_.cutoff(now, window);
  double sum = 0.0;
  for (std::size_t i = events_.size(); i-- > 0;) {
    const SampleRing::Entry& e = events_[i];
    if (e.time <= cutoff) break;
    sum += e.value;
  }
  return sum / window;
}

double ThroughputMonitor::normalized_rate(sim::SimTime now,
                                          double window) const {
  return std::clamp(rate(now, window) / max_rate_, 0.0, 1.0);
}

double LatencyMonitor::mean(sim::SimTime now, double window) const {
  const double cutoff = samples_.cutoff(now, window);
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = samples_.size(); i-- > 0;) {
    const SampleRing::Entry& s = samples_[i];
    if (s.time <= cutoff) break;
    sum += s.value;
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double LatencyMonitor::max(sim::SimTime now, double window) const {
  const double cutoff = samples_.cutoff(now, window);
  double m = 0.0;
  for (std::size_t i = samples_.size(); i-- > 0;) {
    const SampleRing::Entry& s = samples_[i];
    if (s.time <= cutoff) break;
    m = std::max(m, s.value);
  }
  return m;
}

std::size_t LatencyMonitor::count(sim::SimTime now, double window) const {
  const double cutoff = samples_.cutoff(now, window);
  std::size_t n = 0;
  for (std::size_t i = samples_.size(); i-- > 0;) {
    if (samples_[i].time <= cutoff) break;
    ++n;
  }
  return n;
}

std::size_t LatencyMonitor::misses(sim::SimTime now, double window,
                                   double threshold) const {
  const double cutoff = samples_.cutoff(now, window);
  std::size_t n = 0;
  for (std::size_t i = samples_.size(); i-- > 0;) {
    const SampleRing::Entry& s = samples_[i];
    if (s.time <= cutoff) break;
    if (s.value > threshold) ++n;
  }
  return n;
}

void LatencyMonitor::visit(sim::SimTime now, double window,
                           const std::function<void(double)>& fn) const {
  const double cutoff = samples_.cutoff(now, window);
  // Find the oldest in-window sample, then iterate forward.
  std::size_t first = samples_.size();
  while (first > 0 && samples_[first - 1].time > cutoff) --first;
  for (std::size_t i = first; i < samples_.size(); ++i) {
    fn(samples_[i].value);
  }
}

}  // namespace capgpu::workload
