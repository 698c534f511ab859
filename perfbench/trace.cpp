#include "trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

int Trace::open(const char* name) {
  const double now = seconds_between(origin_, Clock::now());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now, now, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Trace::close(int id) {
  // ScopedSpan closes from a destructor, so misuse cannot throw.
  if (open_.empty() || open_.back() != id) {
    std::fputs("perfbench: spans must close innermost first\n", stderr);
    std::abort();
  }
  spans_[static_cast<std::size_t>(id)].end_s =
      seconds_between(origin_, Clock::now());
  open_.pop_back();
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

double Trace::total(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::map<std::string, double> Trace::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child[i];
  }
  return out;
}

void Trace::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d}\n",
                 s.name, s.start_s, s.end_s, s.parent);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

TimedController::TimedController(
    capgpu::baselines::IServerPowerController& inner, Trace& trace)
    : inner_(inner),
      capgpu_(dynamic_cast<const capgpu::core::CapGpuController*>(&inner)),
      trace_(trace) {}

capgpu::baselines::ControlOutputs TimedController::control(
    const capgpu::baselines::ControlInputs& inputs,
    const std::vector<double>& current_freqs_mhz) {
  capgpu::baselines::ControlOutputs out;
  {
    ScopedSpan span(&trace_, "control.step");
    out = inner_.control(inputs, current_freqs_mhz);
  }
  if (capgpu_ != nullptr) {
    const capgpu::control::MpcDecision& d = capgpu_->last_decision();
    LayerCounts& c = trace_.counts();
    c.capgpu_steps += 1.0;
    c.qp_iterations += static_cast<double>(d.qp_iterations);
    if (!d.qp_converged) c.qp_nonconverged += 1.0;
    if (d.fast_path_hit) c.fast_path_hits += 1.0;
  }
  return out;
}

}  // namespace perfbench
