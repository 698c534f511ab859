#include "telemetry/context.hpp"

namespace capgpu::telemetry {

namespace {
thread_local Context* t_current = nullptr;
}  // namespace

std::unique_ptr<Context> Context::child_of(const Context& parent) {
  auto child = std::make_unique<Context>();
  child->tracer_.set_enabled(parent.tracer_.enabled());
  child->flight_.set_enabled(parent.flight_.enabled());
  child->flight_.set_capacity(parent.flight_.capacity());
  return child;
}

Context& Context::global() {
  static Context context;
  return context;
}

Context& Context::current() {
  return t_current != nullptr ? *t_current : global();
}

void Context::merge_into(Context& parent) {
  // Capture the parent's pid count before the tracer merge shifts this
  // context's events past it: SLO entries, flight records, resilience
  // scorecards and energy entries need the same offset.
  const int pid_offset = parent.tracer_.pid();
  parent.metrics_.merge_from(metrics_);
  parent.tracer_.merge_from(std::move(tracer_));
  parent.slo_.merge_from(slo_, pid_offset);
  parent.flight_.merge_from(std::move(flight_), pid_offset);
  parent.resilience_.merge_from(resilience_, pid_offset);
  parent.energy_.merge_from(energy_, pid_offset);
}

Context::Binding::Binding(Context& context) : previous_(t_current) {
  t_current = &context;
}

Context::Binding::~Binding() { t_current = previous_; }

// The per-sink accessors instrumentation calls.
MetricsRegistry& MetricsRegistry::global() {
  return Context::global().metrics();
}
MetricsRegistry& MetricsRegistry::current() {
  return Context::current().metrics();
}
Tracer& Tracer::global() { return Context::global().tracer(); }
Tracer& Tracer::current() { return Context::current().tracer(); }
SloRegistry& SloRegistry::global() { return Context::global().slo(); }
SloRegistry& SloRegistry::current() { return Context::current().slo(); }
FlightRecorder& FlightRecorder::global() { return Context::global().flight(); }
FlightRecorder& FlightRecorder::current() {
  return Context::current().flight();
}
ResilienceRegistry& ResilienceRegistry::global() {
  return Context::global().resilience();
}
ResilienceRegistry& ResilienceRegistry::current() {
  return Context::current().resilience();
}
EnergyRegistry& EnergyRegistry::global() { return Context::global().energy(); }
EnergyRegistry& EnergyRegistry::current() {
  return Context::current().energy();
}

}  // namespace capgpu::telemetry
