// One telemetry context: the six sinks library instrumentation writes to.
//
// Instrumentation never holds a sink. It asks for the thread's current one
// (MetricsRegistry::current(), Tracer::current(), SloRegistry::current(),
// FlightRecorder::current(), ResilienceRegistry::current(),
// EnergyRegistry::current()), and every such accessor reads the Context
// bound on the calling thread, or the process-wide Context::global() when
// none is. A parallel scenario binds a private child context for its
// lifetime; merge_into() then folds the child into its parent. Merging
// children in scenario order reproduces a sequential run byte for byte,
// which makes every export identical for any --jobs / --shards value.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "telemetry/energy.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resilience.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/trace.hpp"

namespace capgpu::telemetry {

class Context {
 public:
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// An empty context that records like `parent`: its tracer and flight
  /// recorder take the parent's enabled flags and flight ring capacity.
  /// The scope for a scenario whose telemetry merges into `parent`.
  [[nodiscard]] static std::unique_ptr<Context> child_of(
      const Context& parent);

  /// The process-wide context.
  static Context& global();
  /// The context bound on this thread (innermost Binding), global()
  /// otherwise.
  static Context& current();

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] SloRegistry& slo() { return slo_; }
  [[nodiscard]] FlightRecorder& flight() { return flight_; }
  [[nodiscard]] ResilienceRegistry& resilience() { return resilience_; }
  [[nodiscard]] EnergyRegistry& energy() { return energy_; }

  /// Folds this context into `parent`: metrics accumulate, and trace
  /// events plus every pid-tagged record shift past the parent's pids so
  /// they keep pointing at their own rig. Call from one thread at a time,
  /// in scenario order.
  void merge_into(Context& parent);

  /// Makes a context the calling thread's current one for the binding's
  /// lifetime (RAII, stack-nestable).
  class Binding {
   public:
    explicit Binding(Context& context);
    ~Binding();
    Binding(const Binding&) = delete;
    Binding& operator=(const Binding&) = delete;

   private:
    Context* previous_;
  };

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  SloRegistry slo_;
  FlightRecorder flight_;
  ResilienceRegistry resilience_;
  EnergyRegistry energy_;
};

/// Appends `from` to `to` with every record's pid shifted by `pid_offset`
/// (the parent tracer's pid count captured before its own merge): the
/// merge the SLO, resilience and energy registries share.
template <typename Record>
void append_shifted(std::vector<Record>& to, const std::vector<Record>& from,
                    int pid_offset) {
  to.reserve(to.size() + from.size());
  for (Record record : from) {
    record.pid += pid_offset;
    to.push_back(std::move(record));
  }
}

}  // namespace capgpu::telemetry
