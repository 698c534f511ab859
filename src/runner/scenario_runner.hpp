// Deterministic parallel execution of independent simulation scenarios.
//
// A scenario is one self-contained experiment: it builds its own
// sim::Engine + rig + controller from an index (and whatever seeds that
// index implies) and returns a value. ScenarioRunner executes N scenarios
// on a work-stealing pool and delivers results in scenario-index order, so
// a bench that renders its table from the returned vector prints the same
// bytes under `--jobs 1` and `--jobs 64`.
//
// Determinism contract (see docs/performance.md):
//  - results are merged in scenario-index order, never completion order;
//  - each scenario runs under a private telemetry::Context: all
//    MetricsRegistry::current() / Tracer::current() / ... instrumentation
//    lands in per-scenario sinks, which are folded into the launching
//    thread's context in index order after the join — every export is
//    byte-identical for any worker count;
//  - scenario bodies must not touch shared mutable state (no stdout —
//    return printable rows instead) and must derive all randomness from
//    their index;
//  - failures are deterministic too: every scenario runs even when
//    another throws, and after the join the exception of the *lowest*
//    failed index is rethrown with telemetry of scenarios 0..i-1 merged —
//    the same error and the same export no matter the worker count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "runner/thread_pool.hpp"

namespace capgpu::runner {

struct ScenarioOptions {
  /// Worker threads; 1 runs inline on the caller (no pool), 0 means
  /// ThreadPool::hardware_jobs().
  std::size_t jobs{1};
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioOptions options = {});

  /// Runs body(0..count-1), blocking until all scenarios finished.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Convenience: collects one result per scenario, in index order.
  /// The result type must be default-constructible and movable.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{0}))> {
    std::vector<decltype(fn(std::size_t{0}))> results(count);
    run(count, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// Scenarios executed and merged process-wide across all runners (bench
  /// run summaries, --summary-out).
  [[nodiscard]] static std::uint64_t scenarios_executed();

 private:
  std::size_t jobs_;
  static std::atomic<std::uint64_t> scenarios_merged_;
};

}  // namespace capgpu::runner
