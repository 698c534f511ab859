#include "runner/scenario_runner.hpp"

#include <exception>
#include <memory>

#include "telemetry/context.hpp"

namespace capgpu::runner {

ScenarioRunner::ScenarioRunner(ScenarioOptions options)
    : jobs_(options.jobs == 0 ? ThreadPool::hardware_jobs() : options.jobs) {}

void ScenarioRunner::run(std::size_t count,
                         const std::function<void(std::size_t)>& body) {
  if (count == 0) return;

  // Merge target: the context current on the launching thread (the
  // process-wide one in a bench, a test's private one when it bound its
  // own).
  telemetry::Context& parent = telemetry::Context::current();

  struct ScenarioState {
    std::unique_ptr<telemetry::Context> telemetry;
    std::exception_ptr error;
    bool ran{false};
  };
  std::vector<ScenarioState> states(count);

  // Every scenario runs even when another fails: which scenarios executed
  // (and therefore which error is rethrown and what telemetry merges) must
  // not depend on completion timing, or the error path would differ
  // between --jobs values.
  auto run_one = [&](std::size_t i) {
    ScenarioState& state = states[i];
    state.telemetry = telemetry::Context::child_of(parent);
    telemetry::Context::Binding bind(*state.telemetry);
    state.ran = true;
    try {
      body(i);
    } catch (...) {
      state.error = std::current_exception();
    }
  };

  if (jobs_ <= 1) {
    for (std::size_t i = 0; i < count; ++i) run_one(i);
  } else {
    ThreadPool pool(jobs_ < count ? jobs_ : count);
    pool.parallel_for(count, run_one);
  }

  // Ordered merge-on-join: scenario order, stopping at the lowest failed
  // index — exactly the telemetry a sequential run would have accumulated
  // before dying there.
  for (std::size_t i = 0; i < count; ++i) {
    ScenarioState& state = states[i];
    if (state.error) std::rethrow_exception(state.error);
    if (state.ran) {
      state.telemetry->merge_into(parent);
      ++scenarios_merged_;
    }
  }
}

std::atomic<std::uint64_t> ScenarioRunner::scenarios_merged_{0};

std::uint64_t ScenarioRunner::scenarios_executed() {
  return scenarios_merged_.load(std::memory_order_relaxed);
}

}  // namespace capgpu::runner
