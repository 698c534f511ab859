// The benchmark's three seeded workloads.
//
//  - testbed-sweep: the paper's Fig 6 grid (7 set points x 5 policies) on
//    the 3xV100 testbed, >=150 periods per scenario, run serially through
//    runner::ScenarioRunner. Plant-bound: the DES kernel, pipeline,
//    monitors, HAL and telemetry do nearly all host work.
//  - budget-slash-8gpu: 8-GPU rigs under CapGPU whose cap drops below the
//    all-floor draw for the middle half of the run. Control-bound: the QP
//    runs to its iteration cap on every railed period.
//  - fleet-brownout-256: a row-PDU brownout campaign on a 256-rig fleet
//    (fleet::run_fleet_campaign, 2 workers, open-loop arrivals). The only
//    workload that reaches fleet, rack, faults and the thread pool.
//
// Each workload separates set-up (the inputs a user builds once before the
// first simulated period) from one timed repetition. A repetition's
// SimOutcome is a pure function of the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Simulated results of one repetition, with its output-check tally.
/// Every field repeats bit for bit for a fixed seed; a perf-only change
/// must leave all of them unchanged.
struct SimOutcome {
  double rig_periods{0.0};    ///< 4 s control periods simulated, all rigs
  double rig_seconds{0.0};    ///< simulated seconds summed over rigs
  double cap_err_sum_w{0.0};  ///< sum of |power - cap| over steady periods
  double cap_err_periods{0.0};
  double images{0.0};
  double energy_j{0.0};       ///< metered energy, all rigs
  double slo_checked{0.0};
  double slo_missed{0.0};
  std::size_t attempted{0};   ///< scenarios, rig runs, campaigns, checks
  std::size_t failed{0};
  std::vector<std::string> failures;  ///< one line per failed operation

  [[nodiscard]] double cap_err_w() const {
    return cap_err_sum_w / cap_err_periods;
  }
  [[nodiscard]] double sim_images_per_s() const { return images / rig_seconds; }
  [[nodiscard]] double joules_per_image() const { return energy_j / images; }

  /// Records one operation; `ok` false counts it as failed with `what`.
  void check(bool ok, const std::string& what);
  /// Adds another outcome's quantities and operations to this one.
  void merge(const SimOutcome& other);

  bool operator==(const SimOutcome&) const = default;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs of the timed phase: the host work a user pays
  /// before the first simulated period.
  virtual void setup() = 0;

  /// One timed repetition. A null trace runs untraced.
  [[nodiscard]] virtual SimOutcome run(Trace* trace) = 0;

  /// Threads a repetition keeps busy.
  [[nodiscard]] virtual std::size_t threads() const { return 1; }

  /// How closely the workload's host speed follows the speed probe's:
  /// host seconds are scaled by (reference probe / probe)^probe_exponent().
  [[nodiscard]] virtual double probe_exponent() const { return 1.0; }

  /// Traced-only reruns (the fleet's interleaved short, 2-worker, 1-worker
  /// and serial runs), checked against `reference`, the outcome of run().
  /// Their operations land in `checks`.
  virtual void trace_extras(Trace& trace, const SimOutcome& reference,
                            SimOutcome& checks) {
    (void)trace;
    (void)reference;
    (void)checks;
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
