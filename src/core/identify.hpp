// The system-identification procedure (paper Sec 4.2, "Example").
//
// With the workload running, each device's frequency is swept through a set
// of levels while all other devices hold a fixed level; at every operating
// point the loop settles, then records the average power over one control
// period. The collected (F, p) pairs go through least squares to produce
// the LinearPowerModel the controllers consume.
#pragma once

#include <functional>

#include "control/sysid.hpp"
#include "hal/server_hal.hpp"
#include "sim/engine.hpp"

namespace capgpu::core {

/// Sweep options.
struct IdentifyOptions {
  /// Levels per device sweep (spread uniformly across the device range).
  std::size_t levels_per_device{6};
  /// Settle time after each frequency change before measuring.
  Seconds settle{8.0};
  /// Measurement window (one control period).
  Seconds measure{4.0};
  /// Frequencies the non-swept devices hold, as a fraction of their range
  /// (the paper holds the CPU at 1.4 GHz while sweeping the GPU: ~0.3).
  double hold_fraction{0.3};
};

/// Runs the sweep on the simulated server (advances simulation time) and
/// fits the affine power model. Returns the identified model with its R^2.
/// `between_steps` runs after each run_until step, outside any event
/// (core::ServerRig trims its monitors there).
[[nodiscard]] control::IdentifiedModel run_system_identification(
    sim::Engine& engine, hal::ServerHal& hal, IdentifyOptions options,
    const std::function<void()>& between_steps);

}  // namespace capgpu::core
