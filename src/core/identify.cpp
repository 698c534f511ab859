#include "core/identify.hpp"

#include "common/error.hpp"

namespace capgpu::core {

control::IdentifiedModel run_system_identification(
    sim::Engine& engine, hal::ServerHal& hal, IdentifyOptions options,
    const std::function<void()>& between_steps) {
  CAPGPU_REQUIRE(options.levels_per_device >= 2,
                 "need at least two levels per sweep");
  const std::size_t n = hal.device_count();
  control::SystemIdentifier identifier(n);

  const auto run_for = [&](double seconds) {
    engine.run_until(engine.now() + seconds);
    if (between_steps) between_steps();
  };
  auto hold_level = [&](std::size_t j) {
    const auto& table = hal.device_freqs(DeviceId{static_cast<std::uint32_t>(j)});
    const double f = table.min().value +
                     options.hold_fraction *
                         (table.max().value - table.min().value);
    return Megahertz{f};
  };

  // Park every device at its hold level first.
  for (std::size_t j = 0; j < n; ++j) {
    hal.set_device_frequency(DeviceId{static_cast<std::uint32_t>(j)},
                             hold_level(j));
  }
  run_for(options.settle.value);

  for (std::size_t swept = 0; swept < n; ++swept) {
    const DeviceId swept_id{static_cast<std::uint32_t>(swept)};
    const auto& table = hal.device_freqs(swept_id);
    for (std::size_t level = 0; level < options.levels_per_device; ++level) {
      const double frac = static_cast<double>(level) /
                          static_cast<double>(options.levels_per_device - 1);
      const Megahertz target{table.min().value +
                             frac * (table.max().value - table.min().value)};
      hal.set_device_frequency(swept_id, target);
      run_for(options.settle.value);
      run_for(options.measure.value);

      std::vector<double> freqs(n);
      for (std::size_t j = 0; j < n; ++j) {
        freqs[j] =
            hal.device_frequency(DeviceId{static_cast<std::uint32_t>(j)}).value;
      }
      identifier.add_sample(freqs, hal.power_meter().average(options.measure));
    }
    // Return the swept device to its hold level before the next sweep.
    hal.set_device_frequency(swept_id, hold_level(swept));
    run_for(options.settle.value);
  }
  return identifier.fit();
}

}  // namespace capgpu::core
