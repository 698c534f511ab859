// Proves the steady-state control period performs zero heap allocations:
// after the first few periods have sized the persistent workspaces, every
// subsequent MpcController::step must run entirely in preallocated buffers.
//
// The binary overrides global operator new/delete to count allocations, so
// it lives in its own test executable (ctest label `perf`) and must never be
// linked together with the other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "control/mpc.hpp"
#include "control/power_model.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long long> g_allocations{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t size) {
  note_allocation();
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return checked_malloc(size); }
void* operator new[](std::size_t size) { return checked_malloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace capgpu::control {
namespace {

struct CountingScope {
  CountingScope() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountingScope() { g_counting.store(false, std::memory_order_relaxed); }
  [[nodiscard]] long long count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

MpcController make_controller(const LinearPowerModel& plant) {
  const std::vector<DeviceRange> devices = {
      {DeviceKind::kCpu, 1000.0, 2400.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
  };
  return MpcController(MpcConfig{}, devices, plant, Watts{900.0});
}

TEST(ControlAllocations, SteadyStateStepIsAllocationFree) {
  const LinearPowerModel plant({0.05, 0.21, 0.21}, 300.0);
  MpcController ctrl = make_controller(plant);

  std::vector<double> f = {2400.0, 1350.0, 1350.0};
  // Warm-up periods size every persistent buffer (QP workspace, decision
  // vectors) and settle the loop onto its fixed point.
  for (int k = 0; k < 8; ++k) {
    const MpcDecision& d = ctrl.step(plant.predict(f), f);
    f = d.target_freqs_mhz;  // same size: copy-assign reuses capacity
  }

  for (int k = 0; k < 50; ++k) {
    const Watts measured = plant.predict(f);
    long long allocations = 0;
    {
      CountingScope scope;
      const MpcDecision& d = ctrl.step(measured, f);
      allocations = scope.count();
      f = d.target_freqs_mhz;
    }
    ASSERT_EQ(allocations, 0) << "period " << k << " allocated";
  }
}

TEST(ControlAllocations, DisturbedPeriodsStayAllocationFree) {
  // Power-measurement disturbances change the QP's right-hand side and can
  // flip the active set, driving dual steps that add and drop rows — those
  // must be allocation-free too, not just interior periods.
  const LinearPowerModel plant({0.05, 0.21, 0.21}, 300.0);
  MpcController ctrl = make_controller(plant);

  std::vector<double> f = {2400.0, 1350.0, 1350.0};
  for (int k = 0; k < 8; ++k) {
    const MpcDecision& d = ctrl.step(plant.predict(f), f);
    f = d.target_freqs_mhz;
  }

  // Deterministic +-60 W disturbance pattern (no RNG inside the scope).
  const double kicks[] = {60.0, -45.0, 0.0, 120.0, -90.0, 30.0, -15.0};
  for (int k = 0; k < 70; ++k) {
    const Watts measured{plant.predict(f).value + kicks[k % 7]};
    long long allocations = 0;
    {
      CountingScope scope;
      const MpcDecision& d = ctrl.step(measured, f);
      allocations = scope.count();
      f = d.target_freqs_mhz;
    }
    ASSERT_EQ(allocations, 0) << "period " << k << " allocated";
  }
}

}  // namespace
}  // namespace capgpu::control
