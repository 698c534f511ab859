// Reused state must never change an answer. These tests pin a workspace
// solve to the allocating solve, and a long-lived controller to a fresh one,
// bit for bit: the bench byte-identity contract and the replay tool (which
// re-solves every record on a fresh controller) rest on this.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "control/mpc.hpp"
#include "control/qp.hpp"

namespace capgpu::control {
namespace {

using linalg::Matrix;
using linalg::Vector;

QpProblem random_box_qp(std::size_t n, capgpu::Rng& rng) {
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  QpProblem p;
  p.h = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) += 1.0;
  p.g = Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.uniform(-5.0, 5.0);
  p.c = Matrix(2 * n, n);
  p.b = Vector(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    p.c(2 * i, i) = 1.0;
    p.b[2 * i] = 1.0;  // x <= 1
    p.c(2 * i + 1, i) = -1.0;
    p.b[2 * i + 1] = 1.0;  // x >= -1
  }
  return p;
}

TEST(QpWarm, WorkspaceSolveMatchesAllocatingSolve) {
  capgpu::Rng rng(11);
  QpSolver solver;
  QpWorkspace ws;  // deliberately reused across sizes and trials
  for (const std::size_t n : {1u, 2u, 4u, 6u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const QpProblem p = random_box_qp(n, rng);
      const QpSolution ref = solver.solve(p);
      solver.solve(p, ws);
      ASSERT_EQ(ws.converged(), ref.converged);
      EXPECT_EQ(ws.iterations(), ref.iterations);
      EXPECT_EQ(ws.objective(), ref.objective);
      EXPECT_EQ(ws.active_set(), ref.active_set);
      EXPECT_EQ(ws.multipliers(), ref.multipliers);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ws.x()[i], ref.x[i]);
    }
  }
}

TEST(QpWarm, MpcWarmStateMatchesStatelessControllerBitwise) {
  // A long-lived controller carries no solver state between periods, so
  // it must command the bits of a controller rebuilt from scratch every
  // period; replay rests on the same property.
  const std::vector<DeviceRange> devices = {
      {DeviceKind::kCpu, 1000.0, 2400.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
  };
  const LinearPowerModel plant({0.05, 0.21, 0.21}, 300.0);
  const Watts cap{900.0};
  MpcConfig cfg;

  MpcController persistent(cfg, devices, plant, cap);
  std::vector<double> f = {2400.0, 1350.0, 1350.0};
  std::vector<double> f_fresh = f;
  for (int k = 0; k < 60; ++k) {
    const Watts p = plant.predict(f);
    const MpcDecision warm = persistent.step(p, f);
    MpcController stateless(cfg, devices, plant, cap);
    const MpcDecision cold = stateless.step(plant.predict(f_fresh), f_fresh);
    for (std::size_t j = 0; j < devices.size(); ++j) {
      ASSERT_EQ(warm.target_freqs_mhz[j], cold.target_freqs_mhz[j])
          << "period " << k << " device " << j;
      ASSERT_EQ(warm.deltas_mhz[j], cold.deltas_mhz[j]);
    }
    ASSERT_EQ(warm.predicted_power_watts, cold.predicted_power_watts);
    f = warm.target_freqs_mhz;
    f_fresh = cold.target_freqs_mhz;
  }
}

}  // namespace
}  // namespace capgpu::control
