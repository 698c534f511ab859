// Convergence contract of the MPC's QP over random controller states,
// weighted toward the railed regimes of paper Sec 4.4: every clock at its
// floor with power above the cap, every clock at its ceiling far below it,
// SLO floors clamped to thermal ceilings (collapsed boxes, whose +-row
// pairs add rows without adding rank), thermal ceilings dropped below the
// current clock, and partial rails. Each solve must
//   - converge within 2 * rows + 1 cold iterations, and re-certify in one
//     iteration when the same state repeats and its optimum is the start
//     vertex (the railed steady state);
//   - return a point inside every constraint row, to the solver's
//     scale-relative tolerance;
//   - command the bits of a fresh controller without the fast path;
//   - match the exhaustive enumeration when dim <= 6.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "control/mpc.hpp"
#include "control/qp.hpp"
#include "qp_brute_force.hpp"

namespace capgpu::control {
namespace {

enum class Regime {
  kFloorOverCap,
  kCeilingUnderCap,
  kCollapsedBox,
  kCeilingBelowClock,
  kPartialRails,
};

const char* regime_name(Regime r) {
  switch (r) {
    case Regime::kFloorOverCap: return "FloorOverCap";
    case Regime::kCeilingUnderCap: return "CeilingUnderCap";
    case Regime::kCollapsedBox: return "CollapsedBox";
    case Regime::kCeilingBelowClock: return "CeilingBelowClock";
    case Regime::kPartialRails: return "PartialRails";
  }
  return "?";
}

/// One random controller state: shape, plant, weights, overrides and the
/// (measured power, clocks) pair step() sees.
struct State {
  MpcConfig cfg;
  std::vector<DeviceRange> devices;
  std::vector<double> gains;
  std::vector<double> weights;
  std::vector<std::optional<double>> ceilings;  // thermal overrides
  std::vector<std::optional<double>> floors;    // SLO overrides
  std::vector<double> freqs;
  Watts set_point{0.0};
  Watts power{0.0};
  /// True when the optimum is known to be the start point: every decision
  /// variable is pinned by the rails the error pushes against.
  bool vertex{false};
};

/// Builds a controller for `s`; ceilings go first, as the replay tool
/// applies them, so a floor above its ceiling collapses the box.
MpcController make_controller(const State& s, MpcConfig cfg) {
  MpcController ctl(cfg, s.devices, LinearPowerModel(s.gains, 300.0),
                    s.set_point);
  ctl.set_control_weights(s.weights);
  for (std::size_t j = 0; j < s.devices.size(); ++j) {
    if (s.ceilings[j]) ctl.set_max_frequency_override(j, *s.ceilings[j]);
  }
  for (std::size_t j = 0; j < s.devices.size(); ++j) {
    if (s.floors[j]) ctl.set_min_frequency_override(j, *s.floors[j]);
  }
  return ctl;
}

/// Effective box of device j under `s`'s overrides, as the controller
/// resolves them.
std::pair<double, double> effective_box(const State& s, std::size_t j) {
  const MpcController ctl = make_controller(s, s.cfg);
  return {ctl.effective_f_min(j), ctl.effective_f_max(j)};
}

State draw_state(Regime regime, bool small, capgpu::Rng& rng) {
  State s;
  const std::size_t ms[] = {1, 2, 3};
  const std::size_t ps[] = {8, 16};
  // Small shapes keep dim = (gpus + 1) * M <= 6 for the brute-force check.
  std::size_t gpus = 0;
  if (small) {
    s.cfg.control_horizon = ms[rng.uniform_index(3)];
    gpus = 1 + rng.uniform_index(6 / s.cfg.control_horizon - 1);
  } else {
    s.cfg.control_horizon = ms[rng.uniform_index(3)];
    gpus = 1 + rng.uniform_index(16);
  }
  s.cfg.prediction_horizon = ps[rng.uniform_index(2)];
  const std::size_t n = gpus + 1;

  const double cpu_lo = rng.uniform(800.0, 1200.0);
  s.devices.push_back({DeviceKind::kCpu, cpu_lo,
                       cpu_lo + rng.uniform(800.0, 1600.0)});
  s.gains.push_back(rng.uniform(0.02, 0.08));
  for (std::size_t g = 0; g < gpus; ++g) {
    const double lo = rng.uniform(300.0, 500.0);
    s.devices.push_back(
        {DeviceKind::kGpu, lo, lo + rng.uniform(600.0, 1200.0)});
    s.gains.push_back(rng.uniform(0.1, 0.3));
  }
  for (std::size_t j = 0; j < n; ++j) {
    s.weights.push_back(2e-5 * rng.uniform(0.5, 2.0));
  }
  s.ceilings.assign(n, std::nullopt);
  s.floors.assign(n, std::nullopt);
  s.freqs.assign(n, 0.0);
  s.set_point = Watts{rng.uniform(500.0, 4000.0)};

  auto inside = [&](std::size_t j) {
    const auto [lo, hi] = effective_box(s, j);
    return rng.uniform(lo, hi);
  };
  auto maybe_tighten = [&](std::size_t j, double p) {
    const DeviceRange& d = s.devices[j];
    const double span = d.f_max_mhz - d.f_min_mhz;
    if (rng.uniform() < p) {
      s.ceilings[j] = d.f_max_mhz - rng.uniform(0.1, 0.4) * span;
    }
    if (rng.uniform() < p) {
      s.floors[j] = d.f_min_mhz + rng.uniform(0.1, 0.4) * span;
    }
  };

  switch (regime) {
    case Regime::kFloorOverCap:
      for (std::size_t j = 0; j < n; ++j) {
        maybe_tighten(j, 0.3);
        s.freqs[j] = effective_box(s, j).first;
      }
      s.power = Watts{s.set_point.value + rng.uniform(1.0, 5000.0)};
      s.vertex = true;
      break;
    case Regime::kCeilingUnderCap:
      for (std::size_t j = 0; j < n; ++j) {
        maybe_tighten(j, 0.3);
        s.freqs[j] = effective_box(s, j).second;
      }
      s.power = Watts{s.set_point.value - rng.uniform(100.0, 3000.0)};
      s.vertex = true;
      break;
    case Regime::kCollapsedBox: {
      // Every other state collapses every box: the feasible set is the
      // start point, reached through +-row pairs.
      const bool all = rng.uniform() < 0.5;
      for (std::size_t j = 0; j < n; ++j) {
        const DeviceRange& d = s.devices[j];
        if (all || rng.uniform() < 0.5) {
          const double c = rng.uniform(d.f_min_mhz, d.f_max_mhz);
          s.ceilings[j] = c;
          s.floors[j] = c + rng.uniform(1.0, 500.0);  // clamps to c
          s.freqs[j] = rng.uniform() < 0.5
                           ? c
                           : rng.uniform(d.f_min_mhz, d.f_max_mhz);
        } else {
          s.freqs[j] = inside(j);
        }
      }
      s.power = Watts{s.set_point.value + rng.uniform(-3000.0, 3000.0)};
      s.vertex = all;
      break;
    }
    case Regime::kCeilingBelowClock: {
      const std::size_t forced = rng.uniform_index(n);
      for (std::size_t j = 0; j < n; ++j) {
        const DeviceRange& d = s.devices[j];
        if (j == forced || rng.uniform() < 0.5) {
          s.freqs[j] = rng.uniform(d.f_min_mhz + 50.0, d.f_max_mhz);
          s.ceilings[j] = rng.uniform(d.f_min_mhz, s.freqs[j] - 1.0);
        } else {
          s.freqs[j] = inside(j);
        }
      }
      s.power = Watts{s.set_point.value + rng.uniform(-3000.0, 3000.0)};
      break;
    }
    case Regime::kPartialRails:
      for (std::size_t j = 0; j < n; ++j) {
        maybe_tighten(j, 0.2);
        const auto [lo, hi] = effective_box(s, j);
        const double pick = rng.uniform();
        s.freqs[j] = pick < 1.0 / 3 ? lo : pick < 2.0 / 3 ? hi : inside(j);
      }
      s.power = Watts{s.set_point.value + rng.uniform(-5000.0, 5000.0)};
      break;
  }
  return s;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// Everything a solve hands to the actuators, the flight recorder and the
/// replay tool, compared bit for bit.
void expect_same_decision(const MpcDecision& got, const MpcDecision& want,
                          const std::string& what) {
  EXPECT_EQ(got.qp_converged, want.qp_converged) << what;
  EXPECT_TRUE(same_bits(got.planned_deltas_mhz, want.planned_deltas_mhz))
      << what;
  EXPECT_TRUE(same_bits(got.target_freqs_mhz, want.target_freqs_mhz)) << what;
  EXPECT_TRUE(same_bits(got.deltas_mhz, want.deltas_mhz)) << what;
  EXPECT_TRUE(same_bits(got.predicted_power_horizon_watts,
                        want.predicted_power_horizon_watts))
      << what;
  EXPECT_TRUE(same_bits(got.predicted_power_watts, want.predicted_power_watts))
      << what;
  EXPECT_TRUE(same_bits(got.qp_objective, want.qp_objective)) << what;
}

// min x^T x + g^T x with every x_i >= 0 and g = 1e6: the optimum is the
// start vertex x = 0 with multipliers 1e6, whose regularisation leak
// (1e-10 * lambda = 1e-4) dwarfs the 1e-7 stationarity floor. The cold loop
// must stop once the n floor rows are in, and the warm seed must certify.
TEST(QpRailed, VertexWithLargeMultipliersConvergesAtTheStart) {
  const std::size_t n = 3;
  QpProblem p;
  p.h = linalg::Matrix(n, n);
  p.g = linalg::Vector(n);
  p.c = linalg::Matrix(n, n);
  p.b = linalg::Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.h(i, i) = 2.0;
    p.g[i] = 1e6;
    p.c(i, i) = -1.0;
  }
  const QpSolver solver;
  QpWorkspace ws;
  solver.solve(p, linalg::Vector(n), ws);
  ASSERT_TRUE(ws.converged());
  EXPECT_EQ(ws.iterations(), n + 1);
  EXPECT_EQ(ws.active_set(), (std::vector<std::size_t>{0, 1, 2}));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ws.x()[i], 0.0);
  EXPECT_TRUE(QpSolver::is_feasible(p, ws.x()));

  const std::vector<std::size_t> seed = ws.active_set();
  QpWorkspace warm;
  solver.solve(p, linalg::Vector(n), warm, &seed);
  EXPECT_TRUE(warm.warm_start_hit());
  EXPECT_EQ(warm.iterations(), 1u);
  EXPECT_EQ(warm.objective(), ws.objective());
}

// Two copies of x_0 <= 0 give as many rows as variables at n = 2 but pin
// only one direction, and both carry positive multipliers. Seeded with the
// pair, the warm start must not certify the start point: x_1 still has to
// move, which only a rank count (not a row count) sees.
TEST(QpRailed, DependentRowsCountRankNotRows) {
  QpProblem p;
  p.h = linalg::Matrix{{2.0, 0.0}, {0.0, 2.0}};
  p.g = linalg::Vector{-100.0, -4.0};
  p.c = linalg::Matrix{{1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  p.b = linalg::Vector{0.0, 0.0, 10.0};
  const QpSolver solver;
  const QpSolution cold = solver.solve(p, linalg::Vector(2));
  ASSERT_TRUE(cold.converged);
  EXPECT_NEAR(cold.x[0], 0.0, 1e-7);
  EXPECT_NEAR(cold.x[1], 2.0, 1e-7);

  const std::vector<std::size_t> seed = {0, 1};
  QpWorkspace ws;
  solver.solve(p, linalg::Vector(2), ws, &seed);
  EXPECT_FALSE(ws.warm_start_hit());
  ASSERT_TRUE(ws.converged());
  EXPECT_EQ(ws.x()[0], cold.x[0]);
  EXPECT_EQ(ws.x()[1], cold.x[1]);
}

class QpConvergence : public ::testing::TestWithParam<Regime> {};

TEST_P(QpConvergence, RandomStatesConvergeFeasiblyAndMatchReferences) {
  const Regime regime = GetParam();
  capgpu::Rng rng(0xC0DE + static_cast<std::uint64_t>(regime));
  constexpr int kStates = 40;
  int brute_checked = 0;
  int vertex_states = 0;
  int vertex_repeats = 0;
  for (int t = 0; t < kStates; ++t) {
    const State s = draw_state(regime, t % 2 == 1, rng);
    const std::size_t dim = s.devices.size() * s.cfg.control_horizon;
    const std::string what = std::string(regime_name(regime)) + " state " +
                             std::to_string(t) + " (n=" +
                             std::to_string(s.devices.size()) + ", M=" +
                             std::to_string(s.cfg.control_horizon) + ", P=" +
                             std::to_string(s.cfg.prediction_horizon) + ")";

    MpcController ctl = make_controller(s, s.cfg);
    const MpcDecision first = ctl.step(s.power, s.freqs);
    const QpProblem qp = ctl.last_qp();
    const linalg::Vector x0 = ctl.last_qp_start();
    ASSERT_EQ(first.planned_deltas_mhz.size(), dim);
    linalg::Vector x(dim);
    for (std::size_t a = 0; a < dim; ++a) x[a] = first.planned_deltas_mhz[a];

    EXPECT_TRUE(first.qp_converged) << what;
    EXPECT_LE(first.qp_iterations, 2 * qp.c.rows() + 1) << what;
    // Feasible to within the step the solver treats as zero: converged
    // solves sit up to ~1e-10 * lambda outside their working rows (the KKT
    // regularisation), which at |x| ~ 1e3 MHz is a few 1e-7.
    const double slack = 1e-7 * std::max(1.0, x.norm_inf());
    EXPECT_TRUE(QpSolver::is_feasible(qp, x, slack)) << what;

    MpcConfig plain_cfg = s.cfg;
    plain_cfg.qp_fast_path = false;
    MpcController plain = make_controller(s, plain_cfg);
    expect_same_decision(first, plain.step(s.power, s.freqs),
                         what + " vs fast path off");

    bool at_start = true;
    for (std::size_t a = 0; a < dim; ++a) at_start = at_start && x[a] == x0[a];
    if (s.vertex) {
      EXPECT_TRUE(at_start) << what << ": optimum left the rails";
      ++vertex_states;
    }

    const MpcDecision& again = ctl.step(s.power, s.freqs);
    expect_same_decision(again, first, what + " repeated");
    if (at_start && first.active_set_size > 0) {
      EXPECT_TRUE(again.warm_start_hit) << what;
      EXPECT_EQ(again.qp_iterations, 1u) << what;
      ++vertex_repeats;
    }

    if (dim <= 6) {
      const auto reference = brute_force_qp(qp);
      ASSERT_TRUE(reference.has_value()) << what;
      const double scale = std::max(1.0, reference->norm_inf());
      for (std::size_t a = 0; a < dim; ++a) {
        EXPECT_NEAR(x[a], (*reference)[a], 1e-6 * scale)
            << what << " component " << a;
      }
      ++brute_checked;
    }
  }
  // Half the states are drawn small enough for the enumeration, and every
  // fully railed state re-certified on its repeat.
  EXPECT_GE(brute_checked, kStates / 2);
  EXPECT_GE(vertex_repeats, vertex_states);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, QpConvergence,
    ::testing::Values(Regime::kFloorOverCap, Regime::kCeilingUnderCap,
                      Regime::kCollapsedBox, Regime::kCeilingBelowClock,
                      Regime::kPartialRails),
    [](const ::testing::TestParamInfo<Regime>& param) {
      return std::string(regime_name(param.param));
    });

}  // namespace
}  // namespace capgpu::control
