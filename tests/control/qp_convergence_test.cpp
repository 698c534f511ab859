// Convergence contract of the MPC's QP over random controller states,
// weighted toward the railed regimes of paper Sec 4.4: every clock at its
// floor with power above the cap, every clock at its ceiling far below it,
// SLO floors clamped to thermal ceilings (collapsed boxes, whose +-row
// pairs add rows without adding rank), thermal ceilings dropped below the
// current clock, and partial rails. Each solve must
//   - converge within 2 * rows + 1 dual steps;
//   - return a point inside every constraint row to the absolute 1e-7;
//   - pass the KKT certificate with the multipliers it reports;
//   - land on the rail vertex (to 1e-9 relative) when the error pushes
//     every variable against its rails;
//   - repeat its bits when the same state is stepped again;
//   - match the exhaustive enumeration when dim <= 6.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
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
  /// True when the optimum is known to be the rail vertex: every decision
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

/// Rail vertex of `s`: every device's first move goes to the nearest
/// point of its effective box, or stays put inside it, and later moves are
/// zero, so each cumulative move equals the first.
linalg::Vector rail_vertex(const State& s) {
  const std::size_t n = s.devices.size();
  linalg::Vector v(n * s.cfg.control_horizon);
  for (std::size_t j = 0; j < n; ++j) {
    const auto [lo, hi] = effective_box(s, j);
    v[j] = std::clamp(0.0, lo - s.freqs[j], hi - s.freqs[j]);
  }
  return v;
}

// min x^T x + g^T x with every x_i >= 0 and g = 1e6: the optimum is the
// vertex x = 0 with multipliers 1e6. The dual method starts at -5e5 on
// every axis and adds one floor row per dual step.
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
  QpWorkspace ws;
  QpSolver().solve(p, ws);
  ASSERT_TRUE(ws.converged());
  EXPECT_EQ(ws.iterations(), n);
  EXPECT_EQ(ws.active_set(), (std::vector<std::size_t>{0, 1, 2}));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ws.x()[i], 0.0, 1e-9);
    EXPECT_NEAR(ws.multipliers()[i], 1e6, 1e-3);
  }
  EXPECT_TRUE(QpSolver::is_feasible(p, ws.x()));
  EXPECT_TRUE(certify(p, ws.x(), ws.multipliers()).holds());
}

// Two copies of x_0 <= 0 give as many rows as variables at n = 2 but pin
// only one direction, and both would carry positive multipliers: x_1 still
// has to reach its unconstrained optimum.
TEST(QpRailed, DependentRowsCountRankNotRows) {
  QpProblem p;
  p.h = linalg::Matrix{{2.0, 0.0}, {0.0, 2.0}};
  p.g = linalg::Vector{-100.0, -4.0};
  p.c = linalg::Matrix{{1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  p.b = linalg::Vector{0.0, 0.0, 10.0};
  const QpSolution sol = QpSolver().solve(p);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.x[0], 0.0, 1e-7);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-7);
  EXPECT_TRUE(certify(p, sol.x, sol.multipliers).holds());
}

// min x^T x - 1e6 x_0 - 4 x_1 s.t. x_0 <= 0, alone and with the row
// duplicated. A regularised primal active-set method stopped these
// unconverged after 200 iterations at x_0 = 0.0199 and 0.0099, outside
// their own constraint; the dual method adds the row once and is done.
TEST(QpRailed, LargeMultiplierOnADependentPairConverges) {
  for (const std::size_t copies : {1u, 2u}) {
    QpProblem p;
    p.h = linalg::Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.g = linalg::Vector{-1e6, -4.0};
    p.c = linalg::Matrix(copies, 2);
    p.b = linalg::Vector(copies);
    for (std::size_t i = 0; i < copies; ++i) p.c(i, 0) = 1.0;
    const QpSolution sol = QpSolver().solve(p);
    ASSERT_TRUE(sol.converged) << copies << " copies";
    EXPECT_EQ(sol.iterations, 1u) << copies << " copies";
    EXPECT_NEAR(sol.x[0], 0.0, 1e-9) << copies << " copies";
    EXPECT_NEAR(sol.x[1], 2.0, 1e-9) << copies << " copies";
    EXPECT_TRUE(QpSolver::is_feasible(p, sol.x)) << copies << " copies";
    const QpCertificate cert = certify(p, sol.x, sol.multipliers);
    EXPECT_TRUE(cert.holds()) << copies << " copies";

    // The point those stalled solves returned fails the certificate,
    // whatever multipliers are offered with it.
    std::vector<double> lambda(copies, 0.0);
    lambda[0] = 1e6;
    const linalg::Vector stalled{0.0199 / static_cast<double>(copies), 2.0};
    const QpCertificate bad = certify(p, stalled, lambda);
    EXPECT_FALSE(bad.holds()) << copies << " copies";
    EXPECT_GT(bad.primal, 1e-3);
  }
}

TEST(QpCertificate, EachConditionIsChecked) {
  // min 1/2 |x|^2 - 2 x_0 s.t. x_0 <= 1: x = (1, 0) with lambda = 1.
  QpProblem p;
  p.h = linalg::Matrix{{1.0, 0.0}, {0.0, 1.0}};
  p.g = linalg::Vector{-2.0, 0.0};
  p.c = linalg::Matrix{{1.0, 0.0}, {0.0, 1.0}};
  p.b = linalg::Vector{1.0, 5.0};
  EXPECT_TRUE(certify(p, linalg::Vector{1.0, 0.0}, {1.0, 0.0}).holds());
  // Infeasible point.
  EXPECT_GT(certify(p, linalg::Vector{1.1, 0.0}, {0.9, 0.0}).primal, 0.05);
  // Wrong multiplier: the gradient does not balance.
  EXPECT_GT(certify(p, linalg::Vector{1.0, 0.0}, {0.5, 0.0}).stationarity,
            0.1);
  // Stationary only through a negative multiplier: with g = 0 the
  // optimum is the origin, and lambda_0 = -1 balances x = (1, 0).
  p.g = linalg::Vector{0.0, 0.0};
  EXPECT_GT(certify(p, linalg::Vector{1.0, 0.0}, {-1.0, 0.0}).dual, 0.5);
  // Multiplier on a slack row.
  p.g = linalg::Vector{-1.0, -1.0};
  EXPECT_GT(certify(p, linalg::Vector{1.0, 0.0}, {0.0, 1.0})
                .complementarity,
            0.5);
  EXPECT_THROW((void)certify(p, linalg::Vector{1.0}, {0.0, 0.0}),
               InvalidArgument);
}

class QpConvergence : public ::testing::TestWithParam<Regime> {};

TEST_P(QpConvergence, RandomStatesConvergeFeasiblyAndMatchReferences) {
  const Regime regime = GetParam();
  capgpu::Rng rng(0xC0DE + static_cast<std::uint64_t>(regime));
  constexpr int kStates = 40;
  int brute_checked = 0;
  int vertex_states = 0;
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
    ASSERT_EQ(first.planned_deltas_mhz.size(), dim);
    linalg::Vector x(dim);
    for (std::size_t a = 0; a < dim; ++a) x[a] = first.planned_deltas_mhz[a];

    EXPECT_TRUE(first.qp_converged) << what;
    EXPECT_LE(first.qp_iterations, 2 * qp.c.rows() + 1) << what;
    EXPECT_TRUE(QpSolver::is_feasible(qp, x)) << what;
    const QpCertificate cert =
        certify(qp, ctl.last_solve().x(), ctl.last_solve().multipliers());
    EXPECT_TRUE(cert.holds())
        << what << ": primal " << cert.primal << " stationarity "
        << cert.stationarity << " dual " << cert.dual << " complementarity "
        << cert.complementarity;

    if (s.vertex) {
      // The dual method reaches the vertex through its steps rather than
      // starting on it, so it lands within rounding of it, not on its bits.
      const linalg::Vector vertex = rail_vertex(s);
      const double bound = 1e-9 * std::max(1.0, vertex.norm_inf());
      for (std::size_t a = 0; a < dim; ++a) {
        EXPECT_NEAR(x[a], vertex[a], bound)
            << what << ": optimum left the rails at component " << a;
      }
      ++vertex_states;
    }

    const MpcDecision& again = ctl.step(s.power, s.freqs);
    expect_same_decision(again, first, what + " repeated");

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
  // Half the states are drawn small enough for the enumeration; the railed
  // regimes draw vertex states.
  EXPECT_GE(brute_checked, kStates / 2);
  if (regime == Regime::kFloorOverCap || regime == Regime::kCeilingUnderCap) {
    EXPECT_EQ(vertex_states, kStates);
  }
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
