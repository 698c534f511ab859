// Brute-force verification of the dual active-set QP solver: on randomly
// generated instances the production solver must match the exhaustive
// active-set enumeration in qp_brute_force.hpp and pass its own KKT
// certificate.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "control/qp.hpp"
#include "qp_brute_force.hpp"

namespace capgpu::control {
namespace {

using linalg::Matrix;
using linalg::Vector;

QpProblem random_problem(capgpu::Rng& rng, std::size_t n, std::size_t m) {
  QpProblem p;
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  }
  p.h = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) += 0.5;
  p.g = Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.uniform(-3.0, 3.0);
  // Random half-spaces, each guaranteed to contain the origin strictly
  // (b_i > 0), so every instance is feasible.
  p.c = Matrix(m, n);
  p.b = Vector(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) p.c(i, j) = rng.uniform(-1.0, 1.0);
    p.b[i] = rng.uniform(0.2, 2.0);
  }
  return p;
}

class QpReferenceSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(QpReferenceSweep, ActiveSetMatchesBruteForce) {
  const auto [n, m] = GetParam();
  capgpu::Rng rng(n * 1000 + m);
  int verified = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const QpProblem p = random_problem(rng, n, m);
    const auto reference = brute_force_qp(p);
    ASSERT_TRUE(reference.has_value());  // origin is feasible, H is SPD

    const QpSolution sol = QpSolver().solve(p);
    ASSERT_TRUE(sol.converged);
    ASSERT_TRUE(certify(p, sol.x, sol.multipliers).holds())
        << "n=" << n << " m=" << m << " trial=" << trial;
    const double obj_solver = 0.5 * sol.x.dot(p.h * sol.x) + p.g.dot(sol.x);
    const double obj_ref = 0.5 * reference->dot(p.h * *reference) +
                           p.g.dot(*reference);
    // Objectives must agree (the optimum is unique for SPD H, so the
    // points agree too, but the objective comparison is robust to ties in
    // degenerate geometry).
    ASSERT_NEAR(obj_solver, obj_ref, 1e-6 * (1.0 + std::abs(obj_ref)))
        << "n=" << n << " m=" << m << " trial=" << trial;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(sol.x[i], (*reference)[i], 1e-5) << "component " << i;
    }
    ++verified;
  }
  EXPECT_EQ(verified, 60);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QpReferenceSweep,
    ::testing::Values(std::make_tuple(1u, 2u), std::make_tuple(2u, 3u),
                      std::make_tuple(2u, 6u), std::make_tuple(3u, 5u),
                      std::make_tuple(4u, 8u)));

}  // namespace
}  // namespace capgpu::control
