#include "control/qp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/lu.hpp"

namespace capgpu::control {
namespace {

using linalg::Matrix;
using linalg::Vector;

QpProblem unconstrained(Matrix h, Vector g) {
  QpProblem p;
  p.h = std::move(h);
  p.g = std::move(g);
  p.c = Matrix(0, p.g.size());
  p.b = Vector(0);
  return p;
}

/// Box constraints lo <= x <= hi as C x <= b rows.
void add_box(QpProblem& p, const Vector& lo, const Vector& hi) {
  const std::size_t n = p.g.size();
  p.c = Matrix(2 * n, n);
  p.b = Vector(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    p.c(2 * i, i) = 1.0;
    p.b[2 * i] = hi[i];
    p.c(2 * i + 1, i) = -1.0;
    p.b[2 * i + 1] = -lo[i];
  }
}

TEST(Qp, UnconstrainedMatchesClosedForm) {
  QpProblem p = unconstrained(Matrix{{2, 0}, {0, 4}}, Vector{-2.0, -8.0});
  const QpSolution sol = QpSolver().solve(p);
  ASSERT_TRUE(sol.converged);
  // x* = -H^{-1} g = (1, 2).
  EXPECT_NEAR(sol.x[0], 1.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-8);
  EXPECT_TRUE(sol.active_set.empty());
}

TEST(Qp, ActiveBoxConstraintBinds) {
  // Minimum at (1,2) but x1 <= 1.5: solution (1, 1.5).
  QpProblem p = unconstrained(Matrix{{2, 0}, {0, 4}}, Vector{-2.0, -8.0});
  add_box(p, Vector{-10.0, -10.0}, Vector{10.0, 1.5});
  const QpSolution sol = QpSolver().solve(p);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 1.5, 1e-8);
  EXPECT_EQ(sol.active_set.size(), 1u);
}

TEST(Qp, IdentityHessianProjectsOntoBox) {
  // With H = I, min ||x + g||^2 over a box is clipping of -g.
  capgpu::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 4;
    QpProblem p = unconstrained(Matrix::identity(n), Vector(n));
    Vector lo(n), hi(n);
    for (std::size_t i = 0; i < n; ++i) {
      p.g[i] = rng.uniform(-3.0, 3.0);
      lo[i] = -1.0;
      hi[i] = 1.0;
    }
    add_box(p, lo, hi);
    const QpSolution sol = QpSolver().solve(p);
    ASSERT_TRUE(sol.converged);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(sol.x[i], std::clamp(-p.g[i], -1.0, 1.0), 1e-7);
    }
  }
}

TEST(Qp, CrossCouplingWithConstraint) {
  // Non-diagonal H; verified against hand-derived KKT solution.
  // min 1/2 x^T [[2,1],[1,2]] x + [-3,-3]^T x  s.t. x0 + x1 <= 1.
  // Unconstrained optimum (1,1) violates; on the constraint x0+x1=1,
  // symmetry gives x = (0.5, 0.5).
  QpProblem p = unconstrained(Matrix{{2, 1}, {1, 2}}, Vector{-3.0, -3.0});
  p.c = Matrix(1, 2);
  p.c(0, 0) = 1.0;
  p.c(0, 1) = 1.0;
  p.b = Vector{1.0};
  const QpSolution sol = QpSolver().solve(p);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.x[0], 0.5, 1e-8);
  EXPECT_NEAR(sol.x[1], 0.5, 1e-8);
}

TEST(Qp, StartOnConstraintLeavesIt) {
  // The optimum is interior: the unconstrained minimiser is feasible, so
  // the solve takes no dual step and leaves no row active.
  QpProblem p = unconstrained(Matrix{{2}}, Vector{-2.0});
  add_box(p, Vector{0.0}, Vector{5.0});
  const QpSolution sol = QpSolver().solve(p);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-8);
  EXPECT_EQ(sol.iterations, 0u);
  EXPECT_TRUE(sol.active_set.empty());
}

TEST(Qp, IndefiniteHessianThrows) {
  QpProblem p = unconstrained(Matrix{{1, 0}, {0, -1}}, Vector{0.0, 0.0});
  EXPECT_THROW((void)QpSolver().solve(p),
               capgpu::NumericalError);
}

TEST(Qp, DimensionMismatchesThrow) {
  QpProblem p = unconstrained(Matrix{{2}}, Vector{0.0, 1.0});
  EXPECT_THROW((void)QpSolver().solve(p), capgpu::InvalidArgument);
  p.g = Vector{0.0};
  p.b = Vector{1.0};  // constraints rows mismatch
  EXPECT_THROW((void)QpSolver().solve(p), capgpu::InvalidArgument);
}

TEST(Qp, RedundantConstraintsHandled) {
  // The same constraint twice: degenerate working sets must not break.
  QpProblem p = unconstrained(Matrix{{2}}, Vector{2.0});  // optimum -1
  p.c = Matrix(2, 1);
  p.c(0, 0) = -1.0;
  p.c(1, 0) = -1.0;
  p.b = Vector{0.0, 0.0};  // x >= 0, twice
  const QpSolution sol = QpSolver().solve(p);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.x[0], 0.0, 1e-7);
}

TEST(Qp, IsFeasibleHelper) {
  QpProblem p = unconstrained(Matrix{{1}}, Vector{0.0});
  add_box(p, Vector{0.0}, Vector{1.0});
  EXPECT_TRUE(QpSolver::is_feasible(p, Vector{0.5}));
  EXPECT_FALSE(QpSolver::is_feasible(p, Vector{1.5}));
}

TEST(Qp, ObjectiveReportedAtSolution) {
  QpProblem p = unconstrained(Matrix{{2}}, Vector{-4.0});
  const QpSolution sol = QpSolver().solve(p);
  // x* = 2, objective = 0.5*2*4 - 4*2 = -4.
  EXPECT_NEAR(sol.objective, -4.0, 1e-8);
}

class QpRandomSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QpRandomSweep, KktConditionsHoldOnRandomBoxQps) {
  const std::size_t n = GetParam();
  capgpu::Rng rng(n * 131);
  for (int trial = 0; trial < 20; ++trial) {
    // SPD Hessian.
    Matrix b(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
    Matrix h = b * b.transposed();
    for (std::size_t i = 0; i < n; ++i) h(i, i) += 1.0;
    Vector g(n);
    for (std::size_t i = 0; i < n; ++i) g[i] = rng.uniform(-5.0, 5.0);
    QpProblem p = unconstrained(h, g);
    Vector lo(n), hi(n);
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = -1.0;
      hi[i] = 1.0;
    }
    add_box(p, lo, hi);
    const QpSolution sol = QpSolver().solve(p);
    ASSERT_TRUE(sol.converged);
    ASSERT_TRUE(QpSolver::is_feasible(p, sol.x));
    ASSERT_TRUE(certify(p, sol.x, sol.multipliers).holds());
    // KKT stationarity: for inactive coordinates the gradient vanishes;
    // at active bounds it pushes outward.
    const Vector grad = p.h * sol.x + p.g;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::abs(sol.x[i] - hi[i]) < 1e-7) {
        EXPECT_LE(grad[i], 1e-6);
      } else if (std::abs(sol.x[i] - lo[i]) < 1e-7) {
        EXPECT_GE(grad[i], -1e-6);
      } else {
        EXPECT_NEAR(grad[i], 0.0, 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QpRandomSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace capgpu::control
