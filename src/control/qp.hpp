// Convex quadratic programming via the Goldfarb–Idnani dual active-set
// method (Math. Programming 27, 1983).
//
//   minimize   1/2 x^T H x + g^T x
//   subject to C x <= b            (row-wise inequality constraints)
//
// The paper solves its MPC problem with SLSQP; because CapGPU's cost is
// quadratic and all constraints (frequency boxes, SLO-derived bounds) are
// linear, the problem is exactly a strictly convex QP (H is SPD) and the
// dual method finds the same optimum deterministically. Problem sizes are
// tiny (N*M <= a few dozen variables), so dense factorisations are the
// right tool.
//
// The method starts at the unconstrained minimiser -H^{-1} g and adds the
// most violated row at a time, keeping the iterate optimal on its active
// set; a row whose multiplier would turn negative on the way leaves again.
// It works on a Cholesky factor L of H and J = L^{-T} Q, where Q R is the
// QR factorisation of L^{-1} C_A^T kept up to date by Givens rotations, so
// each add or drop (one "dual step") costs O(n^2). It needs no feasible
// start point and no regularisation: a row linearly dependent on the
// active set produces a pure dual step that drops a row it depends on.
//
// The workspace solve() runs entirely inside caller-owned buffers (sized on
// first use), so the controller's steady-state path performs zero heap
// allocations per period.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace capgpu::control {

/// A QP instance. H must be symmetric positive definite.
struct QpProblem {
  linalg::Matrix h;  ///< n x n Hessian
  linalg::Vector g;  ///< n
  linalg::Matrix c;  ///< m x n constraint rows (may be empty)
  linalg::Vector b;  ///< m
};

/// Solver outcome.
struct QpSolution {
  linalg::Vector x;
  double objective{0.0};
  std::size_t iterations{0};  ///< dual steps: each add or drop of a row
  bool converged{false};
  std::vector<std::size_t> active_set;  ///< active rows, ascending
  std::vector<double> multipliers;      ///< per row (m); 0 off the active set
};

/// Reusable solve state: the factors, step vectors and result fields of the
/// last solve. Grows to the largest problem it has seen and never shrinks,
/// so a controller that solves the same-shaped QP every period allocates on
/// the first period only.
class QpWorkspace {
 public:
  // Results of the most recent solve through this workspace.
  [[nodiscard]] const linalg::Vector& x() const { return x_; }
  [[nodiscard]] double objective() const { return objective_; }
  /// Dual steps taken: 0 when the unconstrained minimiser was feasible.
  [[nodiscard]] std::size_t iterations() const { return iterations_; }
  [[nodiscard]] bool converged() const { return converged_; }
  /// Active rows at the solution, ascending.
  [[nodiscard]] const std::vector<std::size_t>& active_set() const {
    return active_set_;
  }
  /// Lagrange multiplier of every constraint row (m entries, zero off the
  /// active set): H x + g + C^T lambda = 0 at the optimum.
  [[nodiscard]] const std::vector<double>& multipliers() const {
    return lambda_;
  }

 private:
  friend class QpSolver;
  void ensure(std::size_t n, std::size_t m);

  std::size_t cap_n_{0};
  std::size_t cap_m_{0};
  // Results.
  linalg::Vector x_;
  double objective_{0.0};
  std::size_t iterations_{0};
  bool converged_{false};
  std::vector<std::size_t> active_set_;
  std::vector<double> lambda_;
  // Scratch, n x n matrices at stride n.
  std::vector<double> l_;   // Cholesky factor of H (lower triangle)
  std::vector<double> jt_;  // J^T: row k is column k of J = L^{-T} Q
  std::vector<double> r_;   // R, upper triangular, q x q in use
  std::vector<double> d_;   // J^T n_p for the row being added
  std::vector<double> z_;   // primal step direction
  std::vector<double> dr_;  // dual step direction R^{-1} d_1
  std::vector<double> u_;   // multipliers of the active rows, in a_ order
  std::vector<std::size_t> a_;  // active rows in the order they entered
  std::vector<char> active_;    // m flags
};

/// Worst violation of each KKT condition at a candidate (x, lambda). The
/// three dual-side residuals are relative to the gradient's scale
/// max(1, |g|_inf, |Hx|_inf), complementarity also to max(1, |x|_inf), so
/// one tolerance serves MHz-sized MPC problems and unit-sized test
/// problems alike.
struct QpCertificate {
  double primal{0.0};           ///< max_i (c_i x - b_i), floored at 0
  double stationarity{0.0};     ///< |H x + g + C^T lambda|_inf, relative
  double dual{0.0};             ///< max_i -lambda_i, floored at 0, relative
  double complementarity{0.0};  ///< max_i |lambda_i (b_i - c_i x)|, rel.
  /// Primal feasibility within an absolute 1e-7 (is_feasible's default
  /// slack), the other three within a relative 1e-7.
  [[nodiscard]] bool holds() const;
};

/// KKT residuals of `x` with per-row `multipliers` (m entries) on `problem`.
[[nodiscard]] QpCertificate certify(const QpProblem& problem,
                                    const linalg::Vector& x,
                                    const std::vector<double>& multipliers);

/// Goldfarb–Idnani dual active-set QP solver.
class QpSolver {
 public:
  struct Options {
    /// Dual-step budget; a solve that spends it reports not converged.
    std::size_t max_iterations{200};
    /// A row counts as violated when c_i x exceeds b_i by more than this.
    double tolerance{1e-9};
  };

  QpSolver() = default;
  explicit QpSolver(Options options) : options_(options) {}

  /// Throws InvalidArgument on mismatched dimensions and NumericalError
  /// when H is not positive definite. An infeasible problem, or one that
  /// spends the iteration budget, returns converged = false.
  [[nodiscard]] QpSolution solve(const QpProblem& problem) const;

  /// Allocation-free variant: results land in `ws` (read them via its
  /// accessors).
  void solve(const QpProblem& problem, QpWorkspace& ws) const;

  /// True when `x` satisfies C x <= b within `slack`.
  [[nodiscard]] static bool is_feasible(const QpProblem& problem,
                                        const linalg::Vector& x,
                                        double slack = 1e-7);

 private:
  Options options_{};
};

}  // namespace capgpu::control
