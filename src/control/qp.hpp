// Convex quadratic programming via the primal active-set method.
//
//   minimize   1/2 x^T H x + g^T x
//   subject to C x <= b            (row-wise inequality constraints)
//
// The paper solves its MPC problem with SLSQP; because CapGPU's cost is
// quadratic and all constraints (frequency boxes, SLO-derived bounds) are
// linear, the problem is exactly a convex QP and the active-set method finds
// the same optimum deterministically. Problem sizes are tiny (N*M <= a few
// dozen variables), so dense factorisations are the right tool.
//
// The solver offers two entry points: the original allocating solve()
// returning a QpSolution, and a workspace-based solve() that runs entirely
// inside caller-owned buffers (sized on first use) and optionally
// warm-starts from a previous active set — the controller's steady-state
// path performs zero heap allocations per period.
//
// On top of the active-set iteration sit two certify-or-fallback shortcuts,
// tried in order before the cold loop:
//   1. warm start — the previous active set, accepted only if x0 proves
//      stationary on it (clock-pinned steady state);
//   2. analytic fast path — the unconstrained Newton step from a persistent
//      LU factorisation of H, accepted only when the full step stays
//      strictly feasible and lands stationary (interior steady state).
// Both shortcuts replicate the cold iteration's arithmetic exactly, so a
// hit returns the bitwise-identical solution the cold solve would have
// produced — they change cost, never bits.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace capgpu::control {

/// Which tier produced the last workspace solve.
enum class QpSolvePath {
  kColdActiveSet,  ///< full active-set iteration (or fallback from a tier)
  kWarmCertified,  ///< warm-start seed certified after one KKT solve
  kFastPath,       ///< analytic unconstrained step certified in-interior
};

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
  std::size_t iterations{0};
  bool converged{false};
  std::vector<std::size_t> active_set;  ///< indices of active constraints
};

/// Reusable solve state: preallocated KKT, right-hand-side and factorisation
/// buffers plus the result fields of the last solve. Grows to the largest
/// problem it has seen and never shrinks, so a controller that solves the
/// same-shaped QP every period allocates on the first period only.
class QpWorkspace {
 public:
  QpWorkspace() = default;

  // Results of the most recent solve through this workspace.
  [[nodiscard]] const linalg::Vector& x() const { return x_; }
  [[nodiscard]] double objective() const { return objective_; }
  [[nodiscard]] std::size_t iterations() const { return iterations_; }
  [[nodiscard]] bool converged() const { return converged_; }
  /// True when the last solve accepted the warm-start seed (certified x0
  /// after a single KKT solve) instead of running the cold iteration.
  /// Distinguishes the shortcut from a genuine one-iteration cold solve.
  [[nodiscard]] bool warm_start_hit() const { return warm_hit_; }
  /// True when the last solve certified the analytic unconstrained step
  /// from the persistent Hessian factorisation (no active-set iteration,
  /// no KKT factorisation beyond the cached one).
  [[nodiscard]] bool fast_path_hit() const { return fast_hit_; }
  /// Tier that produced the last solve.
  [[nodiscard]] QpSolvePath path() const { return path_; }
  [[nodiscard]] const std::vector<std::size_t>& active_set() const {
    return active_set_;
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
  bool warm_hit_{false};
  bool fast_hit_{false};
  QpSolvePath path_{QpSolvePath::kColdActiveSet};
  std::vector<std::size_t> active_set_;
  // Scratch: KKT system of dimension up to (n+m), stride n+m.
  std::vector<double> kkt_;
  std::vector<std::size_t> piv_;
  std::vector<double> rhs_;
  std::vector<double> sol_;   // [p; lambda]
  std::vector<double> grad_;  // n (also reused for the objective's H*x)
  std::vector<double> chol_;  // n*n SPD-check factor
  std::vector<char> active_;  // m flags
  std::vector<std::size_t> w_;  // working set
  std::vector<double> span_;    // n*n row-echelon basis of the working rows
  std::vector<std::size_t> span_pivot_;  // pivot column of each basis row
  // Persistent fast-path factorisation: an LU of H keyed by a bitwise
  // snapshot of the Hessian. Valid across solves (and periods) as long as
  // H's bits do not change; the SPD check is skipped on a snapshot match
  // because the exact same matrix already passed it.
  std::vector<double> fast_h_;    // snapshot of H, fast_n_ x fast_n_
  std::vector<double> fast_lu_;   // LU factor of the snapshot, stride fast_n_
  std::vector<std::size_t> fast_piv_;
  std::vector<double> fast_x_;    // candidate iterate x0 + p
  std::size_t fast_n_{0};
  bool fast_valid_{false};
};

/// Primal active-set QP solver.
class QpSolver {
 public:
  struct Options {
    std::size_t max_iterations{200};
    /// Feasibility / multiplier-sign tolerance.
    double tolerance{1e-9};
    /// Step-norm threshold, relative to max(1, |x|_inf), below which the
    /// iterate counts as stationary on its working set. Contract: a
    /// working set whose rows pin every variable (rank n; rank, not row
    /// count) is stationary whatever the computed step, because its exact
    /// step is zero and the computed one is only the KKT regularisation's
    /// leak, C_w p = 1e-10 * lambda, which grows with the multipliers. The
    /// threshold judges rank-deficient working sets only.
    double stationarity_tolerance{1e-7};
    /// Enables the analytic unconstrained fast path (see the header
    /// comment). Certify-or-fallback: disabling it never changes results,
    /// only cost.
    bool fast_path{true};
  };

  QpSolver() = default;
  explicit QpSolver(Options options) : options_(options) {}

  /// Solves the QP starting from the feasible point `x0`.
  /// Throws InvalidArgument when x0 is infeasible (beyond tolerance) and
  /// NumericalError when H is not positive definite.
  [[nodiscard]] QpSolution solve(const QpProblem& problem,
                                 const linalg::Vector& x0) const;

  /// Allocation-free variant: results land in `ws` (read them via its
  /// accessors). `warm_start`, when non-null, names constraint rows to seed
  /// the working set with — typically the previous period's active set. The
  /// seed is certify-or-fallback: rows still tight at x0 form a candidate
  /// working set, and if x0 proves stationary on it with non-negative
  /// multipliers the solve returns x0 after a single KKT solve; otherwise
  /// the standard cold iteration runs unchanged, so a stale or wrong warm
  /// set can never alter the solution, only forfeit the shortcut.
  void solve(const QpProblem& problem, const linalg::Vector& x0,
             QpWorkspace& ws,
             const std::vector<std::size_t>* warm_start = nullptr) const;

  /// True when `x` satisfies C x <= b within `slack`.
  [[nodiscard]] static bool is_feasible(const QpProblem& problem,
                                        const linalg::Vector& x,
                                        double slack = 1e-7);

 private:
  /// One equality-constrained KKT solve on the working set ws.w_:
  /// fills ws.sol_ with [p; lambda] for the system at iterate ws.x_.
  void kkt_solve(const QpProblem& problem, QpWorkspace& ws) const;

  /// Stationarity of the step kkt_solve left in ws.sol_: its norm is within
  /// the scale-relative tolerance, or the working rows span all n variables.
  [[nodiscard]] bool stationary(const QpProblem& problem,
                                QpWorkspace& ws) const;

  /// True when the working rows ws.w_ have numerical rank n.
  [[nodiscard]] bool working_rows_span(const QpProblem& problem,
                                       QpWorkspace& ws) const;

  /// Analytic unconstrained tier: Newton step from the persistent H
  /// factorisation, accepted only when it replicates what the cold
  /// iteration would do (full step, unblocked, stationary after the step).
  /// On success ws holds the finished solve and true is returned; on any
  /// failed check ws.x_ is untouched and the caller falls through to the
  /// cold loop.
  [[nodiscard]] bool try_fast_path(const QpProblem& problem,
                                   QpWorkspace& ws) const;

  Options options_{};
};

}  // namespace capgpu::control
