#include "control/qp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "linalg/inplace.hpp"

namespace capgpu::control {

namespace {

double dot_row(const linalg::Matrix& c, std::size_t row, const double* x,
               std::size_t n) {
  double acc = 0.0;
  const auto r = c.row(row);
  for (std::size_t j = 0; j < n; ++j) acc += r[j] * x[j];
  return acc;
}

}  // namespace

void QpWorkspace::ensure(std::size_t n, std::size_t m) {
  if (n <= cap_n_ && m <= cap_m_) return;
  cap_n_ = std::max(cap_n_, n);
  cap_m_ = std::max(cap_m_, m);
  const std::size_t s = cap_n_ + cap_m_;
  kkt_.resize(s * s);
  piv_.resize(s);
  rhs_.resize(s);
  sol_.resize(s);
  grad_.resize(cap_n_);
  chol_.resize(cap_n_ * cap_n_);
  active_.resize(cap_m_);
  span_.resize(cap_n_ * cap_n_);
  span_pivot_.resize(cap_n_);
  w_.reserve(cap_m_);
  active_set_.reserve(cap_m_);
}

bool QpSolver::is_feasible(const QpProblem& problem, const linalg::Vector& x,
                           double slack) {
  for (std::size_t i = 0; i < problem.c.rows(); ++i) {
    if (dot_row(problem.c, i, x.data().data(), x.size()) >
        problem.b[i] + slack) {
      return false;
    }
  }
  return true;
}

// Builds and solves the regularised KKT system for the working set ws.w_ at
// the iterate ws.x_:  [H  Cw^T; Cw  -eps*I] [p; lambda] = [-(Hx+g); 0].
// The tiny -eps*I block keeps the system nonsingular even when working rows
// become linearly dependent. Arithmetic matches the pre-workspace solver
// (fresh Matrix kkt + linalg::lu_solve) bit for bit; only the storage is
// pooled.
void QpSolver::kkt_solve(const QpProblem& problem, QpWorkspace& ws) const {
  const std::size_t n = problem.g.size();
  const std::size_t m = problem.c.rows();
  const std::size_t k = ws.w_.size();
  const std::size_t dim = n + k;
  const std::size_t stride = n + m;  // fixed leading stride of the buffers
  double* kkt = ws.kkt_.data();
  for (std::size_t r = 0; r < dim; ++r) {
    std::fill_n(kkt + r * stride, dim, 0.0);
  }
  for (std::size_t r = 0; r < n; ++r) {
    const auto hr = problem.h.row(r);
    for (std::size_t c2 = 0; c2 < n; ++c2) kkt[r * stride + c2] = hr[c2];
  }
  for (std::size_t a = 0; a < k; ++a) {
    const auto row = problem.c.row(ws.w_[a]);
    for (std::size_t c2 = 0; c2 < n; ++c2) {
      kkt[(n + a) * stride + c2] = row[c2];
      kkt[c2 * stride + (n + a)] = row[c2];
    }
    kkt[(n + a) * stride + (n + a)] = -1e-10;
  }
  for (std::size_t r = 0; r < n; ++r) {
    const auto hr = problem.h.row(r);
    double acc = 0.0;
    for (std::size_t c2 = 0; c2 < n; ++c2) acc += hr[c2] * ws.x_[c2];
    ws.grad_[r] = acc + problem.g[r];
  }
  for (std::size_t r = 0; r < n; ++r) ws.rhs_[r] = -ws.grad_[r];
  for (std::size_t a = 0; a < k; ++a) ws.rhs_[n + a] = 0.0;
  linalg::lu_factor_inplace(kkt, dim, stride, ws.piv_.data());
  linalg::lu_solve_inplace(kkt, dim, stride, ws.piv_.data(), ws.rhs_.data(),
                           ws.sol_.data());
}

// Stationarity is judged relative to the iterate's scale: MPC problems work
// in MHz (x ~ 1e2..1e3), unit-test problems near 1. The rank test runs only
// when the norm test fails, so it can turn a step the norm test calls
// non-stationary into a stationary one, never the reverse: every solve that
// converges on the norm test alone keeps its bits.
bool QpSolver::stationary(const QpProblem& problem, QpWorkspace& ws) const {
  const std::size_t n = problem.g.size();
  const double stationary_tol =
      options_.stationarity_tolerance * std::max(1.0, ws.x_.norm_inf());
  double p_norm = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    p_norm = std::max(p_norm, std::abs(ws.sol_[r]));
  }
  return p_norm <= stationary_tol || working_rows_span(problem, ws);
}

// Forward elimination of the working rows into ws.span_, one normalised
// pivot row per independent direction, stopping at the n-th. A row counts
// as independent only when its reduced residual keeps more than 1e-9 of its
// own magnitude, so rounding noise on a dependent row (the +- pair of a
// collapsed box) never inflates the rank; a near-dependent set falls back
// to the norm test.
bool QpSolver::working_rows_span(const QpProblem& problem,
                                 QpWorkspace& ws) const {
  const std::size_t n = problem.g.size();
  if (ws.w_.size() < n) return false;
  double* const basis = ws.span_.data();
  std::size_t* const pivot = ws.span_pivot_.data();
  std::size_t rank = 0;
  for (const std::size_t i : ws.w_) {
    double* const v = basis + rank * n;
    const auto row = problem.c.row(i);
    double scale = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      v[j] = row[j];
      scale = std::max(scale, std::abs(row[j]));
    }
    for (std::size_t b = 0; b < rank; ++b) {
      const double f = v[pivot[b]];
      if (f == 0.0) continue;
      const double* const u = basis + b * n;
      for (std::size_t j = 0; j < n; ++j) v[j] -= f * u[j];
    }
    std::size_t jmax = 0;
    double vmax = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (std::abs(v[j]) > vmax) {
        vmax = std::abs(v[j]);
        jmax = j;
      }
    }
    if (vmax <= 1e-9 * scale) continue;  // dependent on the rows so far
    const double inv = 1.0 / v[jmax];
    for (std::size_t j = 0; j < n; ++j) v[j] *= inv;
    v[jmax] = 1.0;  // exact, so later rows eliminate this column to 0.0
    pivot[rank] = jmax;
    if (++rank == n) return true;
  }
  return false;
}

// The cold loop, started at an interior x0 whose unconstrained optimum is
// also interior, does exactly this: (1) factor the bare-Hessian KKT system
// and take the full Newton step (no constraint blocks), (2) refactor the
// *same* H and find the step from the new iterate stationary, converging
// with an empty active set. This method replays that arithmetic — the
// gradient build, the triangular solves, the line-search test, the update
// `x += 1.0 * p` and both stationarity checks use the cold loop's exact
// expressions — against a persistent LU of H instead of two fresh
// factorisations. Every certification failure returns false with ws.x_
// still at x0, so the cold loop runs as if the attempt never happened.
bool QpSolver::try_fast_path(const QpProblem& problem, QpWorkspace& ws) const {
  const std::size_t n = problem.g.size();
  const std::size_t m = problem.c.rows();
  if (!ws.fast_valid_) {
    if (ws.fast_n_ != n) {
      ws.fast_n_ = n;
      ws.fast_h_.resize(n * n);
      ws.fast_lu_.resize(n * n);
      ws.fast_piv_.resize(n);
      ws.fast_x_.resize(n);
    }
    const double* h = problem.h.row(0).data();
    std::copy(h, h + n * n, ws.fast_h_.begin());
    std::copy(h, h + n * n, ws.fast_lu_.begin());
    try {
      linalg::lu_factor_inplace(ws.fast_lu_.data(), n, n, ws.fast_piv_.data());
    } catch (const NumericalError&) {
      return false;  // near-singular H: let the cold loop report it
    }
    ws.fast_valid_ = true;
  }

  // Gradient and Newton step at x0 — kkt_solve's arithmetic with k = 0.
  // (LU elimination never reads past column n, so factoring at stride n
  // yields the same bits as the KKT buffer's stride n+m.)
  for (std::size_t r = 0; r < n; ++r) {
    const auto hr = problem.h.row(r);
    double acc = 0.0;
    for (std::size_t c2 = 0; c2 < n; ++c2) acc += hr[c2] * ws.x_[c2];
    ws.grad_[r] = acc + problem.g[r];
  }
  for (std::size_t r = 0; r < n; ++r) ws.rhs_[r] = -ws.grad_[r];
  linalg::lu_solve_inplace(ws.fast_lu_.data(), n, n, ws.fast_piv_.data(),
                           ws.rhs_.data(), ws.sol_.data());

  const double stationary_tol =
      options_.stationarity_tolerance * std::max(1.0, ws.x_.norm_inf());
  double p_norm = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    p_norm = std::max(p_norm, std::abs(ws.sol_[r]));
  }
  if (p_norm <= stationary_tol) {
    // Already stationary with an empty working set: the cold loop would
    // converge on iteration 1 without moving.
    ws.iterations_ = 1;
    ws.fast_hit_ = true;
    ws.path_ = QpSolvePath::kFastPath;
    return true;
  }

  // Line search over all (inactive ≡ all) constraints. Any blocking
  // constraint (a_i < 1) means the step leaves the interior — fall back.
  const double tol = options_.tolerance;
  const double* const xp = ws.x_.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const double cp = dot_row(problem.c, i, ws.sol_.data(), n);
    if (cp > tol) {
      const double room = problem.b[i] - dot_row(problem.c, i, xp, n);
      const double a_i = std::max(0.0, room / cp);
      if (a_i < 1.0) return false;
    }
  }

  // Full step into the candidate buffer (the cold loop's `x += 1.0 * p`).
  for (std::size_t r = 0; r < n; ++r) {
    ws.fast_x_[r] = ws.x_[r] + 1.0 * ws.sol_[r];
  }

  // Iteration-2 stationarity at the stepped point, same H factorisation.
  for (std::size_t r = 0; r < n; ++r) {
    const auto hr = problem.h.row(r);
    double acc = 0.0;
    for (std::size_t c2 = 0; c2 < n; ++c2) acc += hr[c2] * ws.fast_x_[c2];
    ws.grad_[r] = acc + problem.g[r];
  }
  for (std::size_t r = 0; r < n; ++r) ws.rhs_[r] = -ws.grad_[r];
  linalg::lu_solve_inplace(ws.fast_lu_.data(), n, n, ws.fast_piv_.data(),
                           ws.rhs_.data(), ws.sol_.data());
  double x_scale = 1.0;
  for (std::size_t r = 0; r < n; ++r) {
    x_scale = std::max(x_scale, std::abs(ws.fast_x_[r]));
  }
  const double stat2 = options_.stationarity_tolerance * x_scale;
  double p2_norm = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    p2_norm = std::max(p2_norm, std::abs(ws.sol_[r]));
  }
  if (p2_norm > stat2) return false;

  // Certified: the cold loop's iteration 2 converges here with an empty
  // working set (no multipliers to check).
  for (std::size_t r = 0; r < n; ++r) ws.x_[r] = ws.fast_x_[r];
  ws.iterations_ = 2;
  ws.fast_hit_ = true;
  ws.path_ = QpSolvePath::kFastPath;
  return true;
}

void QpSolver::solve(const QpProblem& problem, const linalg::Vector& x0,
                     QpWorkspace& ws,
                     const std::vector<std::size_t>* warm_start) const {
  const std::size_t n = problem.g.size();
  const std::size_t m = problem.c.rows();
  CAPGPU_REQUIRE(problem.h.rows() == n && problem.h.cols() == n,
                 "Hessian dimension mismatch");
  CAPGPU_REQUIRE(m == problem.b.size(), "constraint dimension mismatch");
  CAPGPU_REQUIRE(m == 0 || problem.c.cols() == n,
                 "constraint column mismatch");
  CAPGPU_REQUIRE(x0.size() == n, "start point dimension mismatch");
  CAPGPU_REQUIRE(is_feasible(problem, x0), "QP start point is infeasible");
  ws.ensure(n, m);
  // Fast-path snapshot: when H's bits match the matrix behind the persistent
  // factorisation, both the SPD check and the refactorisation are skipped —
  // the identical matrix already passed and factored. Any mismatch
  // invalidates the factor and runs the up-front SPD check as before.
  // (The >= 2 guard keeps the tiers equivalent under a starved iteration
  // budget: a fast-path certification stands in for up to two cold
  // iterations, so it must only fire when the cold loop could afford them.)
  const bool fast_enabled =
      options_.fast_path && n > 0 && options_.max_iterations >= 2;
  const bool snapshot_hit =
      fast_enabled && ws.fast_valid_ && ws.fast_n_ == n &&
      std::memcmp(ws.fast_h_.data(), problem.h.row(0).data(),
                  n * n * sizeof(double)) == 0;
  if (!snapshot_hit) {
    ws.fast_valid_ = false;
    // Verify H is SPD up front, as the Cholesky constructor would.
    if (n > 0 && !linalg::cholesky_factor_inplace(problem.h.row(0).data(),
                                                  ws.chol_.data(), n, n)) {
      throw NumericalError("Cholesky: matrix is not positive definite");
    }
  }

  const double tol = options_.tolerance;
  if (ws.x_.size() != n) ws.x_ = linalg::Vector(n);
  for (std::size_t i = 0; i < n; ++i) ws.x_[i] = x0[i];
  std::fill_n(ws.active_.begin(), m, char{0});
  ws.active_set_.clear();
  ws.converged_ = false;
  ws.warm_hit_ = false;
  ws.fast_hit_ = false;
  ws.path_ = QpSolvePath::kColdActiveSet;
  ws.iterations_ = 0;

  const double* const xp = ws.x_.data().data();

  auto finish = [&](bool converged) {
    // objective = 1/2 x^T H x + g^T x, in the reference evaluation order.
    for (std::size_t r = 0; r < n; ++r) {
      const auto hr = problem.h.row(r);
      double acc = 0.0;
      for (std::size_t c2 = 0; c2 < n; ++c2) acc += hr[c2] * ws.x_[c2];
      ws.grad_[r] = acc;
    }
    double xhx = 0.0;
    for (std::size_t i = 0; i < n; ++i) xhx += ws.x_[i] * ws.grad_[i];
    double gx = 0.0;
    for (std::size_t i = 0; i < n; ++i) gx += problem.g[i] * ws.x_[i];
    ws.objective_ = 0.5 * xhx + gx;
    ws.converged_ = converged;
  };

  // Warm start, certify-or-fallback: seed the working set with the warm rows
  // still tight at x0 and accept x0 outright if it proves stationary there
  // with non-negative multipliers — in the controller's steady state (clocks
  // pinned at their bounds, x0 on the rails) the cold iteration ends at
  // exactly x0 too, so the shortcut changes no bits. Any failed check falls
  // through to the unmodified cold solve.
  if (warm_start != nullptr && !warm_start->empty()) {
    ws.w_.clear();
    for (const std::size_t i : *warm_start) {
      if (i >= m) continue;
      if (!ws.w_.empty() && ws.w_.back() >= i) continue;  // need sorted+unique
      const double room = problem.b[i] - dot_row(problem.c, i, xp, n);
      if (room <= 0.0) ws.w_.push_back(i);
    }
    if (!ws.w_.empty()) {
      kkt_solve(problem, ws);
      const std::size_t k = ws.w_.size();
      bool certified = stationary(problem, ws);
      for (std::size_t a = 0; a < k && certified; ++a) {
        certified = ws.sol_[n + a] >= -tol;
      }
      if (certified) {
        ws.iterations_ = 1;
        ws.warm_hit_ = true;
        ws.path_ = QpSolvePath::kWarmCertified;
        ws.active_set_.assign(ws.w_.begin(), ws.w_.end());
        finish(true);
        return;
      }
    }
  }

  // Analytic fast path (interior steady state): certify the unconstrained
  // Newton step from the persistent H factorisation. A hit replicates the
  // cold iteration bit for bit at ~two triangular solves instead of two LU
  // factorisations plus the SPD check.
  if (fast_enabled && try_fast_path(problem, ws)) {
    finish(true);
    return;
  }

  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    ws.iterations_ = iter + 1;

    ws.w_.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (ws.active_[i]) ws.w_.push_back(i);
    }
    const std::size_t k = ws.w_.size();
    kkt_solve(problem, ws);

    if (stationary(problem, ws)) {
      // Stationary on the working set: check multipliers.
      double most_negative = -tol;
      std::size_t drop = m;
      for (std::size_t a = 0; a < k; ++a) {
        const double lambda = ws.sol_[n + a];
        if (lambda < most_negative) {
          most_negative = lambda;
          drop = ws.w_[a];
        }
      }
      if (drop == m) {
        for (std::size_t i = 0; i < m; ++i) {
          if (ws.active_[i]) ws.active_set_.push_back(i);
        }
        finish(true);
        return;
      }
      ws.active_[drop] = 0;
      continue;
    }

    // Line search toward x + p, stopping at the first blocking constraint.
    double alpha = 1.0;
    std::size_t blocking = m;
    for (std::size_t i = 0; i < m; ++i) {
      if (ws.active_[i]) continue;
      const double cp = dot_row(problem.c, i, ws.sol_.data(), n);
      if (cp > tol) {
        const double room = problem.b[i] - dot_row(problem.c, i, xp, n);
        const double a_i = std::max(0.0, room / cp);
        if (a_i < alpha) {
          alpha = a_i;
          blocking = i;
        }
      }
    }
    for (std::size_t r = 0; r < n; ++r) ws.x_[r] += alpha * ws.sol_[r];
    if (blocking != m) ws.active_[blocking] = 1;
  }

  // Iteration budget exhausted; report the best point found, not converged.
  finish(false);
}

QpSolution QpSolver::solve(const QpProblem& problem,
                           const linalg::Vector& x0) const {
  QpWorkspace ws;
  solve(problem, x0, ws, nullptr);
  QpSolution sol;
  sol.x = ws.x();
  sol.objective = ws.objective();
  sol.iterations = ws.iterations();
  sol.converged = ws.converged();
  sol.active_set = ws.active_set();
  return sol;
}

}  // namespace capgpu::control
