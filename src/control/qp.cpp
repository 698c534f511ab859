#include "control/qp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

/// Plane rotation taking (a, b) to (sqrt(a^2 + b^2), 0).
struct Givens {
  double cs{1.0};
  double sn{0.0};

  Givens(double a, double b) {
    const double h = std::sqrt(a * a + b * b);
    if (h > 0.0) {
      cs = a / h;
      sn = b / h;
    }
  }
  void apply(double& a, double& b) const {
    const double t = cs * a + sn * b;
    b = cs * b - sn * a;
    a = t;
  }
  /// Rotates two length-`len` rows as one.
  void apply(double* p, double* q, std::size_t len) const {
    for (std::size_t i = 0; i < len; ++i) apply(p[i], q[i]);
  }
};

}  // namespace

void QpWorkspace::ensure(std::size_t n, std::size_t m) {
  if (n <= cap_n_ && m <= cap_m_) return;
  cap_n_ = std::max(cap_n_, n);
  cap_m_ = std::max(cap_m_, m);
  l_.resize(cap_n_ * cap_n_);
  jt_.resize(cap_n_ * cap_n_);
  r_.resize(cap_n_ * cap_n_);
  d_.resize(cap_n_);
  z_.resize(cap_n_);
  dr_.resize(cap_n_);
  u_.resize(cap_n_);
  a_.resize(cap_n_);
  active_.resize(cap_m_);
  lambda_.reserve(cap_m_);
  active_set_.reserve(cap_m_);
}

bool QpCertificate::holds() const {
  constexpr double kTolerance = 1e-7;
  return primal <= kTolerance && stationarity <= kTolerance &&
         dual <= kTolerance && complementarity <= kTolerance;
}

QpCertificate certify(const QpProblem& problem, const linalg::Vector& x,
                      const std::vector<double>& multipliers) {
  const std::size_t n = problem.g.size();
  const std::size_t m = problem.c.rows();
  CAPGPU_REQUIRE(x.size() == n && multipliers.size() == m,
                 "certificate dimension mismatch");
  const double* const xp = x.data().data();
  QpCertificate cert;
  double scale = 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    // H is symmetric, so its row j is column j.
    const double hx = dot_row(problem.h, j, xp, n);
    double residual = hx + problem.g[j];
    for (std::size_t i = 0; i < m; ++i) {
      residual += problem.c(i, j) * multipliers[i];
    }
    scale = std::max({scale, std::abs(hx), std::abs(problem.g[j])});
    cert.stationarity = std::max(cert.stationarity, std::abs(residual));
  }
  for (std::size_t i = 0; i < m; ++i) {
    const double slack = problem.b[i] - dot_row(problem.c, i, xp, n);
    cert.primal = std::max(cert.primal, -slack);
    cert.dual = std::max(cert.dual, -multipliers[i]);
    cert.complementarity =
        std::max(cert.complementarity, std::abs(multipliers[i] * slack));
  }
  cert.stationarity /= scale;
  cert.dual /= scale;
  cert.complementarity /= scale * std::max(1.0, x.norm_inf());
  return cert;
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

// Goldfarb–Idnani in the notation of the 1983 paper, for rows written as
// n_i^T x + b_i >= 0 with n_i = -c_i. Between dual steps: x minimises the
// objective with the active rows a_[0..q) held as equalities, their
// multipliers u_[0..q) are >= 0, J^T H J = I, and J^T N = [R; 0] for the
// active normals N = [n_{a_0} ... n_{a_{q-1}}]. J_1 (the first q columns
// of J) spans the active rows; J_2 spans the directions that keep them.
void QpSolver::solve(const QpProblem& problem, QpWorkspace& ws) const {
  const std::size_t n = problem.g.size();
  const std::size_t m = problem.c.rows();
  CAPGPU_REQUIRE(problem.h.rows() == n && problem.h.cols() == n,
                 "Hessian dimension mismatch");
  CAPGPU_REQUIRE(m == problem.b.size(), "constraint dimension mismatch");
  CAPGPU_REQUIRE(m == 0 || problem.c.cols() == n,
                 "constraint column mismatch");
  ws.ensure(n, m);
  double* const l = ws.l_.data();
  double* const jt = ws.jt_.data();
  double* const r = ws.r_.data();
  double* const d = ws.d_.data();
  double* const z = ws.z_.data();
  double* const dr = ws.dr_.data();
  double* const u = ws.u_.data();
  std::size_t* const a = ws.a_.data();

  if (n > 0 && !linalg::cholesky_factor_inplace(problem.h.row(0).data(), l,
                                                n, n)) {
    throw NumericalError("Cholesky: matrix is not positive definite");
  }
  // Unconstrained minimiser x = -H^{-1} g by substitution with L, which is
  // more accurate on an ill-conditioned H than multiplying by J J^T.
  if (ws.x_.size() != n) ws.x_ = linalg::Vector(n);
  double* const x = ws.x_.span().data();
  for (std::size_t i = 0; i < n; ++i) {
    double acc = -problem.g[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l[i * n + k] * x[k];
    x[i] = acc / l[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {
    double acc = x[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= l[k * n + i] * x[k];
    x[i] = acc / l[i * n + i];
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::fill_n(ws.active_.begin(), m, char{0});
  std::size_t q = 0;
  std::size_t steps = 0;
  bool converged = false;
  bool stuck = false;
  while (!stuck) {
    // Step 1: the most violated inactive row; none left means optimal.
    std::size_t p = m;
    double s_p = -options_.tolerance;
    for (std::size_t i = 0; i < m; ++i) {
      if (ws.active_[i]) continue;
      const double s = problem.b[i] - dot_row(problem.c, i, x, n);
      if (s < s_p) {
        s_p = s;
        p = i;
      }
    }
    if (p == m) {
      converged = true;
      break;
    }

    if (steps == 0) {
      // First violated row: J = L^{-T} (no row active yet), so J^T = L^{-1}
      // by forward substitution. An interior solve never needs it.
      for (std::size_t i = 0; i < n; ++i) {
        double* const row = jt + i * n;
        for (std::size_t c = 0; c < i; ++c) {
          double acc = 0.0;
          for (std::size_t k = c; k < i; ++k) {
            acc += l[i * n + k] * jt[k * n + c];
          }
          row[c] = -acc / l[i * n + i];
        }
        row[i] = 1.0 / l[i * n + i];
        std::fill(row + i + 1, row + n, 0.0);
      }
    }

    // Step 2: raise p's multiplier from zero until p is tight, dropping
    // every active row whose multiplier reaches zero first.
    const auto cp = problem.c.row(p);
    double u_p = 0.0;
    for (;;) {
      if (steps == options_.max_iterations) {
        stuck = true;
        break;
      }
      // d = J^T n_p; z = J_2 d_2 is the primal direction and z^T n_p =
      // |d_2|^2; dr = R^{-1} d_1 is the rate at which the active
      // multipliers fall.
      double dd = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double* const jk = jt + k * n;
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) acc -= jk[i] * cp[i];
        d[k] = acc;
        dd += acc * acc;
      }
      std::fill_n(z, n, 0.0);
      double zn = 0.0;
      for (std::size_t k = q; k < n; ++k) {
        zn += d[k] * d[k];
        const double* const jk = jt + k * n;
        for (std::size_t i = 0; i < n; ++i) z[i] += d[k] * jk[i];
      }
      for (std::size_t k = q; k-- > 0;) {
        double acc = d[k];
        for (std::size_t c = k + 1; c < q; ++c) acc -= r[k * n + c] * dr[c];
        dr[k] = acc / r[k * n + k];
      }

      // Partial step: the longest step keeping every multiplier >= 0.
      double t1 = kInf;
      std::size_t drop = q;
      for (std::size_t k = 0; k < q; ++k) {
        if (dr[k] > 0.0 && u[k] / dr[k] < t1) {
          t1 = u[k] / dr[k];
          drop = k;
        }
      }
      // Full step: makes p tight. A row numerically dependent on the active
      // ones has no primal direction (z = 0) and takes a pure dual step.
      const bool dependent = zn <= 1e-20 * dd;
      if (dependent && drop == q) {  // p can never be satisfied: infeasible
        stuck = true;
        break;
      }
      const double t2 = dependent ? kInf : std::max(0.0, -s_p / zn);
      const double t = std::min(t1, t2);
      for (std::size_t k = 0; k < q; ++k) u[k] -= t * dr[k];
      u_p += t;
      if (!dependent) {
        for (std::size_t i = 0; i < n; ++i) x[i] += t * z[i];
      }
      ++steps;

      if (t2 <= t1) {
        // Add p: rotate d_2 onto its first entry (and the matching columns
        // of J), which makes [d_1; |d_2|] R's new last column.
        for (std::size_t k = n - 1; k > q; --k) {
          const Givens rot(d[k - 1], d[k]);
          rot.apply(d[k - 1], d[k]);
          rot.apply(jt + (k - 1) * n, jt + k * n, n);
        }
        for (std::size_t k = 0; k <= q; ++k) r[k * n + q] = d[k];
        a[q] = p;
        u[q] = u_p;
        ws.active_[p] = 1;
        ++q;
        break;
      }

      // Drop the blocking row: delete its column of R, then rotate the
      // Hessenberg remainder back to triangular (and J's columns with it).
      ws.active_[a[drop]] = 0;
      for (std::size_t k = drop; k + 1 < q; ++k) {
        a[k] = a[k + 1];
        u[k] = u[k + 1];
        for (std::size_t i = 0; i <= k + 1; ++i) {
          r[i * n + k] = r[i * n + k + 1];
        }
      }
      --q;
      for (std::size_t k = drop; k < q; ++k) {
        const Givens rot(r[k * n + k], r[(k + 1) * n + k]);
        for (std::size_t c = k; c < q; ++c) {
          rot.apply(r[k * n + c], r[(k + 1) * n + c]);
        }
        rot.apply(jt + k * n, jt + (k + 1) * n, n);
      }
      s_p = problem.b[p] - dot_row(problem.c, p, x, n);
    }
  }

  ws.iterations_ = steps;
  ws.converged_ = converged;
  ws.lambda_.assign(m, 0.0);
  for (std::size_t k = 0; k < q; ++k) ws.lambda_[a[k]] = u[k];
  ws.active_set_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    if (ws.active_[i]) ws.active_set_.push_back(i);
  }
  double xhx = 0.0;
  double gx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    xhx += x[i] * dot_row(problem.h, i, x, n);
    gx += problem.g[i] * x[i];
  }
  ws.objective_ = 0.5 * xhx + gx;
}

QpSolution QpSolver::solve(const QpProblem& problem) const {
  QpWorkspace ws;
  solve(problem, ws);
  return {ws.x(),         ws.objective(),  ws.iterations(),
          ws.converged(), ws.active_set(), ws.multipliers()};
}

}  // namespace capgpu::control
