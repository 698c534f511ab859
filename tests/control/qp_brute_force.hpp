// Exhaustive reference optimum for small QPs, shared by the solver tests.
//
// The exact optimum is found by enumeration: try every subset of at most n
// constraints as the active set, solve the corresponding equality-
// constrained KKT system, and keep the best feasible candidate with
// non-negative multipliers. Exponential in the row count, so only for
// problems with a dozen or so rows.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "control/qp.hpp"
#include "linalg/lu.hpp"

namespace capgpu::control {

/// Optimal x over all active-set hypotheses, or nullopt when no hypothesis
/// is feasible.
inline std::optional<linalg::Vector> brute_force_qp(const QpProblem& p) {
  using linalg::Matrix;
  using linalg::Vector;
  const std::size_t n = p.g.size();
  const std::size_t m = p.c.rows();
  std::optional<Vector> best;
  double best_obj = 0.0;

  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < m; ++i) {
      if (mask & (1u << i)) active.push_back(i);
    }
    if (active.size() > n) continue;

    const std::size_t k = active.size();
    Matrix kkt(n + k, n + k);
    Vector rhs(n + k);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) kkt(r, c) = p.h(r, c);
      rhs[r] = -p.g[r];
    }
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t c = 0; c < n; ++c) {
        kkt(n + a, c) = p.c(active[a], c);
        kkt(c, n + a) = p.c(active[a], c);
      }
      rhs[n + a] = p.b[active[a]];
    }
    Vector sol(n + k);
    try {
      sol = linalg::lu_solve(kkt, rhs);
    } catch (const capgpu::NumericalError&) {
      continue;  // dependent active rows: another hypothesis covers it
    }
    Vector x(n);
    for (std::size_t r = 0; r < n; ++r) x[r] = sol[r];
    // KKT checks: multipliers >= 0 and primal feasibility.
    bool ok = true;
    for (std::size_t a = 0; a < k && ok; ++a) ok = sol[n + a] >= -1e-8;
    if (ok) ok = QpSolver::is_feasible(p, x, 1e-7);
    if (!ok) continue;

    const double obj = 0.5 * x.dot(p.h * x) + p.g.dot(x);
    if (!best || obj < best_obj - 1e-12) {
      best = x;
      best_obj = obj;
    }
  }
  return best;
}

}  // namespace capgpu::control
