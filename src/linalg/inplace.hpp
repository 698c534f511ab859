// Allocation-free Cholesky on a caller-owned strided buffer.
//
// The QP solver factors the MPC Hessian once per control period; a
// Cholesky object (which owns its storage) would allocate on every solve.
// This variant runs the *identical* arithmetic on the leading n x n block
// of a row-major buffer with a fixed leading stride, so a workspace sized
// for the largest system serves every smaller one without touching the
// heap.
#pragma once

#include <cstddef>

namespace capgpu::linalg {

/// Cholesky A = L L^T of the leading n x n block of `a` into the lower
/// triangle of `l` (both row-major with leading stride `stride`; the upper
/// triangle of `l` is left untouched and never read). Returns false when the
/// matrix is not positive definite — the caller decides whether to throw,
/// matching the Cholesky constructor's NumericalError.
[[nodiscard]] bool cholesky_factor_inplace(const double* a, double* l,
                                           std::size_t n, std::size_t stride);

}  // namespace capgpu::linalg
