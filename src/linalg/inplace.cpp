#include "linalg/inplace.hpp"

#include <cmath>

namespace capgpu::linalg {

// Mirrors Cholesky::Cholesky (cholesky.cpp), with the throw replaced by a
// false return so hot paths can reject without an exception.
bool cholesky_factor_inplace(const double* a, double* l, std::size_t n,
                             std::size_t stride) {
  for (std::size_t j = 0; j < n; ++j) {
    double d = a[j * stride + j];
    for (std::size_t k = 0; k < j; ++k) d -= l[j * stride + k] * l[j * stride + k];
    if (d <= 0.0) return false;
    l[j * stride + j] = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a[i * stride + j];
      for (std::size_t k = 0; k < j; ++k) s -= l[i * stride + k] * l[j * stride + k];
      l[i * stride + j] = s / l[j * stride + j];
    }
  }
  return true;
}

}  // namespace capgpu::linalg
