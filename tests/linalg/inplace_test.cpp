// The in-place strided Cholesky must agree bit-for-bit with the allocating
// Cholesky class: the QP solver's iterates depend on it and every bench
// output depends on the iterates.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/inplace.hpp"
#include "linalg/matrix.hpp"

namespace capgpu::linalg {
namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-2.0, 2.0);
  Matrix a = m.transposed() * m;
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;
  return a;
}

TEST(InplaceCholesky, MatchesCholeskyBitwise) {
  Rng rng(7);
  for (const std::size_t n : {1u, 2u, 4u, 9u}) {
    const std::size_t stride = n + 2;
    const Matrix a = random_spd(n, rng);
    std::vector<double> abuf(n * stride, 0.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) abuf[r * stride + c] = a(r, c);
    std::vector<double> lbuf(n * stride, 0.0);
    ASSERT_TRUE(cholesky_factor_inplace(abuf.data(), lbuf.data(), n, stride));

    const Cholesky ref(a);
    // Reconstruct L from a solve of the identity columns is indirect; the
    // factor itself must already match entry for entry.
    Matrix l(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c <= r; ++c) l(r, c) = lbuf[r * stride + c];
    Vector e(n);
    for (std::size_t col = 0; col < n; ++col) {
      for (std::size_t i = 0; i < n; ++i) e[i] = (i == col) ? 1.0 : 0.0;
      const Vector want = ref.solve(e);
      // Forward/back substitution with the in-place factor.
      std::vector<double> y(n);
      for (std::size_t i = 0; i < n; ++i) {
        double acc = e[i];
        for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * y[k];
        y[i] = acc / l(i, i);
      }
      std::vector<double> x(n);
      for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * x[k];
        x[ii] = acc / l(ii, ii);
      }
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], want[i]);
    }
  }
}

TEST(InplaceCholesky, RejectsIndefinite) {
  std::vector<double> a{1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  std::vector<double> l(4, 0.0);
  EXPECT_FALSE(cholesky_factor_inplace(a.data(), l.data(), 2, 2));
}

}  // namespace
}  // namespace capgpu::linalg
