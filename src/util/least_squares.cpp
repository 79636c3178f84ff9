#include "util/least_squares.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cynthia::util {

std::vector<double> solve_linear_system(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_linear_system: dimensions mismatch");
  }
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (std::abs(a(pivot, col)) < 1e-14) {
      throw std::runtime_error("solve_linear_system: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      if (factor == 0.0) continue;  // cynthia-lint: allow(FLT-001) — exact-zero pivot skip
      for (std::size_t c = col; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * x[c];
    x[ri] = acc / a(ri, ri);
  }
  return x;
}

std::vector<double> least_squares(const Matrix& x, std::span<const double> y, double ridge_weight) {
  const std::size_t rows = x.rows();
  const std::size_t k = x.cols();
  if (y.size() != rows) throw std::invalid_argument("least_squares: y size mismatch");
  if (rows < k) throw std::invalid_argument("least_squares: underdetermined system");
  Matrix xtx(k, k);
  std::vector<double> xty(k, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      xty[i] += x(r, i) * y[r];
      for (std::size_t j = 0; j < k; ++j) xtx(i, j) += x(r, i) * x(r, j);
    }
  }
  for (std::size_t i = 0; i < k; ++i) xtx(i, i) += ridge_weight;
  return solve_linear_system(std::move(xtx), std::move(xty));
}

std::vector<double> nnls(const Matrix& x, std::span<const double> y, int max_iters, double tol) {
  const std::size_t rows = x.rows();
  const std::size_t k = x.cols();
  if (y.size() != rows) throw std::invalid_argument("nnls: y size mismatch");
  // Projected coordinate descent on the normal equations.
  Matrix xtx(k, k);
  std::vector<double> xty(k, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      xty[i] += x(r, i) * y[r];
      for (std::size_t j = 0; j < k; ++j) xtx(i, j) += x(r, i) * x(r, j);
    }
  }
  std::vector<double> beta(k, 0.0);
  for (int it = 0; it < max_iters; ++it) {
    double max_delta = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      if (xtx(i, i) <= 0.0) continue;
      double grad = xty[i];
      for (std::size_t j = 0; j < k; ++j) grad -= xtx(i, j) * beta[j];
      const double candidate = std::max(0.0, beta[i] + grad / xtx(i, i));
      max_delta = std::max(max_delta, std::abs(candidate - beta[i]));
      beta[i] = candidate;
    }
    if (max_delta < tol) break;
  }
  return beta;
}

}  // namespace cynthia::util
