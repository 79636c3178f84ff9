// Dense least-squares solvers.
//
// Both the Cynthia loss model (Eq. 1: loss = beta0 * x + beta1, with
// x = 1/s or sqrt(n)/s) and the Optimus baseline speed model are linear in
// their coefficients, so ordinary least squares over a small design matrix
// covers everything the paper fits. A non-negative variant (projected
// coordinate descent) reproduces Optimus' NNLS fitting.
#pragma once

#include <span>
#include <vector>

namespace cynthia::util {

/// Row-major dense matrix just big enough for normal equations.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves the square system A x = b by Gaussian elimination with partial
/// pivoting. Throws std::runtime_error on a singular system.
std::vector<double> solve_linear_system(Matrix a, std::vector<double> b);

/// Ordinary least squares: minimizes ||X beta - y||^2 via normal equations
/// with a small ridge term for conditioning. X is rows x k, y is rows.
std::vector<double> least_squares(const Matrix& x, std::span<const double> y,
                                  double ridge_weight = 1e-12);

/// Non-negative least squares via projected coordinate descent; the Optimus
/// baseline fits its speed-curve coefficients under a >= 0 constraint.
std::vector<double> nnls(const Matrix& x, std::span<const double> y, int max_iters = 2000,
                         double tol = 1e-12);

}  // namespace cynthia::util
