#include "linalg/solvers.h"

#include <cmath>

namespace l2r {

namespace {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm(const std::vector<double>& a) { return std::sqrt(Dot(a, a)); }

}  // namespace

Result<SolveStats> ConjugateGradient(const SparseMatrix& a,
                                     const std::vector<double>& b,
                                     std::vector<double>* x,
                                     const SolverOptions& options) {
  const size_t n = a.n();
  if (b.size() != n) return Status::InvalidArgument("b size mismatch");
  x->assign(n, 0);

  std::vector<double> r = b;  // r = b - A*0
  std::vector<double> p = r;
  std::vector<double> ap(n);
  const double b_norm = std::max(1.0, Norm(b));

  SolveStats stats;
  double rs_old = Dot(r, r);
  for (int it = 0; it < options.max_iterations; ++it) {
    stats.iterations = it;
    stats.residual = std::sqrt(rs_old) / b_norm;
    if (stats.residual <= options.tolerance) {
      stats.converged = true;
      return stats;
    }
    a.Multiply(p, &ap);
    const double denom = Dot(p, ap);
    if (denom <= 0) {
      return Status::FailedPrecondition(
          "matrix is not positive definite (pAp <= 0)");
    }
    const double alpha = rs_old / denom;
    for (size_t i = 0; i < n; ++i) {
      (*x)[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rs_new = Dot(r, r);
    const double beta = rs_new / rs_old;
    for (size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rs_old = rs_new;
  }
  stats.iterations = options.max_iterations;
  stats.residual = std::sqrt(rs_old) / b_norm;
  stats.converged = stats.residual <= options.tolerance;
  return stats;
}

Result<std::vector<double>> SolveDense(std::vector<std::vector<double>> a,
                                       std::vector<double> b) {
  const size_t n = b.size();
  for (const auto& row : a) {
    if (row.size() != n) return Status::InvalidArgument("bad matrix shape");
  }
  if (a.size() != n) return Status::InvalidArgument("bad matrix shape");

  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    if (std::abs(a[pivot][col]) < 1e-14) {
      return Status::FailedPrecondition("singular matrix");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      if (f == 0) continue;
      for (size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0);
  for (size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (size_t c = i + 1; c < n; ++c) acc -= a[i][c] * x[c];
    x[i] = acc / a[i][i];
  }
  return x;
}

}  // namespace l2r
