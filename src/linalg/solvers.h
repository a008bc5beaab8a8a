#ifndef L2R_LINALG_SOLVERS_H_
#define L2R_LINALG_SOLVERS_H_

#include <vector>

#include "common/result.h"
#include "linalg/sparse_matrix.h"

namespace l2r {

struct SolverOptions {
  int max_iterations = 2000;
  /// Convergence on the relative residual ||Ax-b|| / max(1, ||b||).
  double tolerance = 1e-9;
};

struct SolveStats {
  int iterations = 0;
  double residual = 0;
  bool converged = false;
};

/// Conjugate gradient for symmetric positive definite systems — the
/// iterative method this reproduction uses for Eq. 3 (the paper cites CG
/// [42] and Jacobi [39]).
Result<SolveStats> ConjugateGradient(const SparseMatrix& a,
                                     const std::vector<double>& b,
                                     std::vector<double>* x,
                                     const SolverOptions& options = {});

/// Dense Gaussian elimination with partial pivoting; O(n^3). Test oracle
/// and small-system fallback.
Result<std::vector<double>> SolveDense(std::vector<std::vector<double>> a,
                                       std::vector<double> b);

}  // namespace l2r

#endif  // L2R_LINALG_SOLVERS_H_
