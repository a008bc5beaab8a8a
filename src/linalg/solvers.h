#ifndef L2R_LINALG_SOLVERS_H_
#define L2R_LINALG_SOLVERS_H_

#include <span>
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
/// [42] and Jacobi [39]) — on a block of right-hand sides: solves
/// A x[c] = b[c] for every column c, up to four columns per pass over A.
///
/// Each column's arithmetic is that of a solve on its own: the
/// matrix-vector product sums each row in storage order, every dot
/// product sums in row order, and a column stops updating at the
/// iteration where it converges, hits `max_iterations` or fails. Results
/// are therefore bit-equal to one-column solves at any block width.
/// Returns one entry per column; a column whose pAp <= 0 (A not positive
/// definite) gets FailedPrecondition and leaves x[c] where it stopped.
/// `x` is resized to b.size() columns of a.n() entries.
std::vector<Result<SolveStats>> BlockConjugateGradient(
    const SparseMatrix& a, std::span<const std::vector<double>> b,
    std::vector<std::vector<double>>* x, const SolverOptions& options = {});

/// One-column BlockConjugateGradient.
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
