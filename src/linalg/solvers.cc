#include "linalg/solvers.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace l2r {

namespace {

/// Widest block one pass over A serves. Its lanes are compile-time, so
/// each row's accumulators stay in registers.
constexpr size_t kMaxBlockWidth = 4;

/// CG on W columns stored lane-interleaved (entry i of column c at
/// [i * W + c]). Lanes never mix: every loop below does for each lane
/// exactly what the one-column solve does, in the same order. A lane that
/// stops (converged, failed) has its x copied out and its r and p zeroed,
/// so the remaining passes leave it idle.
template <size_t W>
void SolveBlock(const SparseMatrix& a, const std::vector<double>* const* b,
                std::vector<double>* const* x, const SolverOptions& options,
                Result<SolveStats>* out) {
  const size_t n = a.n();
  std::vector<double> xs(n * W, 0);
  std::vector<double> r(n * W);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < W; ++c) r[i * W + c] = (*b[c])[i];
  }
  std::vector<double> p = r;  // r = b - A*0
  std::vector<double> ap(n * W);

  double rs_old[W] = {};
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < W; ++c) rs_old[c] += r[i * W + c] * r[i * W + c];
  }
  double b_norm[W];
  SolveStats stats[W];
  bool active[W];
  for (size_t c = 0; c < W; ++c) {
    b_norm[c] = std::max(1.0, std::sqrt(rs_old[c]));
    active[c] = true;
  }
  size_t live = W;
  auto stop = [&](size_t c, Result<SolveStats> result) {
    x[c]->resize(n);
    for (size_t i = 0; i < n; ++i) {
      (*x[c])[i] = xs[i * W + c];
      r[i * W + c] = 0;
      p[i * W + c] = 0;
    }
    out[c] = std::move(result);
    active[c] = false;
    --live;
  };

  for (int it = 0; it < options.max_iterations && live > 0; ++it) {
    for (size_t c = 0; c < W; ++c) {
      if (!active[c]) continue;
      stats[c].iterations = it;
      stats[c].residual = std::sqrt(rs_old[c]) / b_norm[c];
      if (stats[c].residual <= options.tolerance) {
        stats[c].converged = true;
        stop(c, stats[c]);
      }
    }
    if (live == 0) break;

    for (size_t row = 0; row < n; ++row) {
      const SparseMatrix::RowRange range =
          a.Row(static_cast<uint32_t>(row));
      double acc[W] = {};
      for (size_t k = 0; k < range.size; ++k) {
        const double v = range.values[k];
        const double* pk = &p[static_cast<size_t>(range.cols[k]) * W];
        for (size_t c = 0; c < W; ++c) acc[c] += v * pk[c];
      }
      for (size_t c = 0; c < W; ++c) ap[row * W + c] = acc[c];
    }
    double denom[W] = {};
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < W; ++c) denom[c] += p[i * W + c] * ap[i * W + c];
    }
    double alpha[W] = {};
    for (size_t c = 0; c < W; ++c) {
      if (!active[c]) continue;
      if (denom[c] <= 0) {
        stop(c, Status::FailedPrecondition(
                    "matrix is not positive definite (pAp <= 0)"));
        continue;
      }
      alpha[c] = rs_old[c] / denom[c];
    }
    double rs_new[W] = {};
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < W; ++c) {
        xs[i * W + c] += alpha[c] * p[i * W + c];
        r[i * W + c] -= alpha[c] * ap[i * W + c];
        rs_new[c] += r[i * W + c] * r[i * W + c];
      }
    }
    double beta[W] = {};
    for (size_t c = 0; c < W; ++c) {
      if (active[c]) beta[c] = rs_new[c] / rs_old[c];
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < W; ++c) {
        p[i * W + c] = r[i * W + c] + beta[c] * p[i * W + c];
      }
    }
    for (size_t c = 0; c < W; ++c) {
      if (active[c]) rs_old[c] = rs_new[c];
    }
  }
  for (size_t c = 0; c < W; ++c) {
    if (!active[c]) continue;
    stats[c].iterations = options.max_iterations;
    stats[c].residual = std::sqrt(rs_old[c]) / b_norm[c];
    stats[c].converged = stats[c].residual <= options.tolerance;
    stop(c, stats[c]);
  }
}

template <size_t... Ws>
void SolveBlockOfWidth(size_t width, const SparseMatrix& a,
                       const std::vector<double>* const* b,
                       std::vector<double>* const* x,
                       const SolverOptions& options, Result<SolveStats>* out,
                       std::index_sequence<Ws...>) {
  ((width == Ws + 1 ? SolveBlock<Ws + 1>(a, b, x, options, out) : void()),
   ...);
}

}  // namespace

std::vector<Result<SolveStats>> BlockConjugateGradient(
    const SparseMatrix& a, std::span<const std::vector<double>> b,
    std::vector<std::vector<double>>* x, const SolverOptions& options) {
  std::vector<Result<SolveStats>> out(b.size(), SolveStats{});
  x->resize(b.size());
  std::vector<const std::vector<double>*> block_b;
  std::vector<std::vector<double>*> block_x;
  std::vector<size_t> block_cols;
  for (size_t c = 0; c < b.size(); ++c) {
    if (b[c].size() != a.n()) {
      out[c] = Status::InvalidArgument("b size mismatch");
      (*x)[c].assign(a.n(), 0);
      continue;
    }
    block_b.push_back(&b[c]);
    block_x.push_back(&(*x)[c]);
    block_cols.push_back(c);
  }
  std::vector<Result<SolveStats>> block_out(kMaxBlockWidth, SolveStats{});
  for (size_t first = 0; first < block_cols.size(); first += kMaxBlockWidth) {
    const size_t width = std::min(kMaxBlockWidth, block_cols.size() - first);
    SolveBlockOfWidth(width, a, &block_b[first], &block_x[first], options,
                      block_out.data(),
                      std::make_index_sequence<kMaxBlockWidth>());
    for (size_t c = 0; c < width; ++c) {
      out[block_cols[first + c]] = std::move(block_out[c]);
    }
  }
  return out;
}

Result<SolveStats> ConjugateGradient(const SparseMatrix& a,
                                     const std::vector<double>& b,
                                     std::vector<double>* x,
                                     const SolverOptions& options) {
  std::vector<std::vector<double>> xs;
  std::vector<Result<SolveStats>> solved = BlockConjugateGradient(
      a, std::span<const std::vector<double>>(&b, 1), &xs, options);
  *x = std::move(xs[0]);
  return std::move(solved[0]);
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
