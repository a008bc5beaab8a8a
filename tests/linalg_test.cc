#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/rng.h"
#include "linalg/solvers.h"
#include "linalg/sparse_matrix.h"

namespace l2r {
namespace {

TEST(SparseMatrixTest, AssemblySumsDuplicates) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      3, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 2, 5.0}, {2, 1, -1.0}});
  EXPECT_EQ(m.n(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
}

TEST(SparseMatrixTest, Multiply) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 1, 3.0}});
  std::vector<double> y;
  m.Multiply({1.0, 2.0}, &y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(SparseMatrixTest, RowIteration) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      3, {{1, 0, 4.0}, {1, 2, 5.0}});
  const auto row = m.Row(1);
  ASSERT_EQ(row.size, 2u);
  EXPECT_EQ(row.cols[0], 0u);
  EXPECT_DOUBLE_EQ(row.values[1], 5.0);
  EXPECT_EQ(m.Row(0).size, 0u);
}

TEST(SolveDenseTest, SolvesKnownSystem) {
  auto x = SolveDense({{2, 1}, {1, 3}}, {5, 10});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(SolveDenseTest, SingularRejected) {
  EXPECT_FALSE(SolveDense({{1, 1}, {2, 2}}, {1, 2}).ok());
}

TEST(SolveDenseTest, NeedsPivoting) {
  // Zero pivot in the naive order; partial pivoting handles it.
  auto x = SolveDense({{0, 1}, {1, 0}}, {2, 3});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

/// Generates a random SPD, diagonally dominant sparse system (the shape
/// the transfer step produces: S + mu1*L + mu2*I).
struct RandomSystem {
  SparseMatrix a;
  std::vector<std::vector<double>> dense;
  std::vector<double> b;
};

RandomSystem MakeSystem(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0));
  std::vector<Triplet> triplets;
  // Symmetric off-diagonals (like -mu1 * M).
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!rng.Bernoulli(0.2)) continue;
      const double v = -rng.Uniform(0.1, 1.0);
      dense[i][j] = dense[j][i] = v;
      triplets.push_back({static_cast<uint32_t>(i),
                          static_cast<uint32_t>(j), v});
      triplets.push_back({static_cast<uint32_t>(j),
                          static_cast<uint32_t>(i), v});
    }
  }
  // Diagonally dominant diagonal (like S + mu1*D + mu2).
  for (size_t i = 0; i < n; ++i) {
    double off = 0;
    for (size_t j = 0; j < n; ++j) off += std::abs(dense[i][j]);
    const double v = off + rng.Uniform(0.5, 2.0);
    dense[i][i] = v;
    triplets.push_back({static_cast<uint32_t>(i),
                        static_cast<uint32_t>(i), v});
  }
  RandomSystem sys;
  sys.a = SparseMatrix::FromTriplets(n, std::move(triplets));
  sys.dense = std::move(dense);
  sys.b.resize(n);
  for (size_t i = 0; i < n; ++i) sys.b[i] = rng.Uniform(-5, 5);
  return sys;
}

class SolverParamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverParamTest, CgMatchesDenseOracle) {
  const RandomSystem sys = MakeSystem(GetParam(), 40);
  auto oracle = SolveDense(sys.dense, sys.b);
  ASSERT_TRUE(oracle.ok());
  std::vector<double> x;
  auto stats = ConjugateGradient(sys.a, sys.b, &x);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->converged);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], (*oracle)[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverParamTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(SolverTest, CgRejectsSizeMismatch) {
  const SparseMatrix a = SparseMatrix::FromTriplets(2, {{0, 0, 1}, {1, 1, 1}});
  std::vector<double> x;
  EXPECT_FALSE(ConjugateGradient(a, {1, 2, 3}, &x).ok());
}

TEST(SolverTest, CappedSolversReportMaxIterations) {
  // A 40-unknown system needs far more than 3 iterations at 1e-9, so CG
  // stops at the cap and must say so.
  const RandomSystem sys = MakeSystem(7, 40);
  SolverOptions opts;
  opts.max_iterations = 3;
  std::vector<double> x;
  auto cg = ConjugateGradient(sys.a, sys.b, &x, opts);
  ASSERT_TRUE(cg.ok());
  EXPECT_EQ(cg->iterations, 3);
  EXPECT_FALSE(cg->converged);
}

TEST(SolverTest, CgSolvesIdentityInstantly) {
  const SparseMatrix a =
      SparseMatrix::FromTriplets(3, {{0, 0, 1}, {1, 1, 1}, {2, 2, 1}});
  std::vector<double> x;
  auto stats = ConjugateGradient(a, {4, 5, 6}, &x);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats->iterations, 2);
  EXPECT_NEAR(x[0], 4, 1e-10);
}

// ---------- block solves: bit-equal to one column at a time ----------

/// Textbook one-column CG, written plainly: the arithmetic every lane of
/// BlockConjugateGradient must reproduce bit for bit.
Result<SolveStats> ReferenceCg(const SparseMatrix& a,
                               const std::vector<double>& b,
                               std::vector<double>* x,
                               const SolverOptions& options) {
  const size_t n = a.n();
  auto dot = [](const std::vector<double>& u, const std::vector<double>& v) {
    double s = 0;
    for (size_t i = 0; i < u.size(); ++i) s += u[i] * v[i];
    return s;
  };
  x->assign(n, 0);
  std::vector<double> r = b;
  std::vector<double> p = r;
  std::vector<double> ap;
  const double b_norm = std::max(1.0, std::sqrt(dot(b, b)));
  SolveStats stats;
  double rs_old = dot(r, r);
  for (int it = 0; it < options.max_iterations; ++it) {
    stats.iterations = it;
    stats.residual = std::sqrt(rs_old) / b_norm;
    if (stats.residual <= options.tolerance) {
      stats.converged = true;
      return stats;
    }
    a.Multiply(p, &ap);
    const double denom = dot(p, ap);
    if (denom <= 0) return Status::FailedPrecondition("pAp <= 0");
    const double alpha = rs_old / denom;
    for (size_t i = 0; i < n; ++i) {
      (*x)[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rs_new = dot(r, r);
    const double beta = rs_new / rs_old;
    for (size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rs_old = rs_new;
  }
  stats.iterations = options.max_iterations;
  stats.residual = std::sqrt(rs_old) / b_norm;
  stats.converged = stats.residual <= options.tolerance;
  return stats;
}

/// Solves every column of `b` in one block, then each with
/// ConjugateGradient and with ReferenceCg, and asserts all three agree
/// bit for bit: status, stats and x. Returns the block's per-column
/// results.
std::vector<Result<SolveStats>> ExpectBlockMatchesColumns(
    const SparseMatrix& a, const std::vector<std::vector<double>>& b,
    const SolverOptions& options = {}) {
  std::vector<std::vector<double>> xs;
  std::vector<Result<SolveStats>> block =
      BlockConjugateGradient(a, b, &xs, options);
  EXPECT_EQ(block.size(), b.size());
  EXPECT_EQ(xs.size(), b.size());
  for (size_t c = 0; c < b.size() && c < block.size(); ++c) {
    std::vector<double> single_x;
    std::vector<double> reference_x;
    Result<SolveStats> single = ConjugateGradient(a, b[c], &single_x, options);
    const Result<SolveStats> reference =
        ReferenceCg(a, b[c], &reference_x, options);
    for (const auto& [got, x] :
         {std::pair(&block[c], &xs[c]), std::pair(&single, &single_x)}) {
      EXPECT_EQ(got->ok(), reference.ok()) << c;
      EXPECT_EQ(got->status().code(), reference.status().code()) << c;
      if (got->ok() && reference.ok()) {
        EXPECT_EQ((*got)->iterations, reference->iterations) << c;
        EXPECT_EQ((*got)->converged, reference->converged) << c;
        EXPECT_EQ(std::memcmp(&(*got)->residual, &reference->residual,
                              sizeof(double)),
                  0)
            << c;
      }
      EXPECT_EQ(x->size(), reference_x.size()) << c;
      if (x->size() != reference_x.size()) continue;
      EXPECT_EQ(std::memcmp(x->data(), reference_x.data(),
                            x->size() * sizeof(double)),
                0)
          << c;
    }
  }
  return block;
}

/// Right-hand sides for `sys`: its own b, unit vectors and random ones.
std::vector<std::vector<double>> BlockColumns(const RandomSystem& sys,
                                              size_t count, uint64_t seed) {
  Rng rng(seed);
  const size_t n = sys.b.size();
  std::vector<std::vector<double>> b = {sys.b};
  while (b.size() < count) {
    std::vector<double> col(n, 0);
    if (b.size() % 2 == 1) {
      col[rng.Index(n)] = 1;
    } else {
      for (double& v : col) v = rng.Uniform(-1, 1);
    }
    b.push_back(std::move(col));
  }
  return b;
}

TEST(BlockSolverTest, ZeroRightHandSideTakesNoIterations) {
  const RandomSystem sys = MakeSystem(11, 30);
  std::vector<std::vector<double>> b = {std::vector<double>(30, 0), sys.b,
                                        std::vector<double>(30, 0)};
  const auto block = ExpectBlockMatchesColumns(sys.a, b);
  ASSERT_TRUE(block[0].ok() && block[2].ok());
  EXPECT_EQ(block[0]->iterations, 0);
  EXPECT_TRUE(block[0]->converged);
  EXPECT_EQ(block[2]->iterations, 0);
  ASSERT_TRUE(block[1].ok());
  EXPECT_GT(block[1]->iterations, 0);
}

TEST(BlockSolverTest, ColumnsConvergingAtDifferentIterations) {
  // A block-diagonal system, diag(A5, A55): a column living on the small
  // block converges in at most 5 iterations, one on the large block takes
  // far more. Widths 1 to 4 and one beyond a block (4 + 3).
  const RandomSystem small = MakeSystem(12, 5);
  const RandomSystem large = MakeSystem(13, 55);
  std::vector<Triplet> triplets;
  for (uint32_t r = 0; r < 60; ++r) {
    const RandomSystem& sys = r < 5 ? small : large;
    const uint32_t base = r < 5 ? 0 : 5;
    const auto row = sys.a.Row(r - base);
    for (size_t k = 0; k < row.size; ++k) {
      triplets.push_back({r, row.cols[k] + base, row.values[k]});
    }
  }
  const SparseMatrix a = SparseMatrix::FromTriplets(60, std::move(triplets));
  Rng rng(14);
  std::vector<std::vector<double>> columns;
  for (size_t c = 0; c < 7; ++c) {
    // Cycles through: small block only, large block only, both.
    std::vector<double> col(60, 0);
    const size_t lo = c % 3 == 1 ? 5 : 0;
    const size_t hi = c % 3 == 0 ? 5 : 60;
    for (size_t i = lo; i < hi; ++i) col[i] = rng.Uniform(-1, 1);
    columns.push_back(std::move(col));
  }
  for (const size_t width : {1u, 2u, 3u, 4u, 7u}) {
    const std::vector<std::vector<double>> b(columns.begin(),
                                             columns.begin() + width);
    const auto block = ExpectBlockMatchesColumns(a, b);
    for (const auto& col : block) {
      ASSERT_TRUE(col.ok());
      EXPECT_TRUE(col->converged);
    }
    if (width >= 2) {
      EXPECT_LE(block[0]->iterations, 5) << width;
      EXPECT_GT(block[1]->iterations, 5) << width;
    }
  }
}

TEST(BlockSolverTest, ColumnCappedByMaxIterations) {
  // The zero column converges at once; the others stop at the cap.
  const RandomSystem sys = MakeSystem(13, 40);
  std::vector<std::vector<double>> b = BlockColumns(sys, 3, 7);
  b.insert(b.begin() + 1, std::vector<double>(40, 0));
  SolverOptions opts;
  opts.max_iterations = 5;
  const auto block = ExpectBlockMatchesColumns(sys.a, b, opts);
  ASSERT_TRUE(block[1].ok());
  EXPECT_TRUE(block[1]->converged);
  EXPECT_EQ(block[1]->iterations, 0);
  ASSERT_TRUE(block[0].ok());
  EXPECT_FALSE(block[0]->converged);
  EXPECT_EQ(block[0]->iterations, 5);
}

TEST(BlockSolverTest, NonSpdMatrixFailsPerColumn) {
  // diag(2, -1, 3): a column living on the positive entries converges in
  // one step; one that reaches the negative entry hits pAp <= 0.
  const SparseMatrix a =
      SparseMatrix::FromTriplets(3, {{0, 0, 2}, {1, 1, -1}, {2, 2, 3}});
  const std::vector<std::vector<double>> b = {
      {1, 0, 0}, {0, 1, 0}, {0, 0, 0}, {1, 1, 1}, {0, 0, 4}};
  const auto block = ExpectBlockMatchesColumns(a, b);
  EXPECT_TRUE(block[0].ok());
  EXPECT_EQ(block[1].status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(block[2].ok());
  EXPECT_EQ(block[3].status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(block[4].ok());
}

TEST(BlockSolverTest, SizeMismatchFailsOnlyThatColumn) {
  const SparseMatrix a = SparseMatrix::FromTriplets(2, {{0, 0, 1}, {1, 1, 1}});
  std::vector<std::vector<double>> x;
  const std::vector<std::vector<double>> b = {{1, 2}, {1, 2, 3}};
  const auto block = BlockConjugateGradient(a, b, &x);
  ASSERT_EQ(block.size(), 2u);
  EXPECT_TRUE(block[0].ok());
  EXPECT_EQ(block[1].status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace l2r
