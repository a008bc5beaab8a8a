#include <gtest/gtest.h>

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

TEST(SparseMatrixTest, DiagonalExtraction) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      3, {{0, 0, 2.0}, {1, 1, -1.0}, {0, 2, 9.0}});
  const auto d = m.Diagonal();
  EXPECT_EQ(d, (std::vector<double>{2.0, -1.0, 0.0}));
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

}  // namespace
}  // namespace l2r
