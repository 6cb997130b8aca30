#include "la/solve.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/kernels.h"
#include "la/ops.h"

namespace dismastd {
namespace {

Matrix RandomSpd(size_t n, uint64_t seed) {
  Rng rng(seed);
  const Matrix a = Matrix::Random(n + 2, n, rng);
  Matrix spd = TransposeTimes(a, a);
  for (size_t i = 0; i < n; ++i) spd(i, i) += 0.1;  // safely PD
  return spd;
}

TEST(CholeskyTest, FactorReconstructs) {
  const Matrix a = RandomSpd(5, 11);
  Matrix lower;
  ASSERT_TRUE(CholeskyFactor(a, &lower).ok());
  const Matrix rebuilt = MatMul(lower, Transpose(lower));
  EXPECT_TRUE(rebuilt.AllClose(a, 1e-9));
}

TEST(CholeskyTest, FailsOnIndefinite) {
  Matrix indef = Matrix::Identity(3);
  indef(2, 2) = -1.0;
  Matrix lower;
  const Status s = CholeskyFactor(indef, &lower);
  EXPECT_EQ(s.code(), StatusCode::kNumericalError);
}

TEST(CholeskyTest, FailsOnZeroMatrix) {
  Matrix lower;
  EXPECT_FALSE(CholeskyFactor(Matrix(3, 3), &lower).ok());
}

TEST(SolveFactoredRowsTest, SolvesRowSystems) {
  const Matrix a = RandomSpd(4, 13);
  Rng rng(17);
  const Matrix x_true = Matrix::Random(6, 4, rng);  // 6 row systems
  Matrix x = MatMul(x_true, a);                     // rhs = X·A (A symmetric)
  FactoredNormalEquations factored;
  ASSERT_TRUE(CholeskyFactor(a, &factored.lower).ok());
  SolveFactoredRowsInPlace(factored, &x);
  EXPECT_TRUE(x.AllClose(x_true, 1e-8));
}

TEST(SolveNormalEquationsTest, MatchesCholeskyOnWellConditioned) {
  const Matrix a = RandomSpd(4, 19);
  Rng rng(23);
  const Matrix x_true = Matrix::Random(3, 4, rng);
  const Matrix rhs = MatMul(x_true, a);
  const Matrix x = SolveNormalEquationsRows(a, rhs);
  EXPECT_TRUE(x.AllClose(x_true, 1e-8));
}

TEST(SolveNormalEquationsTest, RidgeRescuesSingularMatrix) {
  // Rank-1 Gram: plain Cholesky fails, the ridge fallback must still
  // produce a finite solution.
  const Matrix v{{1.0, 2.0, 3.0}};
  const Matrix a = MatMul(Transpose(v), v);  // 3x3 rank 1
  const Matrix rhs{{1.0, 2.0, 3.0}};
  const Matrix x = SolveNormalEquationsRows(a, rhs);
  ASSERT_EQ(x.rows(), 1u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(std::isfinite(x(0, c)));
  }
  // Residual of the regularized solve stays small relative to rhs.
  const Matrix back = MatMul(x, a);
  EXPECT_TRUE(back.AllClose(rhs, 1e-3));
}

TEST(SolveNormalEquationsTest, AllZeroGramGivesZeroNotNan) {
  const Matrix a(3, 3);
  const Matrix rhs{{1.0, 1.0, 1.0}};
  const Matrix x = SolveNormalEquationsRows(a, rhs);
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(std::isfinite(x(0, c)));
}

// Test-local copies of the solves as they were before the row-batched
// kernel: the Cholesky row solve as a per-row forward/back loop, and
// SolveNormalEquationsRows refactoring A on every call with its ridge
// ladder and zero fallback. The batched path must match them bit for bit
// on every kernel backend.
Matrix PerRowCholeskySolveRows(const Matrix& lower, const Matrix& rhs_rows) {
  const size_t n = lower.rows();
  Matrix x(rhs_rows.rows(), n);
  std::vector<double> y(n);
  for (size_t r = 0; r < rhs_rows.rows(); ++r) {
    const double* b = rhs_rows.RowPtr(r);
    for (size_t i = 0; i < n; ++i) {
      double sum = b[i];
      for (size_t k = 0; k < i; ++k) sum -= lower(i, k) * y[k];
      y[i] = sum / lower(i, i);
    }
    double* out = x.RowPtr(r);
    for (size_t ii = n; ii-- > 0;) {
      double sum = y[ii];
      for (size_t k = ii + 1; k < n; ++k) sum -= lower(k, ii) * out[k];
      out[ii] = sum / lower(ii, ii);
    }
  }
  return x;
}

Matrix PerRowSolveNormalEquationsRows(const Matrix& a, const Matrix& rhs) {
  const size_t n = a.rows();
  double trace = 0.0;
  for (size_t i = 0; i < n; ++i) trace += a(i, i);
  double ridge = 0.0;
  Matrix lower;
  for (int attempt = 0; attempt < 12; ++attempt) {
    Matrix work = a;
    if (ridge > 0.0) {
      for (size_t i = 0; i < n; ++i) work(i, i) += ridge;
    }
    if (CholeskyFactor(work, &lower).ok()) {
      return PerRowCholeskySolveRows(lower, rhs);
    }
    const double base = trace > 0.0 ? trace / static_cast<double>(n) : 1.0;
    ridge = ridge == 0.0 ? 1e-12 * base : ridge * 100.0;
  }
  return Matrix(rhs.rows(), n);
}

/// Negative definite beyond the ridge ladder's largest shift (1e-12 * 100^10
/// for a non-positive trace), so every retry fails.
Matrix Unfactorable(size_t n) {
  Matrix a = Matrix::Identity(n);
  ScaleInPlace(a, -1e12);
  return a;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(BatchedSolveTest, MatchesPerRowLoopOnEveryBackendAndPath) {
  Rng rng(41);
  std::vector<Matrix> systems;
  systems.push_back(RandomSpd(10, 43));  // factors first time
  const Matrix v = Matrix::Random(1, 7, rng);
  systems.push_back(MatMul(Transpose(v), v));  // rank 1: small ridge
  Matrix negative = Matrix::Identity(5);
  ScaleInPlace(negative, -1.0);
  systems.push_back(negative);  // needs many ridge steps
  systems.push_back(Matrix(4, 4));  // all zero: the first ridge rescues it
  systems.push_back(Unfactorable(6));  // no ridge does: zero fallback
  for (const Matrix& a : systems) {
    const size_t n = a.rows();
    for (size_t rows : {1u, 5u, 8u, 19u}) {
      const Matrix rhs = Matrix::Random(rows, n, rng);
      const Matrix want = PerRowSolveNormalEquationsRows(a, rhs);
      for (size_t b = 0; b < kernels::kNumBackends; ++b) {
        const auto backend = static_cast<kernels::Backend>(b);
        if (!kernels::Supported(backend)) continue;
        ASSERT_TRUE(kernels::ForceBackend(backend).ok());
        EXPECT_TRUE(SameBits(want, SolveNormalEquationsRows(a, rhs)))
            << kernels::BackendName(backend) << " n=" << n
            << " rows=" << rows;
        // One factorisation shared by several right-hand sides.
        const FactoredNormalEquations factored = FactorNormalEquations(a);
        Matrix in_place = rhs;
        SolveFactoredRowsInPlace(factored, &in_place);
        EXPECT_TRUE(SameBits(want, in_place))
            << kernels::BackendName(backend) << " n=" << n;
        if (!factored.zero) {
          FactoredNormalEquations given;
          given.lower = factored.lower;
          Matrix solved = rhs;
          SolveFactoredRowsInPlace(given, &solved);
          EXPECT_TRUE(
              SameBits(PerRowCholeskySolveRows(factored.lower, rhs), solved));
        }
      }
      kernels::ResetDispatch();
    }
  }
}

TEST(BatchedSolveTest, FactorReportsZeroFallback) {
  EXPECT_TRUE(FactorNormalEquations(Unfactorable(3)).zero);
  EXPECT_FALSE(FactorNormalEquations(Matrix(3, 3)).zero);
  EXPECT_FALSE(FactorNormalEquations(RandomSpd(3, 47)).zero);
}

TEST(LuSolveTest, SolvesGeneralSystem) {
  const Matrix a{{0.0, 2.0, 1.0}, {1.0, -2.0, -3.0}, {-1.0, 1.0, 2.0}};
  const Matrix b{{-1.0}, {-1.0}, {1.0}};
  Matrix x;
  ASSERT_TRUE(LuSolve(a, b, &x).ok());
  EXPECT_TRUE(MatMul(a, x).AllClose(b, 1e-10));
}

TEST(LuSolveTest, RequiresPivoting) {
  // a(0,0) == 0 forces a row swap.
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Matrix b{{2.0}, {3.0}};
  Matrix x;
  ASSERT_TRUE(LuSolve(a, b, &x).ok());
  EXPECT_NEAR(x(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
}

TEST(LuSolveTest, SingularFails) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  Matrix x;
  EXPECT_EQ(LuSolve(a, Matrix::Identity(2), &x).code(),
            StatusCode::kNumericalError);
}

TEST(InverseTest, InverseTimesSelfIsIdentity) {
  const Matrix a = RandomSpd(5, 29);
  Matrix inv;
  ASSERT_TRUE(Inverse(a, &inv).ok());
  EXPECT_TRUE(MatMul(a, inv).AllClose(Matrix::Identity(5), 1e-8));
}

class SolveSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SolveSizeTest, CholeskyAndLuAgree) {
  const size_t n = GetParam();
  const Matrix a = RandomSpd(n, 31 + n);
  Rng rng(37 + n);
  const Matrix x_true = Matrix::Random(4, n, rng);
  const Matrix rhs = MatMul(x_true, a);
  // Row-solve via Cholesky.
  const Matrix x_chol = SolveNormalEquationsRows(a, rhs);
  // Column-solve via LU: A Xᵀ = RHSᵀ.
  Matrix xt;
  ASSERT_TRUE(LuSolve(a, Transpose(rhs), &xt).ok());
  EXPECT_TRUE(x_chol.AllClose(Transpose(xt), 1e-7));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSizeTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 10u, 16u));

}  // namespace
}  // namespace dismastd
