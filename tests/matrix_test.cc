#include "la/matrix.h"

#include <gtest/gtest.h>

namespace dismastd {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ConstructedZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(2, 0), 5.0);
}

TEST(MatrixTest, ElementWrite) {
  Matrix m(2, 2);
  m(1, 0) = 7.5;
  EXPECT_EQ(m(1, 0), 7.5);
  EXPECT_EQ(m.At(1, 0), 7.5);
}

TEST(MatrixTest, RowPtrIsRowMajor) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const double* row1 = m.RowPtr(1);
  EXPECT_EQ(row1[0], 3.0);
  EXPECT_EQ(row1[1], 4.0);
  EXPECT_EQ(m.data()[1], 2.0);
}

TEST(MatrixTest, IdentityHasOnesOnDiagonal) {
  const Matrix eye = Matrix::Identity(3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(eye(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, RandomIsDeterministicPerSeed) {
  Rng a(99), b(99);
  const Matrix ma = Matrix::Random(4, 3, a);
  const Matrix mb = Matrix::Random(4, 3, b);
  EXPECT_TRUE(ma == mb);
  for (size_t i = 0; i < ma.size(); ++i) {
    EXPECT_GE(ma.data()[i], 0.0);
    EXPECT_LT(ma.data()[i], 1.0);
  }
}

TEST(MatrixTest, FillAndResizeZero) {
  Matrix m(2, 2);
  m.Fill(3.0);
  EXPECT_EQ(m(1, 1), 3.0);
  m.ResizeZero(3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m(2, 4), 0.0);
}

TEST(MatrixTest, RowSlice) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Matrix mid = m.RowSlice(1, 3);
  EXPECT_EQ(mid.rows(), 2u);
  EXPECT_EQ(mid(0, 0), 3.0);
  EXPECT_EQ(mid(1, 1), 6.0);
  const Matrix empty = m.RowSlice(2, 2);
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.cols(), 2u);
  // An empty slice of an empty matrix copies nothing (under UBSan, a
  // memcpy from its null data would be reported).
  const Matrix none = Matrix(0, 3).RowSlice(0, 0);
  EXPECT_EQ(none.rows(), 0u);
  EXPECT_EQ(none.cols(), 3u);
}

TEST(MatrixTest, VStack) {
  const Matrix top{{1.0, 2.0}};
  const Matrix bottom{{3.0, 4.0}, {5.0, 6.0}};
  const Matrix stacked = Matrix::VStack(top, bottom);
  EXPECT_EQ(stacked.rows(), 3u);
  EXPECT_EQ(stacked(0, 0), 1.0);
  EXPECT_EQ(stacked(2, 1), 6.0);
}

TEST(MatrixTest, VStackWithEmpty) {
  const Matrix empty(0, 2);
  const Matrix m{{1.0, 2.0}};
  EXPECT_TRUE(Matrix::VStack(empty, m) == m);
  EXPECT_TRUE(Matrix::VStack(m, empty) == m);
}

TEST(MatrixTest, AllClose) {
  const Matrix a{{1.0, 2.0}};
  Matrix b = a;
  b(0, 1) += 1e-12;
  EXPECT_TRUE(a.AllClose(b));
  b(0, 1) += 1.0;
  EXPECT_FALSE(a.AllClose(b));
  EXPECT_FALSE(a.AllClose(Matrix(2, 1)));
}

TEST(MatrixTest, ToStringRendersValues) {
  const Matrix m{{1.0, 2.5}};
  const std::string s = m.ToString();
  EXPECT_NE(s.find("1"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

}  // namespace
}  // namespace dismastd
