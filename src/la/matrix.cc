#include "la/matrix.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace dismastd {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    DISMASTD_CHECK(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Random(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.NextDouble();
  return m;
}

Matrix Matrix::RandomGaussian(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.NextGaussian();
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double Matrix::At(size_t r, size_t c) const {
  DISMASTD_CHECK(r < rows_ && c < cols_);
  return (*this)(r, c);
}

void Matrix::Fill(double value) {
  for (auto& v : data_) v = value;
}

void Matrix::ResizeZero(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

Matrix Matrix::RowSlice(size_t begin, size_t end) const {
  DISMASTD_CHECK(begin <= end && end <= rows_);
  Matrix out(end - begin, cols_);
  // memcpy's pointers must be non-null even for zero bytes.
  if (out.size() == 0) return out;
  std::memcpy(out.data(), data_.data() + begin * cols_,
              (end - begin) * cols_ * sizeof(double));
  return out;
}

Matrix Matrix::VStack(const Matrix& top, const Matrix& bottom) {
  if (top.rows() == 0) return bottom;
  if (bottom.rows() == 0) return top;
  DISMASTD_CHECK(top.cols() == bottom.cols());
  Matrix out(top.rows() + bottom.rows(), top.cols());
  std::memcpy(out.data(), top.data(), top.size() * sizeof(double));
  std::memcpy(out.data() + top.size(), bottom.data(),
              bottom.size() * sizeof(double));
  return out;
}

bool Matrix::AllClose(const Matrix& other, double atol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > atol) return false;
  }
  return true;
}

std::string Matrix::ToString() const {
  std::string out = "[";
  for (size_t r = 0; r < rows_; ++r) {
    out += r == 0 ? "[" : " [";
    for (size_t c = 0; c < cols_; ++c) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", (*this)(r, c));
      out += buf;
      if (c + 1 < cols_) out += ", ";
    }
    out += "]";
    if (r + 1 < rows_) out += "\n";
  }
  out += "]";
  return out;
}

}  // namespace dismastd
