#include "kernels/quantized.h"

#include <cmath>

#include "kernels/kernels_detail.h"

namespace dismastd {
namespace kernels {

Bf16Matrix QuantizeBf16(const Matrix& source) {
  Bf16Matrix q;
  q.rows = source.rows();
  q.cols = source.cols();
  q.data.resize(q.rows * q.cols);
  q.col_max_abs_err.assign(q.cols, 0.0);
  if (q.data.empty()) return q;
  Get().f64_to_bf16(source.data(), q.data.size(), q.data.data());
  for (size_t r = 0; r < q.rows; ++r) {
    const double* src = source.RowPtr(r);
    const Bf16* dst = q.RowPtr(r);
    for (size_t c = 0; c < q.cols; ++c) {
      const double err = std::abs(src[c] - detail::Bf16ToF64(dst[c]));
      if (err > q.col_max_abs_err[c]) q.col_max_abs_err[c] = err;
    }
  }
  return q;
}

namespace {

/// Rounds x to the nearest integer, ties to even, for |x| < 2^51: adding
/// and subtracting 1.5 * 2^52 leaves no fraction bits, so the FPU's
/// round-to-nearest-even does the rounding. Equals std::nearbyint there
/// (a -0.5 < x < 0 input gives +0.0 instead of -0.0; both cast to code 0),
/// and inlines where nearbyint is a libm call.
inline double RoundHalfEven(double x) {
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  return (x + kShift) - kShift;
}

}  // namespace

Int8Matrix QuantizeInt8(const Matrix& source) {
  Int8Matrix q;
  q.rows = source.rows();
  q.cols = source.cols();
  q.data.resize(q.rows * q.cols);
  q.col_scale.assign(q.cols, 0.0);
  q.col_max_abs_err.assign(q.cols, 0.0);
  if (q.data.empty()) return q;
  // Column maxima in one row-major pass, held in col_scale until they
  // become scales; the max does not depend on the order it is taken in.
  for (size_t r = 0; r < q.rows; ++r) {
    const double* src = source.RowPtr(r);
    for (size_t c = 0; c < q.cols; ++c) {
      const double a = std::abs(src[c]);
      if (a > q.col_scale[c]) q.col_scale[c] = a;
    }
  }
  for (double& scale : q.col_scale) {
    scale = scale > 0.0 ? scale / 127.0 : 0.0;
  }
  for (size_t r = 0; r < q.rows; ++r) {
    const double* src = source.RowPtr(r);
    int8_t* dst = q.data.data() + r * q.cols;
    for (size_t c = 0; c < q.cols; ++c) {
      const double scale = q.col_scale[c];
      double code = 0.0;
      if (scale > 0.0) {
        // |src / scale| <= 127 (up to rounding), far inside the exact range.
        code = RoundHalfEven(src[c] / scale);
        if (code > 127.0) code = 127.0;
        if (code < -127.0) code = -127.0;
      }
      dst[c] = static_cast<int8_t>(code);
      const double err = std::abs(src[c] - code * scale);
      if (err > q.col_max_abs_err[c]) q.col_max_abs_err[c] = err;
    }
  }
  return q;
}

Matrix Dequantize(const Bf16Matrix& q) {
  Matrix m(q.rows, q.cols);
  if (!q.data.empty()) {
    Get().bf16_to_f64(q.data.data(), q.data.size(), m.data());
  }
  return m;
}

Matrix Dequantize(const Int8Matrix& q) {
  Matrix m(q.rows, q.cols);
  for (size_t r = 0; r < q.rows; ++r) {
    const int8_t* src = q.RowPtr(r);
    double* dst = m.RowPtr(r);
    for (size_t c = 0; c < q.cols; ++c) {
      dst[c] = static_cast<double>(src[c]) * q.col_scale[c];
    }
  }
  return m;
}

}  // namespace kernels
}  // namespace dismastd
