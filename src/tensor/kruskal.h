#ifndef DISMASTD_TENSOR_KRUSKAL_H_
#define DISMASTD_TENSOR_KRUSKAL_H_

#include <vector>

#include "la/matrix.h"
#include "tensor/coo_tensor.h"
#include "tensor/dense_tensor.h"

namespace dismastd {

/// CP / Kruskal tensor: X ≈ [[A_1, ..., A_N]], the sum over f of the outer
/// product of the factors' f-th columns. All factor matrices share the
/// column count R (the rank bound).
class KruskalTensor {
 public:
  KruskalTensor() = default;
  explicit KruskalTensor(std::vector<Matrix> factors);

  size_t order() const { return factors_.size(); }
  size_t rank() const { return factors_.empty() ? 0 : factors_[0].cols(); }
  const Matrix& factor(size_t mode) const { return factors_[mode]; }
  Matrix& mutable_factor(size_t mode) { return factors_[mode]; }
  const std::vector<Matrix>& factors() const { return factors_; }

  std::vector<uint64_t> dims() const;

  /// Materializes the full dense tensor (tests / small tensors only).
  DenseTensor Reconstruct() const;

  /// The model's value at one index tuple: Σ_f Π_n A_n[i_n, f].
  double ValueAt(const uint64_t* index) const;

  /// ‖[[A_1..A_N]]‖_F² computed from the R x R Grams:
  /// sum of all elements of (A_1ᵀA_1) * ... * (A_NᵀA_N) (Hadamard).
  /// O(N I R²) instead of materializing the tensor.
  double NormSquaredViaGrams() const;

  /// ⟨X, [[A_1..A_N]]⟩ for a sparse X: Σ_nnz x · Σ_f Π_n A_n[i_n, f].
  double InnerWithSparse(const SparseTensor& x) const;

  /// ‖X - [[A_1..A_N]]‖_F² via the expansion ‖X‖² + ‖Y‖² - 2⟨X,Y⟩,
  /// where only the non-zeros of X are touched.
  double ResidualNormSquared(const SparseTensor& x) const;

  /// Fit = 1 - ‖X - Y‖ / ‖X‖ (clamped at 0 for degenerate X).
  double Fit(const SparseTensor& x) const;

 private:
  std::vector<Matrix> factors_;
};

/// Inner product ⟨[[A_1..A_N]], [[B_1..B_N]]⟩ of two Kruskal tensors with
/// identical dims, computed from cross-Grams: sum of all elements of
/// (A_1ᵀB_1) * ... * (A_NᵀB_N). Used by the paper's L^(0,0,0) loss term.
double KruskalInner(const KruskalTensor& a, const KruskalTensor& b);

/// The R x R product AᵀB over rows [begin, end) of both factors (a and b
/// share their column count), through the dispatched gram_update_rows
/// kernel: every element adds its rank-1 terms in row order, so the result
/// is bit-identical on every backend and, for finite factors, to
/// TransposeTimes of the two row ranges.
Matrix TransposeTimesRows(const Matrix& a, const Matrix& b, size_t begin,
                          size_t end);

/// The canonical Hadamard-dot evaluation Σ_f Π_m rows[m][f], routed
/// through the dispatched compute kernels. Both KruskalTensor::ValueAt and
/// ServableModel point predictions call this — it is the single
/// implementation of brute-force Kruskal scoring.
double KruskalValueAtRows(const double* const* rows, size_t num_rows,
                          size_t rank);

}  // namespace dismastd

#endif  // DISMASTD_TENSOR_KRUSKAL_H_
