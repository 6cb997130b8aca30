#include "tensor/kruskal.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "la/ops.h"

namespace dismastd {

namespace {

/// Scratch for combination weights: stack for the common small ranks, heap
/// beyond. Keeps ValueAt allocation-free on the hot path.
struct WeightScratch {
  static constexpr size_t kStackRank = 64;
  double stack[kStackRank];
  std::vector<double> heap;

  double* Acquire(size_t rank) {
    if (rank <= kStackRank) return stack;
    heap.resize(rank);
    return heap.data();
  }
};

}  // namespace

double KruskalValueAtRows(const double* const* rows, size_t num_rows,
                          size_t rank) {
  if (rank == 0) return 0.0;
  const kernels::KernelTable& kern = kernels::Get();
  if (num_rows == 0) return static_cast<double>(rank);  // empty products
  if (num_rows == 1) {
    const double one = 1.0;
    return kern.dot_strided(rows[0], 1, &one, 0, rank);
  }
  WeightScratch scratch;
  double* weights = scratch.Acquire(rank);
  kern.hadamard_combine(rows, num_rows - 1, rank, weights);
  return kern.dot_strided(weights, 1, rows[num_rows - 1], 1, rank);
}

KruskalTensor::KruskalTensor(std::vector<Matrix> factors)
    : factors_(std::move(factors)) {
  DISMASTD_CHECK(!factors_.empty());
  for (const Matrix& f : factors_) {
    DISMASTD_CHECK(f.cols() == factors_[0].cols());
  }
}

std::vector<uint64_t> KruskalTensor::dims() const {
  std::vector<uint64_t> d(order());
  for (size_t n = 0; n < order(); ++n) d[n] = factors_[n].rows();
  return d;
}

DenseTensor KruskalTensor::Reconstruct() const {
  DenseTensor out(dims());
  const size_t n = order();
  std::vector<uint64_t> index(n, 0);
  const std::vector<uint64_t> d = dims();
  size_t total = 1;
  for (uint64_t v : d) total *= static_cast<size_t>(v);
  for (size_t linear = 0; linear < total; ++linear) {
    size_t rem = linear;
    for (size_t m = 0; m < n; ++m) {
      index[m] = rem % d[m];
      rem /= d[m];
    }
    out.At(index) = ValueAt(index.data());
  }
  return out;
}

double KruskalTensor::ValueAt(const uint64_t* index) const {
  constexpr size_t kStackOrder = 8;
  const size_t n = order();
  const double* stack_rows[kStackOrder];
  std::vector<const double*> heap_rows;
  const double** rows = stack_rows;
  if (n > kStackOrder) {
    heap_rows.resize(n);
    rows = heap_rows.data();
  }
  for (size_t m = 0; m < n; ++m) {
    rows[m] = factors_[m].RowPtr(static_cast<size_t>(index[m]));
  }
  return KruskalValueAtRows(rows, n, rank());
}

double KruskalTensor::NormSquaredViaGrams() const {
  // ‖[[A_1..A_N]]‖² = Σ_{f,g} Π_n (A_nᵀA_n)[f,g]: the sum of all elements
  // of the Hadamard product of the Grams.
  const auto gram = [](const Matrix& a) {
    return TransposeTimesRows(a, a, 0, a.rows());
  };
  Matrix acc = gram(factors_[0]);
  for (size_t m = 1; m < order(); ++m) {
    HadamardInPlace(acc, gram(factors_[m]));
  }
  return SumAll(acc);
}

double KruskalTensor::InnerWithSparse(const SparseTensor& x) const {
  DISMASTD_CHECK(x.order() == order());
  const size_t n = order();
  std::vector<const double*> rows(n);
  double total = 0.0;
  for (size_t e = 0; e < x.nnz(); ++e) {
    const uint64_t* idx = x.IndexTuple(e);
    for (size_t m = 0; m < n; ++m) {
      rows[m] = factors_[m].RowPtr(static_cast<size_t>(idx[m]));
    }
    total += x.Value(e) * KruskalValueAtRows(rows.data(), n, rank());
  }
  return total;
}

double KruskalTensor::ResidualNormSquared(const SparseTensor& x) const {
  const double value = x.NormSquared() + NormSquaredViaGrams() -
                       2.0 * InnerWithSparse(x);
  // Guard tiny negative values from floating-point cancellation.
  return value < 0.0 ? 0.0 : value;
}

double KruskalTensor::Fit(const SparseTensor& x) const {
  const double xnorm = std::sqrt(x.NormSquared());
  if (xnorm == 0.0) return 0.0;
  const double fit = 1.0 - std::sqrt(ResidualNormSquared(x)) / xnorm;
  return fit;
}

Matrix TransposeTimesRows(const Matrix& a, const Matrix& b, size_t begin,
                          size_t end) {
  DISMASTD_CHECK(a.cols() == b.cols());
  DISMASTD_CHECK(begin <= end && end <= a.rows() && end <= b.rows());
  const size_t rank = a.cols();
  Matrix out(rank, rank);
  const kernels::KernelTable& kern = kernels::Get();
  // The kernel takes a row list; the range is handed over in chunks.
  constexpr size_t kChunk = 1024;
  uint64_t rows[kChunk];
  for (size_t r0 = begin; r0 < end; r0 += kChunk) {
    const size_t n = std::min(kChunk, end - r0);
    for (size_t i = 0; i < n; ++i) rows[i] = r0 + i;
    kern.gram_update_rows(a.data(), b.data(), rows, n, rank, out.data());
  }
  return out;
}

double KruskalInner(const KruskalTensor& a, const KruskalTensor& b) {
  DISMASTD_CHECK(a.order() == b.order());
  Matrix acc = TransposeTimes(a.factor(0), b.factor(0));
  for (size_t m = 1; m < a.order(); ++m) {
    HadamardInPlace(acc, TransposeTimes(a.factor(m), b.factor(m)));
  }
  return SumAll(acc);
}

}  // namespace dismastd
