#include "core/dtd.h"

#include <cmath>

#include "la/ops.h"
#include "la/solve.h"
#include "tensor/mttkrp.h"

namespace dismastd {

std::vector<Matrix> InitializeDtdFactors(const std::vector<uint64_t>& new_dims,
                                         const std::vector<uint64_t>& old_dims,
                                         const KruskalTensor& prev,
                                         const DecompositionOptions& options) {
  const size_t order = new_dims.size();
  DISMASTD_CHECK(old_dims.size() == order);
  Rng rng(options.seed);
  std::vector<Matrix> factors;
  factors.reserve(order);
  for (size_t n = 0; n < order; ++n) {
    DISMASTD_CHECK(old_dims[n] <= new_dims[n]);
    const size_t d_n = static_cast<size_t>(new_dims[n] - old_dims[n]);
    Matrix fresh = Matrix::Random(d_n, options.rank, rng);
    if (old_dims[n] == 0) {
      factors.push_back(std::move(fresh));
    } else {
      DISMASTD_CHECK(prev.order() == order);
      DISMASTD_CHECK(prev.factor(n).rows() == old_dims[n]);
      DISMASTD_CHECK(prev.factor(n).cols() == options.rank);
      factors.push_back(Matrix::VStack(prev.factor(n), fresh));
    }
  }
  return factors;
}

GramHadamards HadamardOverModes(const std::vector<Matrix>& g0,
                                const std::vector<Matrix>& g1,
                                const std::vector<Matrix>& h, size_t skip) {
  // Zero products when no mode contributes (an order-1 tensor's update).
  const size_t rank = g0.empty() ? 0 : g0[0].rows();
  GramHadamards had{Matrix(rank, rank), Matrix(rank, rank),
                    Matrix(rank, rank)};
  bool first = true;
  for (size_t k = 0; k < g0.size(); ++k) {
    if (k == skip) continue;
    const Matrix g01 = LinearCombine(1.0, g0[k], 1.0, g1[k]);
    if (first) {
      had.h = h[k];
      had.g01 = g01;
      had.g0 = g0[k];
      first = false;
    } else {
      HadamardInPlace(had.h, h[k]);
      HadamardInPlace(had.g01, g01);
      HadamardInPlace(had.g0, g0[k]);
    }
  }
  return had;
}

Matrix OldRowSystem(const GramHadamards& had, double mu) {
  return LinearCombine(1.0, had.g01, -(1.0 - mu), had.g0);
}

DtdLossBase MakeDtdLossBase(const SparseTensor& delta,
                            const std::vector<uint64_t>& old_dims,
                            const KruskalTensor& prev) {
  DtdLossBase base;
  for (uint64_t d : old_dims) base.has_prev = base.has_prev || d > 0;
  if (base.has_prev) base.prev_model_norm_sq = prev.NormSquaredViaGrams();
  base.delta_norm_sq = delta.NormSquared();
  return base;
}

double DtdLoss(const DtdLossBase& base, const GramHadamards& all,
               double inner, double mu) {
  const double a0_model_norm_sq = SumAll(all.g0);
  const double full_model_norm_sq = SumAll(all.g01);
  const double cross = SumAll(all.h);
  double loss = 0.0;
  if (base.has_prev) {
    loss += mu * (base.prev_model_norm_sq + a0_model_norm_sq - 2.0 * cross);
  }
  loss += base.delta_norm_sq + (full_model_norm_sq - a0_model_norm_sq) -
          2.0 * inner;
  return loss < 0.0 ? 0.0 : loss;
}

bool LossConverged(double prev_loss, double loss, double tolerance) {
  if (tolerance <= 0.0 || prev_loss < 0.0) return false;
  const double denom = prev_loss > 0.0 ? prev_loss : 1.0;
  return std::abs(prev_loss - loss) / denom < tolerance;
}

AlsResult DynamicTensorDecomposition(const SparseTensor& delta,
                                     const std::vector<uint64_t>& old_dims,
                                     const KruskalTensor& prev,
                                     const DecompositionOptions& options) {
  const size_t order = delta.order();
  DISMASTD_CHECK(old_dims.size() == order);
  DISMASTD_CHECK(options.rank >= 1);
  const double mu = options.mu;

  std::vector<Matrix> factors =
      InitializeDtdFactors(delta.dims(), old_dims, prev, options);

  // Cached R x R products, maintained after each mode update (§IV-B3):
  //   g0[k] = A_k^(0)ᵀ A_k^(0),  g1[k] = A_k^(1)ᵀ A_k^(1),
  //   h[k]  = Ã_kᵀ A_k^(0).
  std::vector<Matrix> g0(order), g1(order), h(order);
  auto refresh_products = [&](size_t n) {
    const size_t old_rows = static_cast<size_t>(old_dims[n]);
    const Matrix a0 = factors[n].RowSlice(0, old_rows);
    const Matrix a1 = factors[n].RowSlice(old_rows, factors[n].rows());
    g0[n] = old_rows > 0 ? TransposeTimes(a0, a0)
                         : Matrix(options.rank, options.rank);
    g1[n] = a1.rows() > 0 ? TransposeTimes(a1, a1)
                          : Matrix(options.rank, options.rank);
    h[n] = old_rows > 0 ? TransposeTimes(prev.factor(n), a0)
                        : Matrix(options.rank, options.rank);
  };
  for (size_t n = 0; n < order; ++n) refresh_products(n);

  const DtdLossBase loss_base = MakeDtdLossBase(delta, old_dims, prev);

  AlsResult result;
  double prev_loss = -1.0;

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    Matrix mttkrp_last;
    for (size_t n = 0; n < order; ++n) {
      const size_t old_rows = static_cast<size_t>(old_dims[n]);
      const size_t new_rows = factors[n].rows() - old_rows;

      std::vector<const Matrix*> factor_ptrs(order);
      for (size_t k = 0; k < order; ++k) factor_ptrs[k] = &factors[k];
      // One pass over the non-zeros of X \ X̃ covers every sub-tensor of
      // S_n^0 and S_n^1 at once: the row index decides which update the
      // contribution feeds.
      Matrix mttkrp = Mttkrp(delta, factor_ptrs, n);
      const GramHadamards had = HadamardOverModes(g0, g1, h, n);

      // A_n^(0) update (Eq. 5, first rule).
      if (old_rows > 0) {
        Matrix numerator = MatMul(prev.factor(n), had.h);
        ScaleInPlace(numerator, mu);
        const Matrix mttkrp_old = mttkrp.RowSlice(0, old_rows);
        AddInPlace(numerator, mttkrp_old);
        const Matrix a0 =
            SolveNormalEquationsRows(OldRowSystem(had, mu), numerator);
        for (size_t r = 0; r < old_rows; ++r) {
          std::copy(a0.RowPtr(r), a0.RowPtr(r) + options.rank,
                    factors[n].RowPtr(r));
        }
      }
      // A_n^(1) update (Eq. 5, second rule).
      if (new_rows > 0) {
        const Matrix numerator =
            mttkrp.RowSlice(old_rows, old_rows + new_rows);
        const Matrix a1 = SolveNormalEquationsRows(had.g01, numerator);
        for (size_t r = 0; r < new_rows; ++r) {
          std::copy(a1.RowPtr(r), a1.RowPtr(r) + options.rank,
                    factors[n].RowPtr(old_rows + r));
        }
      }
      refresh_products(n);
      if (n + 1 == order) mttkrp_last = std::move(mttkrp);
    }

    const double inner =
        options.reuse_intermediates
            ? DotAll(mttkrp_last, factors[order - 1])
            : KruskalTensor(factors).InnerWithSparse(delta);
    const double loss =
        DtdLoss(loss_base, HadamardOverModes(g0, g1, h, order), inner, mu);
    result.loss_history.push_back(loss);
    ++result.iterations;

    if (LossConverged(prev_loss, loss, options.tolerance)) break;
    prev_loss = loss;
  }

  result.factors = KruskalTensor(std::move(factors));
  return result;
}

}  // namespace dismastd
