#include "core/cp_als.h"

#include "core/dtd.h"
#include "la/ops.h"
#include "la/solve.h"
#include "tensor/mttkrp.h"

namespace dismastd {

AlsResult CpAls(const SparseTensor& x, const DecompositionOptions& options) {
  Rng rng(options.seed);
  std::vector<Matrix> init;
  init.reserve(x.order());
  for (size_t n = 0; n < x.order(); ++n) {
    init.push_back(Matrix::Random(static_cast<size_t>(x.dim(n)),
                                  options.rank, rng));
  }
  return CpAlsFrom(x, std::move(init), options);
}

AlsResult CpAlsFrom(const SparseTensor& x, std::vector<Matrix> init,
                    const DecompositionOptions& options) {
  const size_t order = x.order();
  DISMASTD_CHECK(init.size() == order);
  for (size_t n = 0; n < order; ++n) {
    DISMASTD_CHECK(init[n].rows() == x.dim(n));
    DISMASTD_CHECK(init[n].cols() == options.rank);
  }
  std::vector<Matrix> factors = std::move(init);

  // Cached Grams A_kᵀA_k, maintained across mode updates (§IV-B3's reuse,
  // centralized flavor).
  std::vector<Matrix> grams(order);
  for (size_t n = 0; n < order; ++n) {
    grams[n] = TransposeTimes(factors[n], factors[n]);
  }

  const double x_norm_sq = x.NormSquared();
  AlsResult result;
  double prev_loss = -1.0;

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    Matrix mttkrp_last;  // Â of the last updated mode, reused by the loss
    for (size_t n = 0; n < order; ++n) {
      std::vector<const Matrix*> factor_ptrs(order);
      for (size_t k = 0; k < order; ++k) factor_ptrs[k] = &factors[k];
      Matrix mttkrp = Mttkrp(x, factor_ptrs, n);

      Matrix denom;
      bool first = true;
      for (size_t k = 0; k < order; ++k) {
        if (k == n) continue;
        if (first) {
          denom = grams[k];
          first = false;
        } else {
          HadamardInPlace(denom, grams[k]);
        }
      }
      factors[n] = SolveNormalEquationsRows(denom, mttkrp);
      grams[n] = TransposeTimes(factors[n], factors[n]);
      if (n + 1 == order) mttkrp_last = std::move(mttkrp);
    }

    // Loss ‖X - Y‖² = ‖X‖² + ‖Y‖² - 2⟨X, Y⟩. With reuse, ⟨X, Y⟩ is read
    // off the cached MTTKRP of the last mode (Eq. 7's trick): the last
    // mode's Â was built from every other factor's final value this sweep,
    // so Σ_i Â[i,:]·A[i,:] is exact.
    Matrix y_gram = grams[0];
    for (size_t k = 1; k < order; ++k) HadamardInPlace(y_gram, grams[k]);
    const double y_norm_sq = SumAll(y_gram);
    double inner;
    if (options.reuse_intermediates) {
      inner = DotAll(mttkrp_last, factors[order - 1]);
    } else {
      inner = KruskalTensor(factors).InnerWithSparse(x);
    }
    double loss = x_norm_sq + y_norm_sq - 2.0 * inner;
    if (loss < 0.0) loss = 0.0;
    result.loss_history.push_back(loss);
    ++result.iterations;

    if (LossConverged(prev_loss, loss, options.tolerance)) break;
    prev_loss = loss;
  }

  result.factors = KruskalTensor(std::move(factors));
  return result;
}

}  // namespace dismastd
