#include "core/completion.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/dtd.h"
#include "la/ops.h"
#include "la/solve.h"

namespace dismastd {
namespace {

/// Entry ids grouped by their mode-`mode` index: a permutation of 0..nnz-1
/// sorted by that index (stable, so deterministic).
std::vector<size_t> EntriesByMode(const SparseTensor& x, size_t mode) {
  std::vector<size_t> order(x.nnz());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return x.Index(a, mode) < x.Index(b, mode);
  });
  return order;
}

}  // namespace

double ObservedRmse(const KruskalTensor& factors, const SparseTensor& x) {
  if (x.nnz() == 0) return 0.0;
  double sum_sq = 0.0;
  for (size_t e = 0; e < x.nnz(); ++e) {
    const double err = x.Value(e) - factors.ValueAt(x.IndexTuple(e));
    sum_sq += err * err;
  }
  return std::sqrt(sum_sq / static_cast<double>(x.nnz()));
}

HoldoutSplit SplitHoldout(const SparseTensor& x, double holdout_fraction,
                          uint64_t seed) {
  DISMASTD_CHECK(holdout_fraction >= 0.0 && holdout_fraction < 1.0);
  Rng rng(seed);
  HoldoutSplit split{SparseTensor(x.dims()), SparseTensor(x.dims())};
  for (size_t e = 0; e < x.nnz(); ++e) {
    if (rng.NextDouble() < holdout_fraction) {
      split.holdout.AddRaw(x.IndexTuple(e), x.Value(e));
    } else {
      split.train.AddRaw(x.IndexTuple(e), x.Value(e));
    }
  }
  return split;
}

CompletionResult CompleteCpFrom(const SparseTensor& x,
                                std::vector<Matrix> init,
                                const CompletionOptions& options) {
  const size_t order = x.order();
  const size_t rank = options.rank;
  DISMASTD_CHECK(init.size() == order);
  DISMASTD_CHECK(rank >= 1);
  for (size_t n = 0; n < order; ++n) {
    DISMASTD_CHECK(init[n].rows() == x.dim(n));
    DISMASTD_CHECK(init[n].cols() == rank);
  }
  std::vector<Matrix> factors = std::move(init);

  // Entry groupings per mode, computed once.
  std::vector<std::vector<size_t>> by_mode(order);
  for (size_t n = 0; n < order; ++n) by_mode[n] = EntriesByMode(x, n);

  CompletionResult result;
  double prev_rmse = -1.0;
  std::vector<double> k_row(rank);

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t n = 0; n < order; ++n) {
      const std::vector<size_t>& entries = by_mode[n];
      size_t begin = 0;
      while (begin < entries.size()) {
        const uint64_t row = x.Index(entries[begin], n);
        size_t end = begin;
        while (end < entries.size() && x.Index(entries[end], n) == row) {
          ++end;
        }
        // Per-row weighted normal equations over this slice's entries.
        Matrix gram(rank, rank);
        Matrix rhs(1, rank);
        for (size_t p = begin; p < end; ++p) {
          const size_t e = entries[p];
          const uint64_t* idx = x.IndexTuple(e);
          for (size_t f = 0; f < rank; ++f) k_row[f] = 1.0;
          for (size_t m = 0; m < order; ++m) {
            if (m == n) continue;
            const double* frow =
                factors[m].RowPtr(static_cast<size_t>(idx[m]));
            for (size_t f = 0; f < rank; ++f) k_row[f] *= frow[f];
          }
          const double value = x.Value(e);
          for (size_t a = 0; a < rank; ++a) {
            rhs(0, a) += value * k_row[a];
            for (size_t b = a; b < rank; ++b) {
              gram(a, b) += k_row[a] * k_row[b];
            }
          }
        }
        for (size_t a = 0; a < rank; ++a) {
          gram(a, a) += options.regularization;
          for (size_t b = 0; b < a; ++b) gram(a, b) = gram(b, a);
        }
        const Matrix solved = SolveNormalEquationsRows(gram, rhs);
        std::copy(solved.RowPtr(0), solved.RowPtr(0) + rank,
                  factors[n].RowPtr(static_cast<size_t>(row)));
        begin = end;
      }
      // Rows with no observed entries keep their current values (warm
      // starts stay useful for cold rows; random init rows act as priors).
    }

    const double rmse = ObservedRmse(KruskalTensor(factors), x);
    result.rmse_history.push_back(rmse);
    ++result.iterations;
    if (LossConverged(prev_rmse, rmse, options.tolerance)) break;
    prev_rmse = rmse;
  }
  result.factors = KruskalTensor(std::move(factors));
  return result;
}

CompletionResult CompleteCp(const SparseTensor& x,
                            const CompletionOptions& options) {
  Rng rng(options.seed);
  std::vector<Matrix> init;
  init.reserve(x.order());
  for (size_t n = 0; n < x.order(); ++n) {
    init.push_back(Matrix::Random(static_cast<size_t>(x.dim(n)),
                                  options.rank, rng));
  }
  return CompleteCpFrom(x, std::move(init), options);
}

CompletionResult CompleteCpStreaming(const SparseTensor& snapshot,
                                     const std::vector<uint64_t>& old_dims,
                                     const KruskalTensor& prev,
                                     const CompletionOptions& options) {
  DecompositionOptions init_options;
  init_options.rank = options.rank;
  init_options.seed = options.seed;
  std::vector<Matrix> init =
      InitializeDtdFactors(snapshot.dims(), old_dims, prev, init_options);
  return CompleteCpFrom(snapshot, std::move(init), options);
}

}  // namespace dismastd
