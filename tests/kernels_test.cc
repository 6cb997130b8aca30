// The compute-kernel determinism contract (kernels.h): every fp64 kernel is
// bit-exact against the scalar reference on every compiled-in backend the
// host supports, across shapes that exercise full vector widths, remainder
// lanes and the blocked-8 tail fold. Quantized kernels are backend-invariant
// and land within the documented error model of quantized.h.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "kernels/kernels.h"
#include "kernels/quantized.h"
#include "la/matrix.h"
#include "la/solve.h"

namespace dismastd {
namespace kernels {
namespace {

// Full vector widths, every remainder lane, and 8k +/- 1 around one and two
// blocks for both the 4-lane (AVX2 halves) and 8-lane blocking.
const size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25,
                           31, 32, 33, 63, 64, 65};

std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends;
  for (size_t b = 0; b < kNumBackends; ++b) {
    const auto backend = static_cast<Backend>(b);
    if (Supported(backend)) backends.push_back(backend);
  }
  return backends;
}

std::vector<double> RandomVector(size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextGaussian();
  return v;
}

// The per-non-zero MTTKRP step and the rank-1 Gram update that mttkrp_coo
// and gram_update_rows replaced, kept as scalar references: the batched
// kernels must equal a sequence of these calls bit for bit.
void MttkrpRowReference(double value, const double* const* rows,
                        size_t num_rows, size_t rank, double* out) {
  for (size_t f = 0; f < rank; ++f) {
    double v = value;
    for (size_t m = 0; m < num_rows; ++m) v *= rows[m][f];
    out[f] += v;
  }
}

void GramRankUpdateReference(const double* x, const double* y, size_t rank,
                             double* out) {
  for (size_t i = 0; i < rank; ++i) {
    const double xi = x[i];
    double* row = out + i * rank;
    for (size_t j = 0; j < rank; ++j) row[j] += xi * y[j];
  }
}

TEST(KernelsDispatchTest, ScalarAlwaysSupportedAndTablesSelfIdentify) {
  ASSERT_TRUE(Supported(Backend::kScalar));
  for (Backend backend : SupportedBackends()) {
    EXPECT_EQ(Get(backend).backend, backend) << BackendName(backend);
  }
  EXPECT_TRUE(Supported(BestSupported()));
}

TEST(KernelsDispatchTest, ParseBackendRoundTripsAndRejectsGarbage) {
  for (Backend backend :
       {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    const Result<Backend> parsed = ParseBackend(BackendName(backend));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), backend);
  }
  EXPECT_FALSE(ParseBackend("sse9").ok());
  EXPECT_FALSE(ParseBackend("").ok());
}

TEST(KernelsDispatchTest, ForceBackendRoutesGetAndResetRestoresAuto) {
  ASSERT_TRUE(ForceBackend(Backend::kScalar).ok());
  EXPECT_EQ(Dispatched(), Backend::kScalar);
  EXPECT_EQ(Get().backend, Backend::kScalar);
  ResetDispatch();
  // With DISMASTD_KERNEL unset in the test environment this is the CPUID
  // best; with it set, dispatch still resolves to something supported.
  EXPECT_TRUE(Supported(Dispatched()));
  EXPECT_FALSE(DispatchExplanation().empty());
}

TEST(KernelsParityTest, MttkrpCooSingleEntryBitExactAcrossBackends) {
  Rng rng(1);
  for (size_t rank : kLengths) {
    for (size_t num_rows : {1u, 2u, 3u, 5u}) {
      // One non-zero at the origin of an (num_rows + 1)-way tensor with
      // one-row factors; mode 0 is the target.
      std::vector<std::vector<double>> rows_storage;
      std::vector<const double*> rows;
      for (size_t m = 0; m < num_rows; ++m) {
        rows_storage.push_back(RandomVector(rank, rng));
        rows.push_back(rows_storage.back().data());
      }
      const double value = rng.NextGaussian();
      const std::vector<double> seed = RandomVector(rank, rng);
      std::vector<const double*> factors = {seed.data()};
      factors.insert(factors.end(), rows.begin(), rows.end());
      const std::vector<uint64_t> indices(num_rows + 1, 0);

      std::vector<double> want = seed;
      MttkrpRowReference(value, rows.data(), num_rows, rank, want.data());
      for (Backend backend : SupportedBackends()) {
        std::vector<double> got = seed;
        Get(backend).mttkrp_coo(indices.data(), &value, 1, num_rows + 1, 0,
                                factors.data(), rank, got.data());
        for (size_t f = 0; f < rank; ++f) {
          ASSERT_EQ(want[f], got[f])
              << BackendName(backend) << " rank=" << rank
              << " num_rows=" << num_rows << " f=" << f;
        }
      }
    }
  }
}

TEST(KernelsParityTest, HadamardCombineBitExactIncludingEmptyProduct) {
  Rng rng(2);
  for (size_t rank : kLengths) {
    for (size_t num_rows : {0u, 1u, 2u, 4u}) {
      std::vector<std::vector<double>> rows_storage;
      std::vector<const double*> rows;
      for (size_t m = 0; m < num_rows; ++m) {
        rows_storage.push_back(RandomVector(rank, rng));
        rows.push_back(rows_storage.back().data());
      }
      std::vector<double> want(rank);
      Get(Backend::kScalar)
          .hadamard_combine(rows.data(), num_rows, rank, want.data());
      if (num_rows == 0) {
        for (double w : want) ASSERT_EQ(w, 1.0);
      }
      for (Backend backend : SupportedBackends()) {
        std::vector<double> got(rank);
        Get(backend).hadamard_combine(rows.data(), num_rows, rank,
                                      got.data());
        for (size_t f = 0; f < rank; ++f) {
          ASSERT_EQ(want[f], got[f])
              << BackendName(backend) << " rank=" << rank
              << " num_rows=" << num_rows << " f=" << f;
        }
      }
    }
  }
}

TEST(KernelsParityTest, GramUpdateRowsSingleRowBitExactForGramAndCrossGram) {
  Rng rng(3);
  const uint64_t row = 0;
  for (size_t rank : kLengths) {
    const std::vector<double> x = RandomVector(rank, rng);
    const std::vector<double> y = RandomVector(rank, rng);
    const std::vector<double> seed = RandomVector(rank * rank, rng);
    for (const double* second : {x.data(), y.data()}) {
      std::vector<double> want = seed;
      GramRankUpdateReference(x.data(), second, rank, want.data());
      for (Backend backend : SupportedBackends()) {
        std::vector<double> got = seed;
        Get(backend).gram_update_rows(x.data(), second, &row, 1, rank,
                                      got.data());
        for (size_t i = 0; i < rank * rank; ++i) {
          ASSERT_EQ(want[i], got[i])
              << BackendName(backend) << " rank=" << rank << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelsParityTest, DotStridedBitExactAcrossStridesAndLengths) {
  Rng rng(4);
  const size_t strides[] = {0, 1, 3, 17};
  for (size_t n : kLengths) {
    for (size_t incx : strides) {
      for (size_t incy : strides) {
        const std::vector<double> x =
            RandomVector(incx == 0 ? 1 : n * incx, rng);
        const std::vector<double> y =
            RandomVector(incy == 0 ? 1 : n * incy, rng);
        const double want = Get(Backend::kScalar)
                                .dot_strided(x.data(), incx, y.data(),
                                             incy, n);
        for (Backend backend : SupportedBackends()) {
          const double got =
              Get(backend).dot_strided(x.data(), incx, y.data(), incy, n);
          ASSERT_EQ(want, got)
              << BackendName(backend) << " n=" << n << " incx=" << incx
              << " incy=" << incy;
        }
      }
    }
  }
}

TEST(KernelsParityTest, TopKScoreBlockMatchesDotStridedBitExactly) {
  Rng rng(5);
  for (size_t rank : kLengths) {
    const size_t num_rows = 37;  // prime, exercises every row offset
    const std::vector<double> rows = RandomVector(num_rows * rank, rng);
    const std::vector<double> weights = RandomVector(rank, rng);
    std::vector<double> want(num_rows);
    for (size_t j = 0; j < num_rows; ++j) {
      want[j] = Get(Backend::kScalar)
                    .dot_strided(rows.data() + j * rank, 1, weights.data(),
                                 1, rank);
    }
    for (Backend backend : SupportedBackends()) {
      std::vector<double> got(num_rows);
      Get(backend).topk_score_block(rows.data(), num_rows, rank,
                                    weights.data(), got.data());
      for (size_t j = 0; j < num_rows; ++j) {
        ASSERT_EQ(want[j], got[j])
            << BackendName(backend) << " rank=" << rank << " j=" << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row-batched kernels: each must be bit-identical on every backend to the
// sequence of per-row operations it replaces (the test-local references
// above, or scalar-table calls that are themselves bit-exact against every
// backend). Compared with memcmp so even the sign of a zero must agree.

const size_t kBatchRanks[] = {1, 7, 8, 10, 17, 33};

::testing::AssertionResult SameBits(const std::vector<double>& want,
                                    const std::vector<double>& got) {
  if (want.size() == got.size() &&
      (want.empty() || std::memcmp(want.data(), got.data(),
                                   want.size() * sizeof(double)) == 0)) {
    return ::testing::AssertionSuccess();
  }
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    if (std::memcmp(&want[i], &got[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "first difference at " << i << ": " << want[i] << " vs "
             << got[i];
    }
  }
  return ::testing::AssertionFailure() << "size " << want.size() << " vs "
                                       << got.size();
}

TEST(KernelsBatchedTest, MttkrpCooMatchesPerNonZeroReference) {
  Rng rng(11);
  for (size_t rank : kBatchRanks) {
    for (size_t order : {2u, 3u, 4u}) {
      const std::vector<uint64_t> dims = {5, 3, 4, 2};
      std::vector<std::vector<double>> factors;
      std::vector<const double*> factor_ptrs;
      for (size_t m = 0; m < order; ++m) {
        factors.push_back(RandomVector(dims[m] * rank, rng));
        factor_ptrs.push_back(factors.back().data());
      }
      for (size_t nnz : {0u, 1u, 13u, 50u}) {
        for (bool grouped : {false, true}) {
          // Random entries; `grouped` sorts them by mode-0 index (stable),
          // giving multi-entry runs, otherwise runs are mostly length 1.
          std::vector<uint64_t> indices(nnz * order);
          for (size_t e = 0; e < nnz; ++e) {
            for (size_t m = 0; m < order; ++m) {
              indices[e * order + m] = rng.NextBounded(dims[m]);
            }
          }
          const std::vector<double> values = RandomVector(nnz, rng);
          std::vector<size_t> perm(nnz);
          std::iota(perm.begin(), perm.end(), 0);
          if (grouped) {
            std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
              return indices[a * order] < indices[b * order];
            });
          }
          std::vector<uint64_t> sorted_idx;
          std::vector<double> sorted_val;
          for (size_t e : perm) {
            sorted_idx.insert(sorted_idx.end(), indices.begin() + e * order,
                              indices.begin() + (e + 1) * order);
            sorted_val.push_back(values[e]);
          }
          for (size_t mode = 0; mode < order; ++mode) {
            const std::vector<double> seed =
                RandomVector(dims[mode] * rank, rng);
            std::vector<double> want = seed;
            for (size_t e = 0; e < nnz; ++e) {
              const uint64_t* idx = sorted_idx.data() + e * order;
              std::vector<const double*> rows;
              for (size_t m = 0; m < order; ++m) {
                if (m != mode) rows.push_back(factor_ptrs[m] + idx[m] * rank);
              }
              MttkrpRowReference(sorted_val[e], rows.data(), rows.size(),
                                 rank, want.data() + idx[mode] * rank);
            }
            for (Backend backend : SupportedBackends()) {
              std::vector<double> got = seed;
              Get(backend).mttkrp_coo(sorted_idx.data(), sorted_val.data(),
                                      nnz, order, mode, factor_ptrs.data(),
                                      rank, got.data());
              EXPECT_TRUE(SameBits(want, got))
                  << BackendName(backend) << " rank=" << rank
                  << " order=" << order << " nnz=" << nnz
                  << " grouped=" << grouped << " mode=" << mode;
            }
          }
        }
      }
    }
  }
}

TEST(KernelsBatchedTest, MttkrpRowsMatchesPerNonZeroCooReference) {
  // Row runs against the per-non-zero reference over the same entries as a
  // COO stream: row counts odd and even (the SIMD kernels pair rows), runs
  // of length 1, mixed and long, and empty parts.
  Rng rng(13);
  const size_t kOutRows = 40;
  for (size_t rank : kBatchRanks) {
    for (size_t order : {2u, 3u, 4u}) {
      const std::vector<uint64_t> dims = {6, 5, 4, 3};
      for (size_t mode = 0; mode < order; ++mode) {
        std::vector<std::vector<double>> factors;
        std::vector<const double*> factor_ptrs;
        for (size_t m = 0; m < order; ++m) {
          const size_t rows = m == mode ? kOutRows : dims[m];
          factors.push_back(RandomVector(rows * rank, rng));
          factor_ptrs.push_back(factors.back().data());
        }
        for (size_t num_rows : {0u, 1u, 2u, 3u, 8u, 9u, 17u}) {
          for (int lengths = 0; lengths < 3; ++lengths) {
            // Distinct output rows in random order.
            std::vector<uint32_t> out_rows(kOutRows);
            std::iota(out_rows.begin(), out_rows.end(), 0u);
            for (size_t i = kOutRows; i > 1; --i) {
              std::swap(out_rows[i - 1], out_rows[rng.NextBounded(i)]);
            }
            out_rows.resize(num_rows);
            std::vector<uint32_t> row_begin = {0};
            for (size_t j = 0; j < num_rows; ++j) {
              const size_t len = lengths == 0   ? 1
                                 : lengths == 1 ? 1 + rng.NextBounded(4)
                                                : 20 + rng.NextBounded(50);
              row_begin.push_back(row_begin.back() +
                                  static_cast<uint32_t>(len));
            }
            const size_t nnz = row_begin.back();
            std::vector<uint32_t> indices;
            std::vector<uint64_t> coo;
            for (size_t j = 0; j < num_rows; ++j) {
              for (size_t e = row_begin[j]; e < row_begin[j + 1]; ++e) {
                for (size_t m = 0; m < order; ++m) {
                  if (m == mode) {
                    coo.push_back(out_rows[j]);
                  } else {
                    coo.push_back(rng.NextBounded(dims[m]));
                    indices.push_back(static_cast<uint32_t>(coo.back()));
                  }
                }
              }
            }
            const std::vector<double> values = RandomVector(nnz, rng);
            const std::vector<double> seed = RandomVector(kOutRows * rank, rng);
            std::vector<double> want = seed;
            for (size_t e = 0; e < nnz; ++e) {
              const uint64_t* idx = coo.data() + e * order;
              std::vector<const double*> rows;
              for (size_t m = 0; m < order; ++m) {
                if (m != mode) rows.push_back(factor_ptrs[m] + idx[m] * rank);
              }
              MttkrpRowReference(values[e], rows.data(), rows.size(), rank,
                                 want.data() + idx[mode] * rank);
            }
            for (Backend backend : SupportedBackends()) {
              std::vector<double> got = seed;
              Get(backend).mttkrp_rows(out_rows.data(), row_begin.data(),
                                       num_rows, indices.data(), values.data(),
                                       order, mode, factor_ptrs.data(), rank,
                                       got.data());
              EXPECT_TRUE(SameBits(want, got))
                  << BackendName(backend) << " rank=" << rank
                  << " order=" << order << " mode=" << mode
                  << " rows=" << num_rows << " lengths=" << lengths;
            }
          }
        }
      }
    }
  }
}

TEST(KernelsBatchedTest, GramUpdateRowsMatchesPerRowReference) {
  Rng rng(12);
  for (size_t rank : kBatchRanks) {
    const size_t table_rows = 40;
    const std::vector<double> x = RandomVector(table_rows * rank, rng);
    const std::vector<double> y = RandomVector(table_rows * rank, rng);
    // 130 rows cross the kernels' 128-row cache block; indices repeat and
    // are unordered.
    for (size_t num_rows : {0u, 1u, 3u, 5u, 13u, 130u}) {
      std::vector<uint64_t> rows(num_rows);
      for (uint64_t& r : rows) r = rng.NextBounded(table_rows);
      const std::vector<double> seed = RandomVector(rank * rank, rng);
      for (const double* xs : {y.data(), x.data()}) {
        std::vector<double> want = seed;
        for (uint64_t r : rows) {
          GramRankUpdateReference(xs + r * rank, y.data() + r * rank, rank,
                                  want.data());
        }
        for (Backend backend : SupportedBackends()) {
          std::vector<double> got = seed;
          Get(backend).gram_update_rows(xs, y.data(), rows.data(), num_rows,
                                        rank, got.data());
          EXPECT_TRUE(SameBits(want, got))
              << BackendName(backend) << " rank=" << rank
              << " rows=" << num_rows;
        }
      }
    }
  }
}

/// A random symmetric positive-definite rank x rank matrix: BᵀB of a
/// (rank + 3)-row random B plus 0.5 on the diagonal.
Matrix RandomSpdGram(size_t rank, Rng& rng) {
  const Matrix basis = Matrix::Random(rank + 3, rank, rng);
  Matrix gram(rank, rank);
  for (size_t i = 0; i < rank; ++i) {
    for (size_t j = 0; j < rank; ++j) {
      double sum = 0.0;
      for (size_t r = 0; r < basis.rows(); ++r) {
        sum += basis(r, i) * basis(r, j);
      }
      gram(i, j) = sum + (i == j ? 0.5 : 0.0);
    }
  }
  return gram;
}

// update_rows' numerator alone: with mu = 1, a zero MTTKRP row and the
// identity as Cholesky factor, the solved row is the numerator itself,
// which must be the per-column blocked-8 dot (plus +0.0) exactly.
TEST(KernelsBatchedTest, UpdateRowsNumeratorMatchesPerColumnDotStrided) {
  Rng rng(13);
  for (size_t rank : kBatchRanks) {
    const Matrix identity = Matrix::Identity(rank);
    const std::vector<double> zero_row(rank, 0.0);
    const uint64_t row = 0;
    for (int trial = 0; trial < 5; ++trial) {
      const std::vector<double> x = RandomVector(rank, rng);
      const std::vector<double> m = RandomVector(rank * rank, rng);
      std::vector<double> want(rank);
      for (size_t c = 0; c < rank; ++c) {
        want[c] = 1.0 * Get(Backend::kScalar)
                            .dot_strided(x.data(), 1, m.data() + c, rank,
                                         rank) +
                  0.0;
      }
      for (Backend backend : SupportedBackends()) {
        std::vector<double> got(rank);
        std::vector<double> gram(rank * rank), cross(rank * rank);
        Get(backend).update_rows(&row, 1, rank, x.data(), m.data(), 1.0,
                                 zero_row.data(), identity.data(),
                                 got.data(), gram.data(), cross.data());
        EXPECT_TRUE(SameBits(want, got))
            << BackendName(backend) << " rank=" << rank;
      }
    }
  }
}

/// num_rows distinct rows of a table of `table_rows`, in random order.
std::vector<uint64_t> ScatteredRows(size_t num_rows, size_t table_rows,
                                    Rng& rng) {
  std::vector<uint64_t> all(table_rows);
  std::iota(all.begin(), all.end(), uint64_t{0});
  for (size_t i = table_rows; i > 1; --i) {
    std::swap(all[i - 1], all[rng.NextBounded(i)]);
  }
  all.resize(num_rows);
  return all;
}

// The fused row update against the composition it replaces, run on the
// same backend: the blocked-8 numerator (per-column dot_strided, which the
// numerator test above ties to update_rows), one mul and one add, one
// cholesky_solve_rows call over all rows, the scatter into the factor,
// then gram_update_rows for the Gram and the cross-Gram. Old rows (with
// the previous factor) and new rows, a real solve and the zero fallback,
// partials that start non-zero, row counts around the 8- and 16-row
// blocks, and factor rows outside the set left untouched.
TEST(KernelsBatchedTest, UpdateRowsMatchesComposedKernels) {
  Rng rng(15);
  for (size_t rank : kBatchRanks) {
    Matrix lower;
    ASSERT_TRUE(CholeskyFactor(RandomSpdGram(rank, rng), &lower).ok());
    const std::vector<double> had_h = RandomVector(rank * rank, rng);
    const double mu = 0.37;
    for (size_t num_rows : {0u, 1u, 15u, 16u, 17u, 1001u}) {
      const size_t table_rows = 2 * num_rows + 3;
      const std::vector<uint64_t> rows =
          ScatteredRows(num_rows, table_rows, rng);
      const std::vector<double> prev = RandomVector(table_rows * rank, rng);
      const std::vector<double> mttkrp = RandomVector(table_rows * rank, rng);
      const std::vector<double> factor0 = RandomVector(table_rows * rank, rng);
      const std::vector<double> gram0 = RandomVector(rank * rank, rng);
      const std::vector<double> cross0 = RandomVector(rank * rank, rng);
      for (bool old_rows : {true, false}) {
        for (bool zero : {false, true}) {
          for (Backend backend : SupportedBackends()) {
            const KernelTable& kern = Get(backend);
            // The composition.
            std::vector<double> rhs(num_rows * rank);
            for (size_t j = 0; j < num_rows; ++j) {
              const size_t r = rows[j];
              for (size_t c = 0; c < rank; ++c) {
                double b = mttkrp[r * rank + c];
                if (old_rows) {
                  b = mu * kern.dot_strided(prev.data() + r * rank, 1,
                                            had_h.data() + c, rank, rank) +
                      b;
                }
                rhs[j * rank + c] = b;
              }
            }
            if (zero) {
              std::fill(rhs.begin(), rhs.end(), 0.0);
            } else {
              kern.cholesky_solve_rows(lower.data(), rank, rhs.data(),
                                       num_rows, rhs.data());
            }
            std::vector<double> want_factor = factor0;
            for (size_t j = 0; j < num_rows; ++j) {
              std::copy(rhs.begin() + j * rank, rhs.begin() + (j + 1) * rank,
                        want_factor.begin() + rows[j] * rank);
            }
            std::vector<double> want_gram = gram0;
            std::vector<double> want_cross = cross0;
            kern.gram_update_rows(want_factor.data(), want_factor.data(),
                                  rows.data(), num_rows, rank,
                                  want_gram.data());
            if (old_rows) {
              kern.gram_update_rows(prev.data(), want_factor.data(),
                                    rows.data(), num_rows, rank,
                                    want_cross.data());
            }
            // The fused kernel.
            std::vector<double> got_factor = factor0;
            std::vector<double> got_gram = gram0;
            std::vector<double> got_cross = cross0;
            kern.update_rows(rows.data(), num_rows, rank,
                             old_rows ? prev.data() : nullptr,
                             old_rows ? had_h.data() : nullptr,
                             old_rows ? mu : 0.0, mttkrp.data(),
                             zero ? nullptr : lower.data(),
                             got_factor.data(), got_gram.data(),
                             old_rows ? got_cross.data() : nullptr);
            const auto where = [&] {
              return std::string(BackendName(backend)) +
                     " rank=" + std::to_string(rank) +
                     " rows=" + std::to_string(num_rows) +
                     (old_rows ? " old" : " new") + (zero ? " zero" : "");
            };
            EXPECT_TRUE(SameBits(want_factor, got_factor)) << where();
            EXPECT_TRUE(SameBits(want_gram, got_gram)) << where();
            EXPECT_TRUE(SameBits(want_cross, got_cross)) << where();
          }
        }
      }
    }
  }
}

/// The per-row forward/back substitution loop cholesky_solve_rows
/// replaces, copied verbatim: y in a separate buffer, then the back pass.
std::vector<double> PerRowCholeskySolve(const std::vector<double>& lower,
                                        size_t n,
                                        const std::vector<double>& rhs) {
  std::vector<double> x(rhs.size());
  std::vector<double> y(n);
  for (size_t r = 0; r < rhs.size() / n; ++r) {
    const double* b = rhs.data() + r * n;
    for (size_t i = 0; i < n; ++i) {
      double sum = b[i];
      for (size_t k = 0; k < i; ++k) sum -= lower[i * n + k] * y[k];
      y[i] = sum / lower[i * n + i];
    }
    double* out = x.data() + r * n;
    for (size_t ii = n; ii-- > 0;) {
      double sum = y[ii];
      for (size_t k = ii + 1; k < n; ++k) sum -= lower[k * n + ii] * out[k];
      out[ii] = sum / lower[ii * n + ii];
    }
  }
  return x;
}

TEST(KernelsBatchedTest, CholeskySolveRowsMatchesPerRowLoop) {
  Rng rng(14);
  std::vector<size_t> ranks(std::begin(kBatchRanks), std::end(kBatchRanks));
  ranks.push_back(70);
  for (size_t rank : ranks) {
    Matrix lower_m;
    ASSERT_TRUE(CholeskyFactor(RandomSpdGram(rank, rng), &lower_m).ok());
    const std::vector<double> lower(lower_m.data(),
                                    lower_m.data() + rank * rank);
    // Row counts around the 4-, 8- and 16-lane block widths.
    for (size_t num_rows : {0u, 1u, 3u, 5u, 7u, 9u, 15u, 17u, 33u}) {
      const std::vector<double> rhs = RandomVector(num_rows * rank, rng);
      const std::vector<double> want = PerRowCholeskySolve(lower, rank, rhs);
      for (Backend backend : SupportedBackends()) {
        std::vector<double> got(rhs.size());
        Get(backend).cholesky_solve_rows(lower.data(), rank, rhs.data(),
                                         num_rows, got.data());
        EXPECT_TRUE(SameBits(want, got))
            << BackendName(backend) << " rank=" << rank
            << " rows=" << num_rows;
        std::vector<double> in_place = rhs;
        Get(backend).cholesky_solve_rows(lower.data(), rank, in_place.data(),
                                         num_rows, in_place.data());
        EXPECT_TRUE(SameBits(want, in_place))
            << BackendName(backend) << " in place, rank=" << rank
            << " rows=" << num_rows;
      }
    }
  }
}

/// A copy of `init` whose last element ends flush against a PROT_NONE
/// page, so any access past it faults.
class GuardedDoubles {
 public:
  explicit GuardedDoubles(const std::vector<double>& init) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t bytes = init.size() * sizeof(double);
    span_ = (bytes + page - 1) / page * page + page;
    void* base = mmap(nullptr, span_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    DISMASTD_CHECK(base != MAP_FAILED);
    base_ = static_cast<char*>(base);
    char* guard = base_ + span_ - page;
    DISMASTD_CHECK(mprotect(guard, page, PROT_NONE) == 0);
    data_ = reinterpret_cast<double*>(guard) - init.size();
    std::copy(init.begin(), init.end(), data_);
    size_ = init.size();
  }
  GuardedDoubles(const GuardedDoubles&) = delete;
  GuardedDoubles& operator=(const GuardedDoubles&) = delete;
  ~GuardedDoubles() { munmap(base_, span_); }

  double* data() { return data_; }
  std::vector<double> ToVector() const {
    return std::vector<double>(data_, data_ + size_);
  }

 private:
  char* base_ = nullptr;
  size_t span_ = 0;
  double* data_ = nullptr;
  size_t size_ = 0;
};

// Every row kernel with each matrix's last row ending flush against a
// PROT_NONE page and that row in the row set: the vector tails must stop
// at the row's end (masked-off lanes may not fault, a wider unmasked access
// would), and the bits must still be the scalar table's.
TEST(KernelsBatchedTest, RowKernelsStopAtTheLastRowsEnd) {
  Rng rng(16);
  const std::vector<uint64_t> dims = {9, 7, 5};
  constexpr size_t kOrder = 3;
  constexpr size_t kMode = 1;
  std::vector<size_t> ranks(17);
  std::iota(ranks.begin(), ranks.end(), size_t{1});
  ranks.push_back(33);
  const KernelTable& scalar = Get(Backend::kScalar);
  for (size_t rank : ranks) {
    // Entries in row runs over every output row, each mode's last row used.
    std::vector<uint64_t> coo;
    std::vector<uint32_t> run_rows, run_begin = {0}, indices;
    for (uint64_t i = 0; i < dims[kMode]; ++i) {
      run_rows.push_back(static_cast<uint32_t>(i));
      for (size_t e = 0; e < 3; ++e) {
        for (size_t m = 0; m < kOrder; ++m) {
          const uint64_t idx =
              m == kMode ? i : (e == 0 ? dims[m] - 1 : rng.NextBounded(dims[m]));
          coo.push_back(idx);
          if (m != kMode) indices.push_back(static_cast<uint32_t>(idx));
        }
      }
      run_begin.push_back(static_cast<uint32_t>(run_begin.back() + 3));
    }
    const size_t nnz = run_begin.back();
    const std::vector<double> values = RandomVector(nnz, rng);
    std::vector<std::vector<double>> factors;
    std::vector<const double*> plain_ptrs;
    for (uint64_t d : dims) {
      factors.push_back(RandomVector(d * rank, rng));
      plain_ptrs.push_back(factors.back().data());
    }
    const std::vector<double> out0 = RandomVector(dims[kMode] * rank, rng);
    const std::vector<uint64_t> rows = {3, 0, 8, 5};  // 8: the last row
    const size_t table_rows = 9;
    const std::vector<double> prev = RandomVector(table_rows * rank, rng);
    const std::vector<double> mttkrp = RandomVector(table_rows * rank, rng);
    const std::vector<double> factor0 = RandomVector(table_rows * rank, rng);
    const std::vector<double> gram0 = RandomVector(rank * rank, rng);
    const std::vector<double> cross0 = RandomVector(rank * rank, rng);
    const std::vector<double> had_h = RandomVector(rank * rank, rng);
    Matrix lower;
    ASSERT_TRUE(CholeskyFactor(RandomSpdGram(rank, rng), &lower).ok());

    std::vector<double> want_rows = out0;
    scalar.mttkrp_rows(run_rows.data(), run_begin.data(), run_rows.size(),
                       indices.data(), values.data(), kOrder, kMode,
                       plain_ptrs.data(), rank, want_rows.data());
    std::vector<double> want_coo = out0;
    scalar.mttkrp_coo(coo.data(), values.data(), nnz, kOrder, kMode,
                      plain_ptrs.data(), rank, want_coo.data());
    std::vector<double> want_gram = gram0;
    scalar.gram_update_rows(prev.data(), mttkrp.data(), rows.data(),
                            rows.size(), rank, want_gram.data());
    std::vector<double> want_factor = factor0;
    std::vector<double> want_g = gram0;
    std::vector<double> want_h = cross0;
    scalar.update_rows(rows.data(), rows.size(), rank, prev.data(),
                       had_h.data(), 0.37, mttkrp.data(), lower.data(),
                       want_factor.data(), want_g.data(), want_h.data());

    for (Backend backend : SupportedBackends()) {
      const KernelTable& kern = Get(backend);
      const std::string where = std::string(BackendName(backend)) +
                                " rank=" + std::to_string(rank);
      std::vector<std::unique_ptr<GuardedDoubles>> guarded;
      std::vector<const double*> ptrs;
      for (const std::vector<double>& f : factors) {
        guarded.push_back(std::make_unique<GuardedDoubles>(f));
        ptrs.push_back(guarded.back()->data());
      }
      GuardedDoubles got_rows(out0);
      kern.mttkrp_rows(run_rows.data(), run_begin.data(), run_rows.size(),
                       indices.data(), values.data(), kOrder, kMode,
                       ptrs.data(), rank, got_rows.data());
      EXPECT_TRUE(SameBits(want_rows, got_rows.ToVector())) << where;
      GuardedDoubles got_coo(out0);
      kern.mttkrp_coo(coo.data(), values.data(), nnz, kOrder, kMode,
                      ptrs.data(), rank, got_coo.data());
      EXPECT_TRUE(SameBits(want_coo, got_coo.ToVector())) << where;

      GuardedDoubles g_prev(prev), g_mttkrp(mttkrp), got_gram(gram0);
      kern.gram_update_rows(g_prev.data(), g_mttkrp.data(), rows.data(),
                            rows.size(), rank, got_gram.data());
      EXPECT_TRUE(SameBits(want_gram, got_gram.ToVector())) << where;

      GuardedDoubles got_factor(factor0), got_g(gram0), got_h(cross0);
      GuardedDoubles g_had_h(had_h);
      kern.update_rows(rows.data(), rows.size(), rank, g_prev.data(),
                       g_had_h.data(), 0.37, g_mttkrp.data(), lower.data(),
                       got_factor.data(), got_g.data(), got_h.data());
      EXPECT_TRUE(SameBits(want_factor, got_factor.ToVector())) << where;
      EXPECT_TRUE(SameBits(want_g, got_g.ToVector())) << where;
      EXPECT_TRUE(SameBits(want_h, got_h.ToVector())) << where;
    }
  }
}

TEST(KernelsQuantizedTest, Bf16RoundTripWithinDocumentedRelativeBound) {
  Rng rng(6);
  for (size_t n : kLengths) {
    const std::vector<double> src = RandomVector(n, rng);
    for (Backend backend : SupportedBackends()) {
      std::vector<Bf16> q(n);
      std::vector<double> back(n);
      Get(backend).f64_to_bf16(src.data(), n, q.data());
      Get(backend).bf16_to_f64(q.data(), n, back.data());
      for (size_t i = 0; i < n; ++i) {
        // 2^-8 on the float32 value; one half-ulp of float32 covers the
        // f64 -> f32 rounding en route.
        const double bound =
            std::abs(src[i]) * (0x1p-8 + 0x1p-24) + 1e-300;
        ASSERT_LE(std::abs(src[i] - back[i]), bound)
            << BackendName(backend) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelsQuantizedTest, Bf16AndInt8KernelsBackendInvariant) {
  Rng rng(7);
  for (size_t n : kLengths) {
    const std::vector<double> src = RandomVector(n, rng);
    const std::vector<double> weights = RandomVector(n, rng);
    std::vector<Bf16> q(n);
    Get(Backend::kScalar).f64_to_bf16(src.data(), n, q.data());
    std::vector<int8_t> i8(n);
    for (size_t i = 0; i < n; ++i) {
      i8[i] = static_cast<int8_t>(
          static_cast<int>(std::nearbyint(src[i] * 20.0)) % 127);
    }
    const double want_bf16 =
        Get(Backend::kScalar).bf16_dot(q.data(), weights.data(), n);
    const double want_i8 =
        Get(Backend::kScalar).i8_dot(i8.data(), weights.data(), n);
    for (Backend backend : SupportedBackends()) {
      std::vector<Bf16> q2(n);
      Get(backend).f64_to_bf16(src.data(), n, q2.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(q[i], q2[i]) << BackendName(backend) << " i=" << i;
      }
      ASSERT_EQ(want_bf16,
                Get(backend).bf16_dot(q.data(), weights.data(), n))
          << BackendName(backend) << " n=" << n;
      ASSERT_EQ(want_i8, Get(backend).i8_dot(i8.data(), weights.data(), n))
          << BackendName(backend) << " n=" << n;
    }
  }
}

TEST(KernelsQuantizedTest, QuantizeRecordsExactColumnErrorBounds) {
  Rng rng(8);
  const Matrix source = Matrix::RandomGaussian(41, 13, rng);

  const Bf16Matrix bf16 = QuantizeBf16(source);
  const Matrix bf16_back = Dequantize(bf16);
  for (size_t c = 0; c < source.cols(); ++c) {
    double observed = 0.0;
    for (size_t r = 0; r < source.rows(); ++r) {
      observed = std::max(observed, std::abs(source.At(r, c) -
                                             bf16_back.At(r, c)));
    }
    // Recorded bound is the exact max, so equality must hold.
    EXPECT_EQ(observed, bf16.col_max_abs_err[c]) << "col " << c;
  }

  const Int8Matrix i8 = QuantizeInt8(source);
  const Matrix i8_back = Dequantize(i8);
  for (size_t c = 0; c < source.cols(); ++c) {
    double observed = 0.0;
    for (size_t r = 0; r < source.rows(); ++r) {
      observed =
          std::max(observed, std::abs(source.At(r, c) - i8_back.At(r, c)));
    }
    EXPECT_EQ(observed, i8.col_max_abs_err[c]) << "col " << c;
    // And by construction the error is at most half a quantization step.
    EXPECT_LE(i8.col_max_abs_err[c], i8.col_scale[c] * 0.5 + 1e-300)
        << "col " << c;
  }
}

TEST(KernelsQuantizedTest, ZeroColumnsQuantizeExactlyInInt8) {
  Matrix source(9, 3);
  source.Fill(0.0);
  const Int8Matrix q = QuantizeInt8(source);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(q.col_scale[c], 0.0);
    EXPECT_EQ(q.col_max_abs_err[c], 0.0);
  }
  const Matrix back = Dequantize(q);
  for (size_t r = 0; r < 9; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(back.At(r, c), 0.0);
  }
}

/// QuantizeInt8 before the one-pass column maxima and the inlined
/// rounding, copied verbatim: the byte-level reference.
Int8Matrix QuantizeInt8Reference(const Matrix& source) {
  Int8Matrix q;
  q.rows = source.rows();
  q.cols = source.cols();
  q.data.resize(q.rows * q.cols);
  q.col_scale.assign(q.cols, 0.0);
  q.col_max_abs_err.assign(q.cols, 0.0);
  if (q.data.empty()) return q;
  for (size_t c = 0; c < q.cols; ++c) {
    double max_abs = 0.0;
    for (size_t r = 0; r < q.rows; ++r) {
      const double a = std::abs(source(r, c));
      if (a > max_abs) max_abs = a;
    }
    q.col_scale[c] = max_abs > 0.0 ? max_abs / 127.0 : 0.0;
  }
  for (size_t r = 0; r < q.rows; ++r) {
    const double* src = source.RowPtr(r);
    int8_t* dst = q.data.data() + r * q.cols;
    for (size_t c = 0; c < q.cols; ++c) {
      const double scale = q.col_scale[c];
      double code = 0.0;
      if (scale > 0.0) {
        code = std::nearbyint(src[c] / scale);
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

TEST(KernelsQuantizedTest, Int8MatchesColumnWiseNearbyintReference) {
  Rng rng(31);
  std::vector<Matrix> inputs;
  inputs.push_back(Matrix::RandomGaussian(1000, 10, rng));
  inputs.push_back(Matrix::RandomGaussian(37, 3, rng));
  // All-zero columns (with a -0.0) next to live ones.
  Matrix zeros = Matrix::RandomGaussian(50, 4, rng);
  for (size_t r = 0; r < zeros.rows(); ++r) {
    zeros(r, 0) = 0.0;
    zeros(r, 2) = r == 7 ? -0.0 : 0.0;
  }
  inputs.push_back(zeros);
  // Exact .5 ties: the first column's max is 127 (scale 1), the second's
  // 254 (scale 2), so every value lands on k + 0.5 and must round to even;
  // -0.4 and -0.0 exercise the sign of zero codes.
  const double ties[] = {0.5,   1.5,  2.5,  -0.5, -1.5, -2.5, 126.5,
                         -126.5, 3.5, -3.5, -0.4, -0.0, 127.0};
  Matrix tied(std::size(ties), 2);
  for (size_t r = 0; r < tied.rows(); ++r) {
    tied(r, 0) = ties[r];
    tied(r, 1) = r + 1 == tied.rows() ? 254.0 : 2.0 * ties[r];
  }
  inputs.push_back(tied);
  inputs.push_back(Matrix(0, 5));
  for (const Matrix& source : inputs) {
    const Int8Matrix want = QuantizeInt8Reference(source);
    const Int8Matrix got = QuantizeInt8(source);
    EXPECT_EQ(got.rows, want.rows);
    EXPECT_EQ(got.cols, want.cols);
    EXPECT_EQ(got.data, want.data) << source.rows() << "x" << source.cols();
    EXPECT_TRUE(SameBits(want.col_scale, got.col_scale));
    EXPECT_TRUE(SameBits(want.col_max_abs_err, got.col_max_abs_err));
  }
}

TEST(KernelsQuantizedTest, QuantizedScanErrorWithinPerQueryBound) {
  Rng rng(9);
  const size_t rank = 12;
  const size_t num_rows = 101;
  const Matrix cand = Matrix::RandomGaussian(num_rows, rank, rng);
  const Bf16Matrix bf16 = QuantizeBf16(cand);
  const Int8Matrix i8 = QuantizeInt8(cand);
  const std::vector<double> weights = RandomVector(rank, rng);

  double bf16_bound = 0.0;
  double i8_bound = 0.0;
  std::vector<double> wscaled(rank);
  for (size_t f = 0; f < rank; ++f) {
    bf16_bound += std::abs(weights[f]) * bf16.col_max_abs_err[f];
    i8_bound += std::abs(weights[f]) * i8.col_max_abs_err[f];
    wscaled[f] = weights[f] * i8.col_scale[f];
  }

  for (Backend backend : SupportedBackends()) {
    const KernelTable& kern = Get(backend);
    std::vector<double> exact(num_rows);
    kern.topk_score_block(cand.RowPtr(0), num_rows, rank, weights.data(),
                          exact.data());
    std::vector<double> got(num_rows);
    kern.topk_score_block_bf16(bf16.RowPtr(0), num_rows, rank,
                               weights.data(), got.data());
    for (size_t j = 0; j < num_rows; ++j) {
      // A hair of slack: the bound is on exact arithmetic; the blocked
      // fp64 accumulation adds rounding of its own.
      ASSERT_LE(std::abs(exact[j] - got[j]), bf16_bound * (1.0 + 1e-12))
          << BackendName(backend) << " bf16 j=" << j;
    }
    kern.topk_score_block_i8(i8.RowPtr(0), num_rows, rank, wscaled.data(),
                             got.data());
    for (size_t j = 0; j < num_rows; ++j) {
      ASSERT_LE(std::abs(exact[j] - got[j]), i8_bound * (1.0 + 1e-12))
          << BackendName(backend) << " i8 j=" << j;
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace dismastd
