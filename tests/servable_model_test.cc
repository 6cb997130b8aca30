#include "serve/servable_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "la/ops.h"

namespace dismastd {
namespace serve {
namespace {

KruskalTensor MakeFactors(uint64_t seed, std::vector<uint64_t> dims = {9, 7, 5},
                          size_t rank = 3) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (uint64_t d : dims) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  return KruskalTensor(std::move(factors));
}

TEST(ServableModelTest, CarriesVersionAndStepMetadata) {
  const auto model = ServableModel::Build(MakeFactors(1), 7, 42);
  EXPECT_EQ(model->version(), 7u);
  EXPECT_EQ(model->step(), 42u);
  EXPECT_EQ(model->order(), 3u);
  EXPECT_EQ(model->rank(), 3u);
  EXPECT_EQ(model->dims(), (std::vector<uint64_t>{9, 7, 5}));
}

TEST(ServableModelTest, PrecomputedGramsMatchDirectProducts) {
  const KruskalTensor factors = MakeFactors(2);
  const auto model = ServableModel::Build(factors, 1, 0);
  for (size_t mode = 0; mode < factors.order(); ++mode) {
    const Matrix expected =
        TransposeTimes(factors.factor(mode), factors.factor(mode));
    EXPECT_TRUE(model->gram(mode).AllClose(expected, 1e-12));
  }
}

TEST(ServableModelTest, ColumnNormsMatchManualComputation) {
  const KruskalTensor factors = MakeFactors(3);
  const auto model = ServableModel::Build(factors, 1, 0);
  for (size_t mode = 0; mode < factors.order(); ++mode) {
    const Matrix& f = factors.factor(mode);
    ASSERT_EQ(model->column_norms(mode).size(), f.cols());
    for (size_t c = 0; c < f.cols(); ++c) {
      double sum = 0.0;
      for (size_t r = 0; r < f.rows(); ++r) sum += f(r, c) * f(r, c);
      EXPECT_NEAR(model->column_norms(mode)[c], std::sqrt(sum), 1e-12);
    }
  }
}

TEST(ServableModelTest, NormSquaredMatchesKruskal) {
  const KruskalTensor factors = MakeFactors(4);
  const auto model = ServableModel::Build(factors, 1, 0);
  EXPECT_NEAR(model->norm_squared(), factors.NormSquaredViaGrams(), 1e-9);
}

TEST(ServableModelTest, PredictMatchesValueAt) {
  const KruskalTensor factors = MakeFactors(5);
  const auto model = ServableModel::Build(factors, 1, 0);
  for (uint64_t i = 0; i < 9; ++i) {
    for (uint64_t j = 0; j < 7; ++j) {
      const uint64_t index[] = {i, j, i % 5};
      EXPECT_EQ(model->Predict(index), factors.ValueAt(index));
    }
  }
}

TEST(ServableModelTest, ValidateIndexChecksArityAndBounds) {
  const auto model = ServableModel::Build(MakeFactors(6), 1, 0);
  EXPECT_TRUE(model->ValidateIndex({0, 0, 0}).ok());
  EXPECT_TRUE(model->ValidateIndex({8, 6, 4}).ok());
  EXPECT_EQ(model->ValidateIndex({0, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model->ValidateIndex({9, 0, 0}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(model->ValidateIndex({0, 0, 5}).code(), StatusCode::kOutOfRange);
}

TEST(ServableModelTest, FingerprintIsStableAndRecomputable) {
  const auto a = ServableModel::Build(MakeFactors(7), 1, 0);
  const auto b = ServableModel::Build(MakeFactors(7), 2, 1);
  const auto c = ServableModel::Build(MakeFactors(8), 3, 2);
  // Same factors -> same fingerprint regardless of version metadata.
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  EXPECT_NE(a->fingerprint(), c->fingerprint());
  EXPECT_EQ(a->ComputeFingerprint(), a->fingerprint());
}

/// Brute-force oracle: score every candidate with ValueAt, sort by
/// (score desc, index asc), take K.
std::vector<ScoredIndex> BruteForceTopK(const KruskalTensor& factors,
                                        size_t target_mode,
                                        std::vector<uint64_t> anchor,
                                        size_t k) {
  const uint64_t candidates = factors.dims()[target_mode];
  std::vector<ScoredIndex> scored;
  for (uint64_t j = 0; j < candidates; ++j) {
    anchor[target_mode] = j;
    scored.push_back({j, factors.ValueAt(anchor.data())});
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredIndex& a, const ScoredIndex& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.index < b.index;
            });
  scored.resize(std::min<size_t>(k, scored.size()));
  return scored;
}

TEST(ServableModelTest, TopKMatchesBruteForceRescore) {
  const KruskalTensor factors = MakeFactors(9, {20, 40, 6}, 4);
  const auto model = ServableModel::Build(factors, 1, 0);
  for (size_t target_mode = 0; target_mode < 3; ++target_mode) {
    const std::vector<uint64_t> anchor = {3, 5, 2};
    const auto got = model->TopK(target_mode, anchor, 5);
    const auto expected = BruteForceTopK(factors, target_mode, anchor, 5);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, expected[i].index)
          << "target_mode=" << target_mode << " position " << i;
      EXPECT_NEAR(got[i].score, expected[i].score, 1e-12);
    }
  }
}

TEST(ServableModelTest, TopKClampsKToCandidateCount) {
  const auto model = ServableModel::Build(MakeFactors(10), 1, 0);
  const auto all = model->TopK(1, {0, 0, 0}, 1000);
  EXPECT_EQ(all.size(), 7u);
  // Clamped result is fully sorted.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].score, all[i].score);
  }
}

TEST(ServableModelTest, TopKScoresAreCombinationWeightsDotRows) {
  const KruskalTensor factors = MakeFactors(11);
  const auto model = ServableModel::Build(factors, 1, 0);
  const std::vector<uint64_t> anchor = {4, 0, 3};
  const std::vector<double> weights = model->CombinationWeights(1, anchor);
  const auto top = model->TopK(1, anchor, 7);
  for (const ScoredIndex& entry : top) {
    double expected = 0.0;
    for (size_t f = 0; f < model->rank(); ++f) {
      expected += factors.factor(1)(static_cast<size_t>(entry.index), f) *
                  weights[f];
    }
    EXPECT_NEAR(entry.score, expected, 1e-12);
  }
}

TEST(ServableModelTest, QuantizedCopiesFollowBuildOptions) {
  const KruskalTensor factors = MakeFactors(12);
  const auto full = ServableModel::Build(factors, 1, 0);
  EXPECT_TRUE(full->HasPrecision(Precision::kF64));
  EXPECT_TRUE(full->HasPrecision(Precision::kBf16));
  EXPECT_TRUE(full->HasPrecision(Precision::kInt8));

  ServableBuildOptions f64_only;
  f64_only.publish_bf16 = false;
  f64_only.publish_int8 = false;
  const auto lean = ServableModel::Build(factors, 1, 0, f64_only);
  EXPECT_TRUE(lean->HasPrecision(Precision::kF64));
  EXPECT_FALSE(lean->HasPrecision(Precision::kBf16));
  EXPECT_FALSE(lean->HasPrecision(Precision::kInt8));
  const Result<TopKResult> refused =
      lean->TopKWithPrecision(1, {0, 0, 0}, 3, Precision::kBf16);
  EXPECT_FALSE(refused.ok());
}

TEST(ServableModelTest, QuantizedTopKScoresWithinReportedBound) {
  const KruskalTensor factors = MakeFactors(13, {20, 40, 6}, 4);
  const auto model = ServableModel::Build(factors, 1, 0);
  const std::vector<uint64_t> anchor = {3, 0, 2};
  const size_t candidates = 40;  // rank every candidate so none is hidden
  const Result<TopKResult> exact =
      model->TopKWithPrecision(1, anchor, candidates, Precision::kF64);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().score_error_bound, 0.0);

  for (Precision precision : {Precision::kBf16, Precision::kInt8}) {
    const Result<TopKResult> quant =
        model->TopKWithPrecision(1, anchor, candidates, precision);
    ASSERT_TRUE(quant.ok()) << PrecisionName(precision);
    EXPECT_EQ(quant.value().precision, precision);
    const double bound = quant.value().score_error_bound;
    EXPECT_GT(bound, 0.0);

    // Index the exact scores and check each quantized score against its
    // candidate's exact score: |s_quant - s_f64| <= bound for every item.
    std::vector<double> exact_by_index(candidates, 0.0);
    for (const ScoredIndex& entry : exact.value().items) {
      exact_by_index[static_cast<size_t>(entry.index)] = entry.score;
    }
    for (const ScoredIndex& entry : quant.value().items) {
      const double f64_score =
          exact_by_index[static_cast<size_t>(entry.index)];
      EXPECT_LE(std::abs(entry.score - f64_score), bound * (1.0 + 1e-12))
          << PrecisionName(precision) << " index " << entry.index;
    }
  }
}

TEST(ServableModelTest, AnnExactPrecisionFullShortlistIsBitExact) {
  // With the shortlist covering every candidate, ANN + exact re-rank is the
  // same computation as the brute-force scan: scores must match bit for bit.
  const KruskalTensor factors = MakeFactors(14, {64, 48, 6}, 4);
  const auto model = ServableModel::Build(factors, 1, 0);
  ASSERT_NE(model->ann_index(), nullptr);
  const std::vector<uint64_t> anchor = {3, 0, 2};
  const Result<TopKResult> exact =
      model->TopKWithPrecision(1, anchor, 10, Precision::kF64);
  const Result<TopKResult> ann =
      model->TopKAnn(1, anchor, 10, Precision::kF64, /*probes=*/1000);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(ann.ok());
  EXPECT_EQ(ann.value().rows_scored, 48u);
  ASSERT_EQ(ann.value().items.size(), exact.value().items.size());
  for (size_t i = 0; i < exact.value().items.size(); ++i) {
    EXPECT_EQ(ann.value().items[i].index, exact.value().items[i].index);
    // Bit-exact, not approximately equal: the shortlist rows go through the
    // same topk_score_block kernel as the full scan.
    EXPECT_EQ(ann.value().items[i].score, exact.value().items[i].score);
  }
}

TEST(ServableModelTest, AnnProbesTimesKSaturatesInsteadOfWrapping) {
  // probes * k = (2^63 + 1) * 2 wraps to 2 in size_t arithmetic; the
  // shortlist must saturate to the whole mode, not shrink to two rows.
  const KruskalTensor factors = MakeFactors(17, {64, 48, 6}, 4);
  const auto model = ServableModel::Build(factors, 1, 0);
  const std::vector<uint64_t> anchor = {3, 0, 2};
  const size_t probes = (size_t{1} << 63) + 1;
  const Result<TopKResult> ann =
      model->TopKAnn(1, anchor, 2, Precision::kF64, probes);
  ASSERT_TRUE(ann.ok()) << ann.status();
  EXPECT_EQ(ann.value().rows_scored, 48u);
  EXPECT_EQ(ann.value().items, model->TopK(1, anchor, 2));
}

TEST(ServableModelTest, AnnQuantizedRerankStaysWithinReportedBound) {
  // Quantized ANN composition: the shortlist is re-ranked through the bf16
  // / int8 kernels, and every returned score must sit within the published
  // score_error_bound of the fp64 score for that same row.
  const KruskalTensor factors = MakeFactors(15, {30, 64, 6}, 4);
  const auto model = ServableModel::Build(factors, 1, 0);
  const std::vector<uint64_t> anchor = {7, 0, 3};
  const std::vector<double> weights = model->CombinationWeights(1, anchor);

  for (Precision precision : {Precision::kBf16, Precision::kInt8}) {
    const Result<TopKResult> quant =
        model->TopKAnn(1, anchor, 8, precision, /*probes=*/4);
    ASSERT_TRUE(quant.ok()) << PrecisionName(precision);
    EXPECT_EQ(quant.value().precision, precision);
    const double bound = quant.value().score_error_bound;
    EXPECT_GT(bound, 0.0);
    EXPECT_GT(quant.value().rows_scored, 0u);
    EXPECT_LT(quant.value().rows_scored, 64u);  // genuinely a shortlist

    for (const ScoredIndex& entry : quant.value().items) {
      double f64_score = 0.0;
      for (size_t f = 0; f < model->rank(); ++f) {
        f64_score += factors.factor(1)(static_cast<size_t>(entry.index), f) *
                     weights[f];
      }
      EXPECT_LE(std::abs(entry.score - f64_score), bound * (1.0 + 1e-12))
          << PrecisionName(precision) << " index " << entry.index;
    }
  }
}

TEST(ServableModelTest, AnnRefusesWhenIndexOrPrecisionMissing) {
  const KruskalTensor factors = MakeFactors(16);
  ServableBuildOptions no_ann;
  no_ann.build_ann = false;
  const auto lean = ServableModel::Build(factors, 1, 0, no_ann);
  EXPECT_EQ(lean->ann_index(), nullptr);
  EXPECT_EQ(lean->TopKAnn(1, {0, 0, 0}, 3, Precision::kF64, 4).status().code(),
            StatusCode::kFailedPrecondition);

  ServableBuildOptions f64_only;
  f64_only.publish_bf16 = false;
  f64_only.publish_int8 = false;
  const auto no_bf16 = ServableModel::Build(factors, 1, 0, f64_only);
  EXPECT_FALSE(no_bf16->TopKAnn(1, {0, 0, 0}, 3, Precision::kBf16, 4).ok());
}

}  // namespace
}  // namespace serve
}  // namespace dismastd
