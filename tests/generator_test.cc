#include "stream/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace dismastd {
namespace {

GeneratorOptions BaseOptions() {
  GeneratorOptions options;
  options.dims = {50, 40, 30};
  options.nnz = 500;
  options.seed = 7;
  return options;
}

TEST(GeneratorTest, ProducesRequestedShape) {
  const GeneratedTensor g = GenerateSparseTensor(BaseOptions());
  EXPECT_EQ(g.tensor.dims(), (std::vector<uint64_t>{50, 40, 30}));
  EXPECT_TRUE(g.tensor.Validate().ok());
  EXPECT_TRUE(g.ground_truth.empty());
}

TEST(GeneratorTest, HitsNnzTargetClosely) {
  const GeneratedTensor g = GenerateSparseTensor(BaseOptions());
  // Coordinates are unique after dedup; oversampling should land close to
  // the target on a sparse box.
  EXPECT_LE(g.tensor.nnz(), 500u);
  EXPECT_GE(g.tensor.nnz(), 450u);
}

TEST(GeneratorTest, DeterministicPerSeed) {
  const GeneratedTensor a = GenerateSparseTensor(BaseOptions());
  const GeneratedTensor b = GenerateSparseTensor(BaseOptions());
  EXPECT_TRUE(a.tensor == b.tensor);
  GeneratorOptions other = BaseOptions();
  other.seed = 8;
  const GeneratedTensor c = GenerateSparseTensor(other);
  EXPECT_FALSE(a.tensor == c.tensor);
}

TEST(GeneratorTest, CoordinatesAreUnique) {
  GeneratorOptions options = BaseOptions();
  options.dims = {10, 10};
  options.nnz = 60;
  options.zipf_exponents = {1.5, 1.5};  // heavy collisions expected
  const GeneratedTensor g = GenerateSparseTensor(options);
  SparseTensor sorted = g.tensor;
  sorted.SortLexicographic();
  for (size_t e = 1; e < sorted.nnz(); ++e) {
    const bool same = sorted.Index(e, 0) == sorted.Index(e - 1, 0) &&
                      sorted.Index(e, 1) == sorted.Index(e - 1, 1);
    EXPECT_FALSE(same);
  }
}

TEST(GeneratorTest, SkewedModeIsMoreConcentrated) {
  GeneratorOptions uniform = BaseOptions();
  uniform.dims = {200, 200, 50};
  uniform.nnz = 3000;
  GeneratorOptions skewed = uniform;
  skewed.zipf_exponents = {1.3, 0.0, 0.0};

  auto max_slice_fraction = [](const SparseTensor& t, size_t mode) {
    const auto counts = t.SliceNnzCounts(mode);
    const uint64_t max_count = *std::max_element(counts.begin(), counts.end());
    return static_cast<double>(max_count) / static_cast<double>(t.nnz());
  };

  const GeneratedTensor u = GenerateSparseTensor(uniform);
  const GeneratedTensor s = GenerateSparseTensor(skewed);
  EXPECT_GT(max_slice_fraction(s.tensor, 0),
            3.0 * max_slice_fraction(u.tensor, 0));
}

TEST(GeneratorTest, LatentModelReturnsGroundTruth) {
  GeneratorOptions options = BaseOptions();
  options.latent_rank = 3;
  const GeneratedTensor g = GenerateSparseTensor(options);
  ASSERT_EQ(g.ground_truth.size(), 3u);
  EXPECT_EQ(g.ground_truth[0].rows(), 50u);
  EXPECT_EQ(g.ground_truth[0].cols(), 3u);
}

TEST(GeneratorTest, NoiselessLatentValuesMatchModel) {
  GeneratorOptions options = BaseOptions();
  options.latent_rank = 2;
  options.noise_stddev = 0.0;
  const GeneratedTensor g = GenerateSparseTensor(options);
  const KruskalTensor truth(g.ground_truth);
  for (size_t e = 0; e < std::min<size_t>(g.tensor.nnz(), 50); ++e) {
    EXPECT_NEAR(g.tensor.Value(e), truth.ValueAt(g.tensor.IndexTuple(e)),
                1e-12);
  }
}

TEST(GeneratorTest, UniformValuesInExpectedRange) {
  const GeneratedTensor g = GenerateSparseTensor(BaseOptions());
  for (size_t e = 0; e < g.tensor.nnz(); ++e) {
    EXPECT_GE(g.tensor.Value(e), 0.5);
    EXPECT_LT(g.tensor.Value(e), 1.5);
  }
}

TEST(GeneratorTest, ScramblingSpreadsHeavySlices) {
  GeneratorOptions options = BaseOptions();
  options.dims = {1000, 50, 50};
  options.nnz = 2000;
  options.zipf_exponents = {1.2, 0.0, 0.0};
  options.scramble_indices = true;
  const GeneratedTensor g = GenerateSparseTensor(options);
  // The heaviest slice must not sit at index 0 in general (scrambled), and
  // the head of the index range must not hold most of the mass.
  const auto counts = g.tensor.SliceNnzCounts(0);
  uint64_t head_mass = 0;
  for (size_t i = 0; i < 10; ++i) head_mass += counts[i];
  EXPECT_LT(static_cast<double>(head_mass),
            0.5 * static_cast<double>(g.tensor.nnz()));
}

// A test-local copy of the generator as it was before its dedupe stopped
// copying: append every draw, sort a copy lexicographically, and rebuild a
// tensor from the first entry of each distinct coordinate until `nnz` are
// kept. The optimized generator must match it entry for entry.
uint64_t ReferenceCoprimeMultiplier(uint64_t n, uint64_t candidate) {
  if (n <= 2) return 1;
  candidate = candidate % n;
  if (candidate < 2) candidate = 2;
  while (std::gcd(candidate, n) != 1) {
    ++candidate;
    if (candidate >= n) candidate = 2;
  }
  return candidate;
}

SparseTensor ReferenceGenerate(const GeneratorOptions& options) {
  const size_t order = options.dims.size();
  std::vector<double> exponents = options.zipf_exponents;
  if (exponents.empty()) exponents.assign(order, 0.0);
  Rng rng(options.seed);
  std::vector<Matrix> ground_truth;
  if (options.latent_rank > 0) {
    Rng factor_rng = rng.Split();
    for (size_t m = 0; m < order; ++m) {
      ground_truth.push_back(Matrix::Random(
          static_cast<size_t>(options.dims[m]), options.latent_rank,
          factor_rng));
    }
  }
  std::vector<ZipfSampler> samplers;
  std::vector<uint64_t> multipliers(order), shifts(order);
  for (size_t m = 0; m < order; ++m) {
    samplers.emplace_back(options.dims[m], exponents[m]);
    multipliers[m] =
        ReferenceCoprimeMultiplier(options.dims[m], 0x9E3779B1ULL + 131 * m);
    shifts[m] =
        options.scramble_indices ? rng.NextBounded(options.dims[m]) : 0;
  }
  const KruskalTensor truth = options.latent_rank > 0
                                  ? KruskalTensor(ground_truth)
                                  : KruskalTensor();
  SparseTensor draws(options.dims);
  std::vector<uint64_t> index(order);
  const uint64_t attempts = options.nnz + options.nnz / 4 + 16;
  for (uint64_t draw = 0; draw < attempts; ++draw) {
    for (size_t m = 0; m < order; ++m) {
      uint64_t raw = samplers[m].Sample(rng);
      if (options.scramble_indices && options.dims[m] > 2) {
        raw = (raw * multipliers[m] + shifts[m]) % options.dims[m];
      }
      index[m] = raw;
    }
    double value;
    if (options.latent_rank > 0) {
      value = truth.ValueAt(index.data());
      if (options.noise_stddev > 0.0) {
        value += options.noise_stddev * rng.NextGaussian();
      }
    } else {
      value = rng.NextDouble(0.5, 1.5);
    }
    draws.AddRaw(index.data(), value);
  }
  // SortLexicographic as it was: std::sort of an identity permutation.
  std::vector<size_t> perm(draws.nnz());
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(
        draws.IndexTuple(a), draws.IndexTuple(a) + order, draws.IndexTuple(b),
        draws.IndexTuple(b) + order);
  });
  SparseTensor sorted(options.dims);
  for (size_t e : perm) sorted.AddRaw(draws.IndexTuple(e), draws.Value(e));
  SparseTensor unique(options.dims);
  for (size_t e = 0; e < sorted.nnz() && unique.nnz() < options.nnz; ++e) {
    if (e > 0 && std::equal(sorted.IndexTuple(e), sorted.IndexTuple(e) + order,
                            sorted.IndexTuple(e - 1))) {
      continue;
    }
    unique.AddRaw(sorted.IndexTuple(e), sorted.Value(e));
  }
  return unique;
}

TEST(GeneratorTest, MatchesCopySortRebuildReference) {
  std::vector<GeneratorOptions> cases;
  cases.push_back(BaseOptions());
  GeneratorOptions skewed = BaseOptions();
  skewed.dims = {12, 9};
  skewed.nnz = 70;  // more than half the box: heavy collisions, early stop
  skewed.zipf_exponents = {1.5, 1.2};
  cases.push_back(skewed);
  GeneratorOptions latent = BaseOptions();
  latent.latent_rank = 3;
  latent.noise_stddev = 0.1;
  latent.zipf_exponents = {0.9, 0.9, 0.5};
  cases.push_back(latent);
  GeneratorOptions plain = BaseOptions();
  plain.scramble_indices = false;
  plain.dims = {30, 20, 10, 5};
  plain.nnz = 2000;
  cases.push_back(plain);
  GeneratorOptions tiny;
  tiny.dims = {1, 1};
  tiny.nnz = 1;
  cases.push_back(tiny);
  GeneratorOptions empty = BaseOptions();
  empty.nnz = 0;
  cases.push_back(empty);
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_TRUE(GenerateSparseTensor(cases[i]).tensor ==
                ReferenceGenerate(cases[i]))
        << "case " << i;
  }
}

TEST(GeneratorTest, TinyDims) {
  GeneratorOptions options;
  options.dims = {1, 1};
  options.nnz = 1;
  const GeneratedTensor g = GenerateSparseTensor(options);
  EXPECT_EQ(g.tensor.nnz(), 1u);
  EXPECT_EQ(g.tensor.Index(0, 0), 0u);
}

}  // namespace
}  // namespace dismastd
