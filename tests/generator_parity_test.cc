// The generator's fast paths against test-local copies of the code they
// replaced: the Zipf sampler's guide-table lookup against a plain
// std::lower_bound over the same CDF, and the packed-word dedupe against
// the generator that sorted an index permutation of a full draws tensor.
// Both must give the same bytes, not just equal distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "stream/generator.h"
#include "tensor/coo_tensor.h"
#include "tensor/kruskal.h"

namespace dismastd {
namespace {

/// The sampler as it was: the normalized CDF and one std::lower_bound per
/// draw.
class LowerBoundZipf {
 public:
  LowerBoundZipf(uint64_t n, double exponent) : cdf_(n) {
    double acc = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = acc;
    }
    for (auto& c : cdf_) c /= acc;
    cdf_.back() = 1.0;
  }

  uint64_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    return static_cast<uint64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

TEST(GeneratorParityTest, ZipfSampleEqualsLowerBoundOnMillionDraws) {
  for (uint64_t n : {1u, 2u, 3u, 440u, 3600u, 96000u}) {
    for (double exponent : {0.0, 0.5, 0.8, 0.95, 1.2}) {
      const ZipfSampler sampler(n, exponent);
      const LowerBoundZipf reference(n, exponent);
      Rng rng(n * 31 + static_cast<uint64_t>(exponent * 100));
      Rng reference_rng = rng;
      size_t mismatches = 0;
      for (int draw = 0; draw < 1000000; ++draw) {
        mismatches += sampler.Sample(rng) != reference.Sample(reference_rng);
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " exponent=" << exponent;
    }
  }
}

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

/// The generator as it was: every draw appended to a SparseTensor with the
/// lower_bound sampler, a permutation sorted by the index tuples, then the
/// first entry of each distinct coordinate until `nnz` are kept.
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
  std::vector<LowerBoundZipf> samplers;
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
  std::vector<size_t> perm(draws.nnz());
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    const uint64_t* ia = draws.IndexTuple(a);
    const uint64_t* ib = draws.IndexTuple(b);
    for (size_t m = 0; m < order; ++m) {
      if (ia[m] != ib[m]) return ia[m] < ib[m];
    }
    return false;
  });
  SparseTensor unique(options.dims);
  for (size_t k = 0; k < perm.size() && unique.nnz() < options.nnz; ++k) {
    if (k > 0 && std::equal(draws.IndexTuple(perm[k]),
                            draws.IndexTuple(perm[k]) + order,
                            draws.IndexTuple(perm[k - 1]))) {
      continue;
    }
    unique.AddRaw(draws.IndexTuple(perm[k]), draws.Value(perm[k]));
  }
  return unique;
}

/// memcmp of the index and value arrays.
::testing::AssertionResult SameBytes(const SparseTensor& want,
                                     const SparseTensor& got) {
  if (want.dims() != got.dims() || want.nnz() != got.nnz()) {
    return ::testing::AssertionFailure()
           << "nnz " << got.nnz() << ", want " << want.nnz();
  }
  if (want.nnz() == 0) return ::testing::AssertionSuccess();
  const size_t order = want.order();
  if (std::memcmp(want.IndexTuple(0), got.IndexTuple(0),
                  want.nnz() * order * sizeof(uint64_t)) != 0) {
    return ::testing::AssertionFailure() << "indices differ";
  }
  if (std::memcmp(want.ValuePtr(0), got.ValuePtr(0),
                  want.nnz() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "values differ";
  }
  return ::testing::AssertionSuccess();
}

struct Case {
  std::string name;
  GeneratorOptions options;
};

GeneratorOptions Options(std::vector<uint64_t> dims, uint64_t nnz,
                         std::vector<double> exponents, uint64_t seed) {
  GeneratorOptions options;
  options.dims = std::move(dims);
  options.nnz = nnz;
  options.zipf_exponents = std::move(exponents);
  options.seed = seed;
  return options;
}

TEST(GeneratorParityTest, MatchesSortedPermutationGeneratorByteForByte) {
  std::vector<Case> cases;
  cases.push_back({"uniform", Options({300, 200, 100}, 20000, {}, 1)});
  cases.push_back(
      {"skewed", Options({960, 360, 44}, 20000, {0.8, 0.95, 0.5}, 2)});
  Case unscrambled{"unscrambled",
                   Options({960, 360, 44}, 20000, {1.2, 0.5, 0.0}, 3)};
  unscrambled.options.scramble_indices = false;
  cases.push_back(unscrambled);
  for (double noise : {0.0, 0.1}) {
    Case latent{"latent4 noise=" + std::to_string(noise),
                Options({400, 300, 50}, 15000, {0.9, 0.9, 0.6}, 4)};
    latent.options.latent_rank = 4;
    latent.options.noise_stddev = noise;
    cases.push_back(latent);
  }
  cases.push_back({"order2", Options({500, 70}, 9000, {0.95, 0.0}, 5)});
  cases.push_back(
      {"order4", Options({40, 30, 20, 10}, 30000, {0.5, 0.0, 1.2, 0.8}, 6)});
  // Nearly every draw repeats a coordinate: ties decide which value stays.
  cases.push_back({"dense box", Options({12, 9, 4}, 400, {1.5, 1.2, 0.0}, 7)});
  Case dense_latent{"dense box latent",
                    Options({7, 6}, 40, {0.8, 0.0}, 8)};
  dense_latent.options.latent_rank = 4;
  dense_latent.options.noise_stddev = 0.1;
  cases.push_back(dense_latent);
  // A 60-bit key plus 12 bits of draw number: the 128-bit word.
  Case wide{"128-bit word",
            Options({100000, 100000, 100000, 1000}, 2000, {0.8, 0.0, 0.5, 1.2},
                    9)};
  wide.options.latent_rank = 4;
  wide.options.noise_stddev = 0.1;
  cases.push_back(wide);
  cases.push_back({"empty", Options({5, 5}, 0, {}, 10)});
  for (const Case& c : cases) {
    EXPECT_TRUE(SameBytes(ReferenceGenerate(c.options),
                          GenerateSparseTensor(c.options).tensor))
        << c.name;
  }
}

}  // namespace
}  // namespace dismastd
