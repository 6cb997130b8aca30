#include "stream/generator.h"

#include <algorithm>
#include <numeric>

namespace dismastd {
namespace {

/// Finds a multiplier coprime with `n` so that i -> (i * mult + shift) % n
/// is a bijection on [0, n).
uint64_t CoprimeMultiplier(uint64_t n, uint64_t candidate) {
  if (n <= 2) return 1;
  candidate = candidate % n;
  if (candidate < 2) candidate = 2;
  while (std::gcd(candidate, n) != 1) {
    ++candidate;
    if (candidate >= n) candidate = 2;
  }
  return candidate;
}

}  // namespace

GeneratedTensor GenerateSparseTensor(const GeneratorOptions& options) {
  DISMASTD_CHECK(!options.dims.empty());
  const size_t order = options.dims.size();
  std::vector<double> exponents = options.zipf_exponents;
  if (exponents.empty()) exponents.assign(order, 0.0);
  DISMASTD_CHECK(exponents.size() == order);

  Rng rng(options.seed);
  GeneratedTensor out;

  if (options.latent_rank > 0) {
    Rng factor_rng = rng.Split();
    out.ground_truth.reserve(order);
    for (size_t m = 0; m < order; ++m) {
      out.ground_truth.push_back(
          Matrix::Random(static_cast<size_t>(options.dims[m]),
                         options.latent_rank, factor_rng));
    }
  }

  std::vector<ZipfSampler> samplers;
  samplers.reserve(order);
  std::vector<uint64_t> multipliers(order), shifts(order);
  for (size_t m = 0; m < order; ++m) {
    samplers.emplace_back(options.dims[m], exponents[m]);
    multipliers[m] =
        CoprimeMultiplier(options.dims[m], 0x9E3779B1ULL + 131 * m);
    shifts[m] = options.scramble_indices
                    ? rng.NextBounded(options.dims[m])
                    : 0;
  }

  const KruskalTensor truth =
      options.latent_rank > 0 ? KruskalTensor(out.ground_truth)
                              : KruskalTensor();

  std::vector<uint64_t> index(order);
  // Oversample: coalescing drops duplicate coordinates.
  const uint64_t attempts = options.nnz + options.nnz / 4 + 16;
  SparseTensor draws(options.dims);
  draws.Reserve(static_cast<size_t>(attempts));
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

  // Drop duplicate coordinates, keeping the value that sorts first: summing
  // duplicates would distort a model-driven value. One permutation in
  // lexicographic order (ties broken by std::sort on the raw draws), one
  // counting pass to size the result exactly, one copy pass.
  const std::vector<size_t> sorted = draws.LexicographicOrder();
  auto repeats_previous = [&](size_t k) {
    return k > 0 && std::equal(draws.IndexTuple(sorted[k]),
                               draws.IndexTuple(sorted[k]) + order,
                               draws.IndexTuple(sorted[k - 1]));
  };
  size_t kept = 0;
  size_t scan_end = 0;
  for (; scan_end < sorted.size() && kept < options.nnz; ++scan_end) {
    if (!repeats_previous(scan_end)) ++kept;
  }
  out.tensor = SparseTensor(options.dims);
  out.tensor.Reserve(kept);
  for (size_t k = 0; k < scan_end; ++k) {
    if (repeats_previous(k)) continue;
    out.tensor.AddRaw(draws.IndexTuple(sorted[k]), draws.Value(sorted[k]));
  }
  return out;
}

GeneratedTensor GenerateDenseLowRankTensor(const std::vector<uint64_t>& dims,
                                           size_t rank, double noise_stddev,
                                           uint64_t seed) {
  DISMASTD_CHECK(!dims.empty());
  DISMASTD_CHECK(rank >= 1);
  Rng rng(seed);
  GeneratedTensor out;
  out.tensor = SparseTensor(dims);
  out.ground_truth.reserve(dims.size());
  for (uint64_t d : dims) {
    out.ground_truth.push_back(
        Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  const KruskalTensor truth(out.ground_truth);
  const size_t order = dims.size();
  std::vector<uint64_t> index(order, 0);
  for (;;) {
    double value = truth.ValueAt(index.data());
    if (noise_stddev > 0.0) value += noise_stddev * rng.NextGaussian();
    out.tensor.AddRaw(index.data(), value);
    // Odometer increment, mode 0 fastest.
    size_t m = 0;
    while (m < order && ++index[m] == dims[m]) {
      index[m] = 0;
      ++m;
    }
    if (m == order) break;
  }
  return out;
}

}  // namespace dismastd
