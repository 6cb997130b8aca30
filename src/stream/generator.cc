#include "stream/generator.h"

#include <algorithm>
#include <bit>
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

__extension__ using Word128 = unsigned __int128;

/// Bits needed for x.
unsigned BitWidth128(Word128 x) {
  const auto high = static_cast<uint64_t>(x >> 64);
  return high != 0 ? 64 + static_cast<unsigned>(std::bit_width(high))
                   : static_cast<unsigned>(
                         std::bit_width(static_cast<uint64_t>(x)));
}

/// Draws `attempts` entries with draw(index) (which fills the index tuple
/// and returns the value) and keeps the first `nnz` distinct coordinates in
/// lexicographic order, each with the value of its first draw in sorted
/// order. A draw is one word, its coordinate's mixed-radix key (mode 0 most
/// significant, so keys order as the tuples do) above the draw number.
/// std::sort compares the key bits only: it sees the comparison outcomes
/// of a sort of draw numbers by their tuples, so it leaves the same
/// permutation and keeps the same duplicate. Only kept keys are decoded.
template <typename Word, typename Draw>
SparseTensor DrawDistinct(const std::vector<uint64_t>& dims, uint64_t nnz,
                          uint64_t attempts, unsigned id_bits, Draw&& draw) {
  const size_t order = dims.size();
  std::vector<Word> words(attempts);
  std::vector<double> values(attempts);
  std::vector<uint64_t> index(order);
  for (uint64_t d = 0; d < attempts; ++d) {
    values[d] = draw(index.data());
    Word key = 0;
    for (size_t m = 0; m < order; ++m) key = key * dims[m] + index[m];
    words[d] = key << id_bits | d;
  }
  const auto key_of = [id_bits](Word w) { return w >> id_bits; };
  std::sort(words.begin(), words.end(),
            [&](Word a, Word b) { return key_of(a) < key_of(b); });
  // One counting pass to size the result exactly, one decoding pass.
  auto repeats_previous = [&](size_t k) {
    return k > 0 && key_of(words[k]) == key_of(words[k - 1]);
  };
  size_t kept = 0;
  size_t scan_end = 0;
  for (; scan_end < words.size() && kept < nnz; ++scan_end) {
    if (!repeats_previous(scan_end)) ++kept;
  }
  const Word id_mask = (Word{1} << id_bits) - 1;
  SparseTensor out(dims);
  out.Reserve(kept);
  for (size_t k = 0; k < scan_end; ++k) {
    if (repeats_previous(k)) continue;
    Word key = key_of(words[k]);
    for (size_t m = order; m-- > 0;) {
      index[m] = static_cast<uint64_t>(key % dims[m]);
      key /= dims[m];
    }
    out.AddRaw(index.data(), values[static_cast<size_t>(words[k] & id_mask)]);
  }
  return out;
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
  auto draw = [&](uint64_t* index) {
    for (size_t m = 0; m < order; ++m) {
      uint64_t raw = samplers[m].Sample(rng);
      if (options.scramble_indices && options.dims[m] > 2) {
        raw = (raw * multipliers[m] + shifts[m]) % options.dims[m];
      }
      index[m] = raw;
    }
    if (options.latent_rank == 0) return rng.NextDouble(0.5, 1.5);
    double value = truth.ValueAt(index);
    if (options.noise_stddev > 0.0) {
      value += options.noise_stddev * rng.NextGaussian();
    }
    return value;
  };

  // Oversample: dropping duplicate coordinates (keeping the value that
  // sorts first; summing them would distort a model-driven value) can
  // leave fewer than nnz.
  const uint64_t attempts = options.nnz + options.nnz / 4 + 16;
  Word128 max_key = 0;
  for (uint64_t d : options.dims) {
    DISMASTD_CHECK(max_key <= (~Word128{0} - (d - 1)) / d);
    max_key = max_key * d + (d - 1);
  }
  const unsigned key_bits = BitWidth128(max_key);
  const auto id_bits = static_cast<unsigned>(std::bit_width(attempts - 1));
  DISMASTD_CHECK(key_bits + id_bits <= 128);
  out.tensor =
      key_bits + id_bits <= 64
          ? DrawDistinct<uint64_t>(options.dims, options.nnz, attempts,
                                   id_bits, draw)
          : DrawDistinct<Word128>(options.dims, options.nnz, attempts,
                                  id_bits, draw);
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
