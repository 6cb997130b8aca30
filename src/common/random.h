#ifndef DISMASTD_COMMON_RANDOM_H_
#define DISMASTD_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace dismastd {

/// Deterministic, fast PRNG (xoshiro256**), seeded via SplitMix64.
/// All randomness in the library flows through this class so experiments are
/// reproducible bit-for-bit from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, bound). `bound` must be > 0. Uses rejection sampling so
  /// the distribution is exactly uniform.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Splits off an independent child generator; deterministic given the
  /// parent state. Useful for giving each worker / mode its own stream.
  Rng Split();

 private:
  uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// Zipf(s) sampler over {0, 1, ..., n-1} using the inverse-CDF on a
/// precomputed table. Exponent s = 0 degenerates to uniform. Used to model
/// the skewed non-zero distribution of real rating tensors. A guide table
/// narrows each draw's search to the CDF entries of one bucket of u, so
/// every draw returns exactly std::lower_bound(cdf, u) in a few probes.
class ZipfSampler {
 public:
  /// `n` must be >= 1; `exponent` >= 0.
  ZipfSampler(uint64_t n, double exponent);

  /// Draws a value in [0, n).
  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double exponent() const { return exponent_; }

 private:
  uint64_t n_;
  double exponent_;
  std::vector<double> cdf_;  // normalized cumulative weights
  /// guide_[b] = std::lower_bound(cdf_, b / buckets) for b in [0, buckets],
  /// buckets a power of two, so the answer for u in [b, b + 1) / buckets
  /// lies in [guide_[b], guide_[b + 1]].
  std::vector<uint32_t> guide_;
  double buckets_ = 1.0;
};

}  // namespace dismastd

#endif  // DISMASTD_COMMON_RANDOM_H_
