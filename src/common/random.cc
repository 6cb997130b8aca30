#include "common/random.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/status.h"

namespace dismastd {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  DISMASTD_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

Rng Rng::Split() { return Rng(NextU64()); }

ZipfSampler::ZipfSampler(uint64_t n, double exponent)
    : n_(n), exponent_(exponent) {
  DISMASTD_CHECK(n >= 1);
  DISMASTD_CHECK(exponent >= 0.0);
  cdf_.resize(n);
  double acc = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = acc;
  }
  for (auto& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding drift
  // About one bucket per value, at most 2^20. With a power-of-two count,
  // u * buckets and b / buckets are exact, so bucket b holds exactly the u
  // in [b / buckets, (b + 1) / buckets).
  DISMASTD_CHECK(n <= std::numeric_limits<uint32_t>::max());
  const uint64_t buckets = std::bit_ceil(std::min<uint64_t>(n, 1u << 20));
  buckets_ = static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  uint32_t i = 0;
  for (uint64_t b = 0; b <= buckets; ++b) {
    const double bound = static_cast<double>(b) / buckets_;
    while (cdf_[i] < bound) ++i;  // stops at the last entry, 1.0
    guide_[b] = i;
  }
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const size_t b = static_cast<size_t>(u * buckets_);
  const auto it = std::lower_bound(cdf_.begin() + guide_[b],
                                   cdf_.begin() + guide_[b + 1], u);
  return static_cast<uint64_t>(std::distance(cdf_.begin(), it));
}

}  // namespace dismastd
