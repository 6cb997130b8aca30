// Exact sample statistics for the benchmark: every latency and freshness
// percentile is computed from the recorded samples themselves (sorted,
// linearly interpolated between closest ranks), never from a bucketed
// histogram summary.
#ifndef DISMASTD_PERFBENCH_STATS_H_
#define DISMASTD_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `samples`, interpolating linearly
/// between the two closest ranks (the "type 7" estimator numpy and R use
/// by default). +inf samples (failed operations) sort last and are valid
/// results. Returns NaN on an empty sample set.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || samples[lo] == samples[hi]) return samples[lo];
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// p50, p95 and p99 of one sample set together with its size, which the
/// report prints beside every percentile.
struct Percentiles {
  size_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

inline Percentiles Summarize(const std::vector<double>& samples) {
  Percentiles p;
  p.count = samples.size();
  if (samples.empty()) return p;
  p.p50 = Quantile(samples, 0.50);
  p.p95 = Quantile(samples, 0.95);
  p.p99 = Quantile(samples, 0.99);
  return p;
}

}  // namespace perfbench

#endif  // DISMASTD_PERFBENCH_STATS_H_
