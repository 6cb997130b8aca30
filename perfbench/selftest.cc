// Self-test of the benchmark's percentile helper against known sample
// sets (expected values are numpy.quantile's default "linear" method).
// run.py runs it after every build; a non-zero exit aborts the benchmark.

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(const char* what, double got, double want) {
  const bool same = (std::isinf(got) && std::isinf(want) && got == want) ||
                    std::fabs(got - want) <= 1e-12 * std::fmax(1.0, std::fabs(want));
  if (!same) {
    std::fprintf(stderr, "selftest FAIL: %s = %.17g, want %.17g\n", what, got,
                 want);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::Quantile;
  const double inf = std::numeric_limits<double>::infinity();

  const std::vector<double> ten = {7, 3, 10, 1, 5, 9, 2, 8, 6, 4};
  Expect("q0(1..10)", Quantile(ten, 0.0), 1.0);
  Expect("q50(1..10)", Quantile(ten, 0.5), 5.5);
  Expect("q99(1..10)", Quantile(ten, 0.99), 9.91);
  Expect("q100(1..10)", Quantile(ten, 1.0), 10.0);
  Expect("q25(1..10)", Quantile(ten, 0.25), 3.25);

  const std::vector<double> five = {15, 20, 35, 40, 50};
  Expect("q40(five)", Quantile(five, 0.40), 29.0);
  Expect("q90(five)", Quantile(five, 0.90), 46.0);
  Expect("median(five)", perfbench::Median(five), 35.0);

  Expect("single", Quantile({42.0}, 0.99), 42.0);
  Expect("ties", Quantile({2, 2, 2, 2}, 0.73), 2.0);

  // A failed operation is recorded as +inf and must land at the top.
  const std::vector<double> with_failure = {1, 2, inf};
  Expect("q50(failure)", Quantile(with_failure, 0.5), 2.0);
  Expect("q99(failure)", Quantile(with_failure, 0.99), inf);
  Expect("q100(two inf)", Quantile({inf, inf}, 1.0), inf);

  if (!std::isnan(Quantile({}, 0.5))) {
    std::fprintf(stderr, "selftest FAIL: empty sample set is not NaN\n");
    ++failures;
  }

  // 1000 samples 0.001..1.000: p99 sits between the 990th and 991st.
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i * 1e-3);
  const perfbench::Percentiles p = perfbench::Summarize(thousand);
  Expect("count", static_cast<double>(p.count), 1000.0);
  Expect("p50(1000)", p.p50, 0.5005);
  Expect("p95(1000)", p.p95, 0.95005);
  Expect("p99(1000)", p.p99, 0.99001);

  if (failures > 0) return 1;
  std::printf("selftest: percentile helper OK\n");
  return 0;
}
