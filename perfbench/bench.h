// Shared pieces of the DisMASTD wall-clock benchmark: the per-run report,
// the benchmark-side span recorder, process probes and the workload entry
// points. Every workload calls only the library's public entry points; all
// timing and span recording happens here, around those calls.
#ifndef DISMASTD_PERFBENCH_BENCH_H_
#define DISMASTD_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `e2e` is measured with tracing off;
/// `layers` holds the per-layer figures (bench-side wall times around
/// each layer call plus the counts the library returns).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  /// Free-form key/value facts printed with the result (sample counts,
  /// ladder rows, check outcomes).
  std::vector<std::pair<std::string, std::string>> notes;

  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  /// Records a correctness check; a failed check is a failed operation.
  void Check(const std::string& name, bool ok, const std::string& detail) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
    Note("check." + name, std::string(ok ? "pass" : "FAIL") +
                              (detail.empty() ? "" : " (" + detail + ")"));
  }
};

/// How a workload is run.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Non-null in a traced run: the workload measures once untraced, then
  /// repeats the measurement with this tracer attached to every sink the
  /// library offers and to the benchmark's own layer spans.
  dismastd::obs::Tracer* tracer = nullptr;
};

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Benchmark-side span around one layer call: records a wall span named
/// after the layer on the calling thread's lane when a tracer is active,
/// and returns the elapsed seconds either way.
class LayerSpan {
 public:
  LayerSpan(dismastd::obs::Tracer* tracer, const char* name)
      : tracer_(dismastd::obs::Active(tracer) ? tracer : nullptr),
        name_(name),
        start_wall_(tracer_ != nullptr ? tracer_->WallNowSeconds() : 0.0),
        start_(Clock::now()) {}
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;
  double Stop() {
    const double seconds = SecondsSince(start_);
    if (tracer_ != nullptr) {
      tracer_->AddWallSpan(name_, "bench", start_wall_,
                           tracer_->WallNowSeconds(), "bench");
    }
    return seconds;
  }

 private:
  dismastd::obs::Tracer* tracer_;
  const char* name_;
  double start_wall_;
  Clock::time_point start_;
};

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// Workload entry points (one per BENCHMARK.json workload).
Report RunStream(const std::string& dataset, const RunConfig& config);
Report RunServeTopK(const RunConfig& config);
Report RunIngestServe(const RunConfig& config);

}  // namespace perfbench

#endif  // DISMASTD_PERFBENCH_BENCH_H_
