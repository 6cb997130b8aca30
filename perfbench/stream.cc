// stream_netflix / stream_synthetic: the paper's Fig. 5 protocol.
//
// The dataset mimic is streamed from 70% to 100% in 5% steps. Step 0 is a
// cold start and belongs to set-up; steps 1-6 (75% -> 100%) are the timed
// window. Each warm step calls DeltaAt, RunDisMastdDeltaStep, SnapshotNnz
// and ServeSession::Publish, exactly as a live deployment would. The window
// is replayed from the same step-0 model (at least twice, more while a pass
// still fits in --seconds), so every pass does identical work and must
// produce identical results.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/driver.h"
#include "core/dtd.h"
#include "serve/serve_session.h"
#include "stats.h"
#include "stream/datasets.h"

namespace perfbench {
namespace {

using namespace dismastd;

constexpr size_t kSteps = 7;  // 70%, 75%, ..., 100%
constexpr double kFactorTolerance = 1e-7;

/// The paper's setup (§V-A): R = 10, μ = 0.8, 10 iterations, 15 simulated
/// workers, MTP. The engine runs sequentially: on a shared machine extra
/// engine threads add more wall-time noise than they remove.
DistributedOptions PaperOptions() {
  DistributedOptions options;
  options.als.rank = 10;
  options.als.mu = 0.8;
  options.als.max_iterations = 10;
  options.num_workers = 15;
  options.partitioner = PartitionerKind::kMaxMin;
  options.execution.num_threads = 1;
  return options;
}

serve::ServeSessionOptions SessionOptions(obs::Tracer* tracer) {
  serve::ServeSessionOptions options;
  options.num_query_threads = 1;
  options.tracer = tracer;
  return options;
}

/// Everything set-up produces: the stream and the published cold start.
struct Setup {
  std::unique_ptr<StreamingTensorSequence> stream;
  KruskalTensor step0;
  double seconds = 0.0;
};

Setup RunSetup(const DatasetSpec& spec, const DistributedOptions& options) {
  const Clock::time_point start = Clock::now();
  Setup setup;
  setup.stream = std::make_unique<StreamingTensorSequence>(
      MakeDatasetStream(spec, 0.70, 0.05, kSteps));
  const SparseTensor delta = setup.stream->DeltaAt(0);
  RunDisMastdDeltaStep(delta, std::vector<uint64_t>(delta.order(), 0),
                       setup.stream->DimsAt(0), &setup.step0, 0, options);
  setup.stream->SnapshotNnz(0);
  serve::ServeSession session(SessionOptions(nullptr));
  session.Publish(setup.step0, 0);
  setup.seconds = SecondsSince(start);
  return setup;
}

/// Per-pass wall times and the step metrics of one window pass.
struct Pass {
  double window_s = 0.0;
  double delta_s = 0.0;
  double decompose_s = 0.0;
  double publish_s = 0.0;
  std::vector<double> step_latency_s;
  std::vector<StreamStepMetrics> steps;
  KruskalTensor before_last;  // factors entering the last step
  KruskalTensor final_factors;
};

Pass RunWindow(const Setup& setup, DistributedOptions options,
               obs::Tracer* tracer) {
  options.tracer = tracer;
  const StreamingTensorSequence& stream = *setup.stream;
  // A fresh serving plane holding the step-0 model, as set-up left it.
  serve::ServeSession session(SessionOptions(tracer));
  session.Publish(setup.step0, 0);
  KruskalTensor factors = setup.step0;
  Pass pass;
  const Clock::time_point window_start = Clock::now();
  for (size_t t = 1; t < kSteps; ++t) {
    const Clock::time_point step_start = Clock::now();
    LayerSpan delta_span(tracer, "stream.delta");
    const SparseTensor delta = stream.DeltaAt(t);
    pass.delta_s += delta_span.Stop();
    if (t + 1 == kSteps) pass.before_last = factors;
    LayerSpan decompose_span(tracer, "core.decompose");
    StreamStepMetrics sm = RunDisMastdDeltaStep(
        delta, stream.DimsAt(t - 1), stream.DimsAt(t), &factors, t, options);
    pass.decompose_s += decompose_span.Stop();
    LayerSpan nnz_span(tracer, "stream.delta");
    sm.snapshot_nnz = stream.SnapshotNnz(t);
    pass.delta_s += nnz_span.Stop();
    LayerSpan publish_span(tracer, "serve.publish");
    session.Publish(factors, t);
    pass.publish_s += publish_span.Stop();
    pass.step_latency_s.push_back(SecondsSince(step_start));
    pass.steps.push_back(std::move(sm));
  }
  pass.window_s = SecondsSince(window_start);
  pass.final_factors = std::move(factors);
  return pass;
}

bool SameFactors(const KruskalTensor& a, const KruskalTensor& b) {
  if (a.order() != b.order()) return false;
  for (size_t n = 0; n < a.order(); ++n) {
    const Matrix& x = a.factor(n);
    const Matrix& y = b.factor(n);
    if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
    if (std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

double MeanSimPerIter(const Pass& pass) {
  double sum = 0.0;
  for (const StreamStepMetrics& sm : pass.steps) {
    sum += sm.sim_seconds_per_iteration;
  }
  return sum / static_cast<double>(pass.steps.size());
}

uint64_t FactorBytes(const KruskalTensor& k) {
  uint64_t bytes = 0;
  for (const Matrix& m : k.factors()) bytes += m.size() * sizeof(double);
  return bytes;
}

}  // namespace

Report RunStream(const std::string& dataset, const RunConfig& config) {
  Report report;
  Result<DatasetSpec> found = FindDataset(dataset);
  if (!found.ok()) {
    report.Check("dataset", false, found.status().message());
    return report;
  }
  DatasetSpec spec = found.value();
  // The workload seed selects the tensor; the program sees only the data.
  spec.seed = spec.seed + 7919 * config.seed;
  const DistributedOptions options = PaperOptions();

  // --- Set-up: data generation, cold step 0 and its first publish. -------
  const int setups = config.tracer != nullptr ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < setups; ++i) {
    setup = Setup();  // release the previous copy before building the next
    setup = RunSetup(spec, options);
    setup_s.push_back(setup.seconds);
  }

  // --- Timed window passes (untraced): at least two, so the repeat check
  //     below has something to compare, then more while another pass still
  //     fits in --seconds.
  std::vector<Pass> passes;
  const Clock::time_point measure_start = Clock::now();
  const size_t min_passes = config.tracer != nullptr ? 1 : 2;
  while (passes.size() < min_passes ||
         (config.tracer == nullptr &&
          SecondsSince(measure_start) + passes.back().window_s <=
              config.seconds)) {
    passes.push_back(RunWindow(setup, options, nullptr));
  }
  const Pass& first = passes.front();
  const double peak_rss_mb = PeakRssMb();  // before the checks allocate
  const double n_passes = static_cast<double>(passes.size());

  // --- Correctness, outside the timed window. ----------------------------
  // 1. Every pass replays identical work: bit-identical factors, identical
  //    simulated seconds (the paper's deterministic metric).
  bool repeat_ok = true;
  for (const Pass& p : passes) {
    repeat_ok = repeat_ok && SameFactors(p.final_factors, first.final_factors) &&
                MeanSimPerIter(p) == MeanSimPerIter(first);
  }
  report.Check("passes_repeat_exactly", repeat_ok,
               std::to_string(passes.size()) + " passes");
  // 2. The last warm step, replayed through the sequential DTD from the
  //    same prior factors and per-step seed, agrees with the distributed
  //    result.
  {
    const StreamingTensorSequence& stream = *setup.stream;
    const size_t t = kSteps - 1;
    DecompositionOptions als = options.als;
    als.seed = options.als.seed + t * 7919;
    const AlsResult reference = DynamicTensorDecomposition(
        stream.DeltaAt(t), stream.DimsAt(t - 1), first.before_last, als);
    bool close = reference.factors.order() == first.final_factors.order();
    for (size_t n = 0; close && n < reference.factors.order(); ++n) {
      close = reference.factors.factor(n).AllClose(
          first.final_factors.factor(n), kFactorTolerance);
    }
    report.Check("last_step_matches_sequential_dtd", close,
                 "AllClose(1e-7)");
  }
  bool steps_clean = true;
  for (const StreamStepMetrics& sm : first.steps) {
    steps_clean = steps_clean && sm.orphaned_messages == 0 &&
                  sm.recovery.crashes == 0;
  }
  report.Check("steps_clean", steps_clean, "no orphaned messages");
  const double fit = first.final_factors.Fit(setup.stream->SnapshotAt(kSteps - 1));

  // --- End-to-end metrics. ------------------------------------------------
  std::vector<double> latency_ms;
  double window_s = 0.0;
  for (const Pass& p : passes) {
    for (double s : p.step_latency_s) latency_ms.push_back(s * 1e3);
    window_s += p.window_s;
  }
  // Throughput: window nnz over the sum of each step's median latency
  // across passes, so a pass slowed by other tenants of the machine does
  // not drag the figure down.
  uint64_t processed_nnz = 0;
  double median_window_s = 0.0;
  for (size_t t = 0; t < first.steps.size(); ++t) {
    processed_nnz += first.steps[t].processed_nnz;
    std::vector<double> step_s;
    for (const Pass& p : passes) step_s.push_back(p.step_latency_s[t]);
    median_window_s += Median(step_s);
  }
  report.attempted += latency_ms.size();
  const Percentiles lat = Summarize(latency_ms);
  report.E2e("setup_s", Median(setup_s), "s");
  report.E2e("peak_rss_mb", peak_rss_mb, "MB");
  report.E2e("latency_p50_ms", lat.p50, "ms");
  report.E2e("throughput_per_s",
             static_cast<double>(processed_nnz) / median_window_s, "1/s");
  report.Layer("tail.latency_p95_ms", lat.p95, "ms");
  report.Layer("tail.latency_p99_ms", lat.p99, "ms");
  report.Note("latency.samples", std::to_string(lat.count) + " warm steps");
  report.Note("setup.samples", std::to_string(setup_s.size()));

  // --- Per-layer metrics (means over passes). -----------------------------
  double delta_s = 0.0, decompose_s = 0.0, publish_s = 0.0;
  for (const Pass& p : passes) {
    delta_s += p.delta_s / n_passes;
    decompose_s += p.decompose_s / n_passes;
    publish_s += p.publish_s / n_passes;
  }
  uint64_t flops = 0, comm_bytes = 0, comm_messages = 0;
  double partition_sim = 0.0, mttkrp_sim = 0.0, gram_sim = 0.0, loss_sim = 0.0;
  double imbalance = 0.0;
  for (const StreamStepMetrics& sm : first.steps) {
    flops += sm.flops;
    comm_bytes += sm.comm_bytes;
    comm_messages += sm.comm_messages;
    partition_sim += sm.sim_seconds_partitioning;
    mttkrp_sim += sm.sim_seconds_mttkrp_update;
    gram_sim += sm.sim_seconds_gram_reduce;
    loss_sim += sm.sim_seconds_loss;
    imbalance += sm.load_imbalance / static_cast<double>(first.steps.size());
  }
  report.Layer("stream.s", window_s / n_passes, "s");
  report.Layer("stream.delta_s", delta_s, "s");
  report.Layer("core.decompose_s", decompose_s, "s");
  report.Layer("core.fit", fit, "ratio");
  report.Layer("kernels.flops", static_cast<double>(flops), "count");
  report.Layer("kernels.gflops", static_cast<double>(flops) / decompose_s / 1e9,
               "GFLOP/s");
  report.Layer("partition.sim_s", partition_sim, "s");
  report.Layer("dist.sim_s_per_iter", MeanSimPerIter(first), "s");
  report.Layer("dist.sim_mttkrp_update_s", mttkrp_sim, "s");
  report.Layer("dist.sim_gram_reduce_s", gram_sim, "s");
  report.Layer("dist.sim_loss_s", loss_sim, "s");
  report.Layer("dist.comm_bytes", static_cast<double>(comm_bytes), "bytes");
  report.Layer("dist.comm_messages", static_cast<double>(comm_messages), "count");
  report.Layer("dist.load_imbalance", imbalance, "ratio");
  report.Layer("serve.publish_s", publish_s, "s");

  report.Note("workload.threads", "1 (sequential engine, inline serve)");
  report.Note("working_set.factor_bytes",
              std::to_string(FactorBytes(first.final_factors)));
  report.Note("working_set.tensor_nnz",
              std::to_string(setup.stream->full().nnz()));

  // --- Traced pass: the same window with every sink attached. ------------
  if (config.tracer != nullptr) {
    const Pass traced = RunWindow(setup, options, config.tracer);
    report.Check("traced_pass_matches",
                 SameFactors(traced.final_factors, first.final_factors),
                 "tracing must not change results");
    const double spans = traced.delta_s + traced.decompose_s + traced.publish_s;
    const double gap = std::fabs(traced.window_s - spans) / traced.window_s;
    report.Check("layer_spans_tile_stream_s", gap <= 0.05,
                 "gap " + std::to_string(gap * 100) + "%");
    report.Layer("trace.overhead_pct",
                 (traced.window_s - first.window_s) / first.window_s * 100.0,
                 "%");
  }
  return report;
}

}  // namespace perfbench
