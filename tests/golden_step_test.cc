// Golden bit-identity pins for the DisMASTD streaming step. Two small
// three-step streams (one Zipf-skewed, one uniform) run with 4 workers under
// MTP and GTP; the FNV-1a of the final factor bytes, every step's exact
// sim_seconds_total and the last step's loss history are pinned to the
// values the pre-optimisation step produced. Every supported kernel backend
// must reproduce them exactly: the step's fast paths (indexed deltas,
// row-grouped partitions, batched row kernels, shared factorisations) are
// only allowed to change wall time, never a bit of output. Any change to a
// pinned value is an algorithmic change and must be called out as such.
//
// The StepPathTest cases pin the step's less-travelled paths the same way —
// an elastic stream (scale plan plus monitor-triggered repartitions), crash
// recovery in both modes, drop+corrupt message faults, the loss ablation
// without reused intermediates, and DMS-MG through the streaming driver —
// adding per-step comm bytes and messages, migrated rows and the fault
// layer's counters, at 1 and 4 execution threads on every backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dismastd.h"
#include "core/driver.h"
#include "dist/elastic.h"
#include "kernels/kernels.h"
#include "stream/generator.h"
#include "stream/snapshot.h"

namespace dismastd {
namespace {

struct Golden {
  uint64_t factor_fnv;
  std::vector<double> sim_seconds_total;  // one per step
  std::vector<double> last_loss_history;
};

struct Outcome {
  uint64_t factor_fnv = 0;
  std::vector<double> sim_seconds_total;
  std::vector<double> last_loss_history;
};

uint64_t Fnv1a(const KruskalTensor& k) {
  uint64_t hash = 1469598103934665603ULL;
  for (const Matrix& m : k.factors()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
    for (size_t i = 0; i < m.size() * sizeof(double); ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

StreamingTensorSequence MakeStream(bool skewed) {
  GeneratorOptions g;
  g.dims = skewed ? std::vector<uint64_t>{90, 60, 24}
                  : std::vector<uint64_t>{50, 50, 50};
  g.nnz = skewed ? 4000 : 5000;
  if (skewed) g.zipf_exponents = {1.1, 0.9, 0.5};
  g.latent_rank = 3;
  g.noise_stddev = 0.1;
  g.seed = skewed ? 301 : 302;
  SparseTensor full = GenerateSparseTensor(g).tensor;
  auto schedule = MakeGrowthSchedule(full.dims(), 0.8, 0.1, 3);
  return StreamingTensorSequence(std::move(full), std::move(schedule));
}

Outcome RunStream(bool skewed, PartitionerKind partitioner) {
  const StreamingTensorSequence stream = MakeStream(skewed);
  DistributedOptions options;
  options.als.rank = skewed ? 10 : 5;
  options.als.mu = 0.8;
  options.als.max_iterations = 5;
  options.num_workers = 4;
  options.partitioner = partitioner;
  options.execution.num_threads = 1;
  Outcome out;
  KruskalTensor prev;
  std::vector<uint64_t> prev_dims(stream.full().order(), 0);
  for (size_t t = 0; t < stream.num_steps(); ++t) {
    DistributedOptions step = options;
    step.als.seed = options.als.seed + t * 7919;
    step.stream_step = t;
    DistributedResult result =
        DisMastdDecompose(stream.DeltaAt(t), prev_dims, prev, step);
    out.sim_seconds_total.push_back(result.metrics.sim_seconds_total);
    out.last_loss_history = result.als.loss_history;
    prev = std::move(result.als.factors);
    prev_dims = stream.DimsAt(t);
  }
  out.factor_fnv = Fnv1a(prev);
  return out;
}

/// The pinned values, printed as C++ literals on mismatch so a deliberate
/// algorithmic change can re-pin them.
std::string AsLiteral(const Outcome& o) {
  char buf[64];
  std::string s = "{0x";
  std::snprintf(buf, sizeof(buf), "%016llxULL, {",
                static_cast<unsigned long long>(o.factor_fnv));
  s += buf;
  for (double v : o.sim_seconds_total) {
    std::snprintf(buf, sizeof(buf), "%a, ", v);
    s += buf;
  }
  s += "}, {";
  for (double v : o.last_loss_history) {
    std::snprintf(buf, sizeof(buf), "%a, ", v);
    s += buf;
  }
  return s + "}}";
}

void ExpectGolden(bool skewed, PartitionerKind partitioner,
                  const Golden& golden) {
  for (size_t b = 0; b < kernels::kNumBackends; ++b) {
    const auto backend = static_cast<kernels::Backend>(b);
    if (!kernels::Supported(backend)) continue;
    ASSERT_TRUE(kernels::ForceBackend(backend).ok());
    const Outcome got = RunStream(skewed, partitioner);
    SCOPED_TRACE(std::string("backend ") + kernels::BackendName(backend) +
                 ", got " + AsLiteral(got));
    EXPECT_EQ(got.factor_fnv, golden.factor_fnv);
    EXPECT_EQ(got.sim_seconds_total, golden.sim_seconds_total);
    EXPECT_EQ(got.last_loss_history, golden.last_loss_history);
  }
  kernels::ResetDispatch();
}

TEST(GoldenStepTest, SkewedStreamMtp) {
  const Golden golden = {
      0x79c6fa60db7fdbaeULL,
      {0x1.803b20006a4cfp-4, 0x1.4a5919f7a2e44p-4, 0x1.457011017c795p-4},
      {0x1.7d4d0ff042983p+6, 0x1.78b079a752847p+6, 0x1.77ba70cc410b4p+6,
       0x1.7738eda4eac1ep+6, 0x1.76e11afc6b613p+6}};
  ExpectGolden(true, PartitionerKind::kMaxMin, golden);
}

TEST(GoldenStepTest, SkewedStreamGtp) {
  const Golden golden = {
      0x89590db11f1a0693ULL,
      {0x1.85f95f04a5dfbp-4, 0x1.4f35da351dccbp-4, 0x1.4a38fb409ffabp-4},
      {0x1.7d4d0ff042998p+6, 0x1.78b079a75284p+6, 0x1.77ba70cc410b6p+6,
       0x1.7738eda4eac14p+6, 0x1.76e11afc6b614p+6}};
  ExpectGolden(true, PartitionerKind::kGreedy, golden);
}

TEST(GoldenStepTest, UniformStreamMtp) {
  const Golden golden = {
      0x72e63345df50dff2ULL,
      {0x1.970dbb99378dap-4, 0x1.3e2bb9d35c193p-4, 0x1.40f212343da7fp-4},
      {0x1.67e43ba5acb1fp+7, 0x1.6727a68c0cdd8p+7, 0x1.66faacf5d494ep+7,
       0x1.66e2e39862eecp+7, 0x1.66d5681cedf86p+7}};
  ExpectGolden(false, PartitionerKind::kMaxMin, golden);
}

TEST(GoldenStepTest, UniformStreamGtp) {
  const Golden golden = {
      0x21fcbb86e1f7fc92ULL,
      {0x1.9a367565905b2p-4, 0x1.41c3127d9fd7cp-4, 0x1.4488692bcecc2p-4},
      {0x1.67e43ba5acb1fp+7, 0x1.6727a68c0cdd9p+7, 0x1.66faacf5d494dp+7,
       0x1.66e2e39862eecp+7, 0x1.66d5681cedf84p+7}};
  ExpectGolden(false, PartitionerKind::kGreedy, golden);
}

// --- Step paths: elastic, crash recovery, message faults, the no-reuse
// loss ablation and DMS-MG. ----------------------------------------------

struct PathOutcome {
  uint64_t factor_fnv = 0;
  std::vector<double> sim_seconds_total;  // one per step
  /// The last step's loss history (DisMASTD cases), or every step's final
  /// loss (DMS-MG, which runs through the streaming driver).
  std::vector<double> losses;
  std::vector<uint64_t> comm_bytes;     // one per step
  std::vector<uint64_t> comm_messages;  // one per step
  uint64_t migrated_rows = 0;
  /// RecoveryMetrics counters summed over the steps, in declaration order:
  /// dropped, corrupted, delayed, retransmissions, retransmitted bytes,
  /// escalations, crashes, checkpoint and degraded recoveries, rows rebuilt
  /// from prev, rows reinitialized.
  std::vector<uint64_t> recovery_counts;
  /// fault_overhead_sim_seconds, recovery_sim_seconds.
  std::vector<double> recovery_seconds;
};

void FoldStep(const RecoveryMetrics& r, double sim_total, uint64_t bytes,
              uint64_t messages, uint64_t migrated, RecoveryMetrics* totals,
              PathOutcome* out) {
  out->sim_seconds_total.push_back(sim_total);
  out->comm_bytes.push_back(bytes);
  out->comm_messages.push_back(messages);
  out->migrated_rows += migrated;
  totals->Merge(r);
}

void FinishRecovery(const RecoveryMetrics& t, PathOutcome* out) {
  out->recovery_counts = {t.messages_dropped,       t.messages_corrupted,
                          t.messages_delayed,       t.retransmissions,
                          t.retransmitted_bytes,    t.escalations,
                          t.crashes,                t.checkpoint_recoveries,
                          t.degraded_recoveries,    t.rows_rebuilt_from_prev,
                          t.rows_reinitialized};
  out->recovery_seconds = {t.fault_overhead_sim_seconds,
                           t.recovery_sim_seconds};
}

enum class PathCase {
  kElastic,
  kCrashCheckpoint,
  kCrashDegraded,
  kMessageFaults,
  kNoReuse,
  kDmsMg,
};

StreamingTensorSequence MakePathStream(PathCase c) {
  if (c != PathCase::kElastic) return MakeStream(/*skewed=*/true);
  // Five steps so the scale events and the monitor have room to act.
  GeneratorOptions g;
  g.dims = {90, 60, 24};
  g.nnz = 4000;
  g.zipf_exponents = {1.1, 0.9, 0.5};
  g.latent_rank = 3;
  g.noise_stddev = 0.1;
  g.seed = 303;
  SparseTensor full = GenerateSparseTensor(g).tensor;
  auto schedule = MakeGrowthSchedule(full.dims(), 0.6, 0.1, 5);
  return StreamingTensorSequence(std::move(full), std::move(schedule));
}

DistributedOptions PathOptions(PathCase c, uint32_t threads) {
  DistributedOptions o;
  o.als.rank = 6;
  o.als.mu = 0.8;
  o.als.max_iterations = 5;
  o.num_workers = 4;
  o.partitioner = PartitionerKind::kMaxMin;
  o.execution.num_threads = threads;
  switch (c) {
    case PathCase::kCrashCheckpoint:
    case PathCase::kCrashDegraded:
      o.fault_plan.crash_worker = 2;
      o.fault_plan.crash_stream_step = 1;
      o.fault_plan.crash_superstep = 9;
      o.recovery = c == PathCase::kCrashCheckpoint ? RecoveryMode::kCheckpoint
                                                   : RecoveryMode::kDegraded;
      break;
    case PathCase::kMessageFaults:
      o.fault_plan.seed = 29;
      o.fault_plan.drop_prob = 0.05;
      o.fault_plan.corrupt_prob = 0.03;
      break;
    case PathCase::kNoReuse:
      o.als.reuse_intermediates = false;
      break;
    case PathCase::kElastic:
    case PathCase::kDmsMg:
      break;
  }
  return o;
}

PathOutcome RunPath(PathCase c, uint32_t threads, uint64_t* repartitions) {
  const StreamingTensorSequence stream = MakePathStream(c);
  DistributedOptions options = PathOptions(c, threads);
  PathOutcome out;
  RecoveryMetrics totals;
  KruskalTensor prev;
  if (c == PathCase::kDmsMg) {
    const auto metrics = RunStreamingExperiment(
        stream, MethodKind::kDmsMg, options, /*compute_fit=*/false,
        [&](const StreamStepMetrics&, const KruskalTensor& f) { prev = f; });
    for (const StreamStepMetrics& m : metrics) {
      FoldStep(m.recovery, m.sim_seconds_total, m.comm_bytes,
               m.comm_messages, m.migrated_rows, &totals, &out);
      out.losses.push_back(m.final_loss);
    }
  } else {
    ElasticOptions eopts;
    eopts.imbalance_threshold = 1.005;
    eopts.cooldown_steps = 0;
    eopts.scale_plan = ParseScalePlan("add=2@1,drain=1@3").value();
    ElasticCoordinator coordinator(eopts, options.partitioner,
                                   options.num_workers);
    if (c == PathCase::kElastic) options.elastic = &coordinator;
    // The streaming driver's per-step discipline (seed, stream_step),
    // called directly so the last step's whole loss history is visible.
    std::vector<uint64_t> prev_dims(stream.full().order(), 0);
    for (size_t t = 0; t < stream.num_steps(); ++t) {
      DistributedOptions step = options;
      step.als.seed = options.als.seed + t * 7919;
      step.stream_step = t;
      DistributedResult result =
          DisMastdDecompose(stream.DeltaAt(t), prev_dims, prev, step);
      const DistributedRunMetrics& m = result.metrics;
      FoldStep(m.recovery, m.sim_seconds_total, m.comm_payload_bytes,
               m.comm_messages, m.migrated_rows, &totals, &out);
      out.losses = result.als.loss_history;
      prev = std::move(result.als.factors);
      prev_dims = stream.DimsAt(t);
    }
    *repartitions = coordinator.totals().repartitions;
  }
  FinishRecovery(totals, &out);
  out.factor_fnv = Fnv1a(prev);
  return out;
}

template <typename T>
void AppendList(const std::vector<T>& values, const char* format,
                std::string* s) {
  char buf[64];
  *s += "{";
  for (const T& v : values) {
    std::snprintf(buf, sizeof(buf), format, v);
    *s += buf;
  }
  *s += "}";
}

std::string AsLiteral(const PathOutcome& o) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{0x%016llxULL, ",
                static_cast<unsigned long long>(o.factor_fnv));
  std::string s = buf;
  AppendList(o.sim_seconds_total, "%a, ", &s);
  s += ", ";
  AppendList(o.losses, "%a, ", &s);
  s += ", ";
  AppendList(o.comm_bytes, "%lluULL, ", &s);
  s += ", ";
  AppendList(o.comm_messages, "%lluULL, ", &s);
  std::snprintf(buf, sizeof(buf), ", %lluULL, ",
                static_cast<unsigned long long>(o.migrated_rows));
  s += buf;
  AppendList(o.recovery_counts, "%lluULL, ", &s);
  s += ", ";
  AppendList(o.recovery_seconds, "%a, ", &s);
  return s + "}";
}

void ExpectPathGolden(PathCase c, const PathOutcome& golden) {
  for (uint32_t threads : {1u, 4u}) {
    for (size_t b = 0; b < kernels::kNumBackends; ++b) {
      const auto backend = static_cast<kernels::Backend>(b);
      if (!kernels::Supported(backend)) continue;
      ASSERT_TRUE(kernels::ForceBackend(backend).ok());
      uint64_t repartitions = 0;
      const PathOutcome got = RunPath(c, threads, &repartitions);
      SCOPED_TRACE(std::string("backend ") + kernels::BackendName(backend) +
                   ", threads " + std::to_string(threads) + ", got " +
                   AsLiteral(got));
      EXPECT_EQ(got.factor_fnv, golden.factor_fnv);
      EXPECT_EQ(got.sim_seconds_total, golden.sim_seconds_total);
      EXPECT_EQ(got.losses, golden.losses);
      EXPECT_EQ(got.comm_bytes, golden.comm_bytes);
      EXPECT_EQ(got.comm_messages, golden.comm_messages);
      EXPECT_EQ(got.migrated_rows, golden.migrated_rows);
      EXPECT_EQ(got.recovery_counts, golden.recovery_counts);
      EXPECT_EQ(got.recovery_seconds, golden.recovery_seconds);
      if (c == PathCase::kElastic) {
        // Two scale events plus at least one monitor-triggered repartition.
        EXPECT_GT(repartitions, 2u);
      }
    }
  }
  kernels::ResetDispatch();
}

TEST(StepPathTest, ElasticScalePlanAndMonitorRepartition) {
  const PathOutcome golden = {
      0xb48f260de199a4bbULL,
      {0x1.42ddd14e5e294p-4, 0x1.5e987204ddbdep-4, 0x1.5f04dfdb13d9dp-4,
       0x1.655913d3ada2fp-4, 0x1.656c7e2d826f3p-4},
      {0x1.3ea3b6a9cd2ffp+7, 0x1.3bd2692ce3f26p+7, 0x1.3b15fc537ac4ep+7,
       0x1.3ac42c3cee2cbp+7, 0x1.3a9bfff387bccp+7},
      {460904ULL, 736720ULL, 796144ULL, 684400ULL, 700528ULL},
      {912ULL, 2312ULL, 2309ULL, 1563ULL, 1558ULL},
      430ULL,
      {0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL},
      {0x0p+0, 0x0p+0}};
  ExpectPathGolden(PathCase::kElastic, golden);
}

TEST(StepPathTest, CrashRecoveredFromCheckpoint) {
  const PathOutcome golden = {
      0xbc0df1273829f9afULL,
      {0x1.74b0b970cf76p-4, 0x1.8a97946cf029ap-4, 0x1.3aaf753cdcc3fp-4},
      {0x1.8111b4cf4125dp+6, 0x1.7b73720bc5de9p+6, 0x1.7aafd66d3cba6p+6,
       0x1.7a6dc58b73fdfp+6, 0x1.7a4b3990288e2p+6},
      {647600ULL, 596792ULL, 490872ULL},
      {912ULL, 1176ULL, 912ULL},
      0ULL,
      {0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 1ULL, 1ULL, 0ULL, 0ULL, 0ULL},
      {0x0p+0, 0x1.2ada1e440dcc1p-6}};
  ExpectPathGolden(PathCase::kCrashCheckpoint, golden);
}

TEST(StepPathTest, CrashRecoveredDegraded) {
  const PathOutcome golden = {
      0xfc20a7f5da6f08eeULL,
      {0x1.74b0b970cf76p-4, 0x1.526f4246e6325p-4, 0x1.3aaf753cdcc3fp-4},
      {0x1.80fc01eb6da4p+6, 0x1.7b66986b0ec3ep+6, 0x1.7aa306756c407p+6,
       0x1.7a60b8ad0071fp+6, 0x1.7a3e1c6c125f3p+6},
      {647600ULL, 524360ULL, 490872ULL},
      {912ULL, 1020ULL, 912ULL},
      0ULL,
      {0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 1ULL, 0ULL, 1ULL, 35ULL, 6ULL},
      {0x0p+0, 0x1.28e356af97bb8p-8}};
  ExpectPathGolden(PathCase::kCrashDegraded, golden);
}

TEST(StepPathTest, DropAndCorruptMessageFaults) {
  const PathOutcome golden = {
      0xbc0df1273829f9afULL,
      {0x1.85ecff7ad28dp-4, 0x1.52f048b912971p-4, 0x1.4e05127d49f18p-4},
      {0x1.8111b4cf4125dp+6, 0x1.7b73720bc5de9p+6, 0x1.7aafd66d3cba6p+6,
       0x1.7a6dc58b73fdfp+6, 0x1.7a4b3990288e2p+6},
      {664092ULL, 508140ULL, 510172ULL},
      {961ULL, 967ULL, 967ULL},
      0ULL,
      {103ULL, 56ULL, 0ULL, 159ULL, 44772ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL,
       0ULL},
      {0x1.182a9930be0ep-7, 0x0p+0}};
  ExpectPathGolden(PathCase::kMessageFaults, golden);
}

TEST(StepPathTest, LossWithoutReusedIntermediates) {
  const PathOutcome golden = {
      0xbc0df1273829f9afULL,
      {0x1.a4f2988e56c58p-4, 0x1.6132b671d2bc7p-4, 0x1.5a60424ec8d49p-4},
      {0x1.8111b4cf41258p+6, 0x1.7b73720bc5debp+6, 0x1.7aafd66d3cba7p+6,
       0x1.7a6dc58b73fep+6, 0x1.7a4b3990288ddp+6},
      {648080ULL, 491144ULL, 491352ULL},
      {972ULL, 972ULL, 972ULL},
      0ULL,
      {0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL},
      {0x0p+0, 0x0p+0}};
  ExpectPathGolden(PathCase::kNoReuse, golden);
}

TEST(StepPathTest, DmsMgThroughStreamingDriver) {
  const PathOutcome golden = {
      0x2843056ca3a1b0b5ULL,
      {0x1.74b0b970cf76p-4, 0x1.98e09ff9963fep-4, 0x1.b8f67805b9ed1p-4},
      {0x1.27e5fd6a2d709p+8, 0x1.a6261f9a802dap+8, 0x1.04a0a3f99deaap+9},
      {647600ULL, 763408ULL, 868392ULL},
      {912ULL, 912ULL, 912ULL},
      0ULL,
      {0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL},
      {0x0p+0, 0x0p+0}};
  ExpectPathGolden(PathCase::kDmsMg, golden);
}

}  // namespace
}  // namespace dismastd
