// Golden bit-identity pins for the DisMASTD streaming step. Two small
// three-step streams (one Zipf-skewed, one uniform) run with 4 workers under
// MTP and GTP; the FNV-1a of the final factor bytes, every step's exact
// sim_seconds_total and the last step's loss history are pinned to the
// values the pre-optimisation step produced. Every supported kernel backend
// must reproduce them exactly: the step's fast paths (indexed deltas,
// row-grouped partitions, batched row kernels, shared factorisations) are
// only allowed to change wall time, never a bit of output. Any change to a
// pinned value is an algorithmic change and must be called out as such.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dismastd.h"
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

}  // namespace
}  // namespace dismastd
