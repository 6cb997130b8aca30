// Elastic cluster: scale-plan / fault-plan parsing diagnostics, the load
// monitor's threshold + cooldown policy, coordinator-driven online
// repartitioning with state migration (deterministic, thread-invariant,
// fault-tolerant), the distinct migration byte category, and serving while
// a rebalance is in flight (a TSan target via the `elastic` ctest label).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cp_als.h"
#include "core/dismastd.h"
#include "core/driver.h"
#include "dist/elastic.h"
#include "dist/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_store.h"
#include "stream/generator.h"
#include "stream/snapshot.h"
#include "test_util.h"

namespace dismastd {
namespace {

StreamingTensorSequence MakeStream(uint64_t seed) {
  SparseTensor full =
      test::MakeDenseLowRank({18, 15, 12}, 2, seed, 0.05).tensor;
  auto schedule = MakeGrowthSchedule(full.dims(), 0.75, 0.05, 6);
  return StreamingTensorSequence(std::move(full), std::move(schedule));
}

DistributedOptions BaseOpts() {
  DistributedOptions o;
  o.als.rank = 3;
  o.als.max_iterations = 6;
  o.num_workers = 4;
  o.partitioner = PartitionerKind::kMaxMin;
  return o;
}

/// Elastic options whose monitor can never fire, so every repartition in a
/// test using them is a deterministic scale-plan event.
ElasticOptions ScaleOnlyOpts(const std::string& plan) {
  ElasticOptions e;
  e.imbalance_threshold = 1000.0;
  const auto parsed = ParseScalePlan(plan);
  DISMASTD_CHECK_OK(parsed.status());
  e.scale_plan = parsed.value();
  return e;
}

struct ElasticRun {
  std::vector<StreamStepMetrics> metrics;
  KruskalTensor factors;
  ElasticTotals totals;
};

ElasticRun RunElastic(const StreamingTensorSequence& stream,
                      DistributedOptions options,
                      const ElasticOptions& eopts) {
  ElasticCoordinator coordinator(eopts, options.partitioner,
                                 options.num_workers, options.parts_per_mode);
  options.elastic = &coordinator;
  ElasticRun run;
  const StreamStepObserver observe =
      [&](const StreamStepMetrics&, const KruskalTensor& f) {
        run.factors = f;
      };
  run.metrics = RunStreamingExperiment(stream, MethodKind::kDisMastd, options,
                                       /*compute_fit=*/false, observe);
  run.totals = coordinator.totals();
  return run;
}

void ExpectFactorsIdentical(const KruskalTensor& a, const KruskalTensor& b) {
  ASSERT_EQ(a.order(), b.order());
  for (size_t n = 0; n < a.order(); ++n) {
    EXPECT_TRUE(a.factor(n) == b.factor(n)) << "mode " << n;
  }
}

TEST(ScalePlanTest, ParsesEventsAndSumsPerStep) {
  const auto plan = ParseScalePlan("add=2@5,drain=1@9,add=1@5");
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan.value().AddedAt(5), 3u);
  EXPECT_EQ(plan.value().DrainedAt(9), 1u);
  EXPECT_EQ(plan.value().AddedAt(0), 0u);
  EXPECT_EQ(plan.value().DrainedAt(5), 0u);

  const auto empty = ParseScalePlan("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(ScalePlanTest, ErrorsNameOffendingTokenAndPosition) {
  // Every diagnostic must carry the 1-based token position and the literal
  // token, so a typo deep in a long plan is findable from the message.
  struct Case {
    const char* spec;
    const char* where;
    const char* why;
  };
  const Case cases[] = {
      {"add=2@5,bogus", "scale plan token 2 ('bogus')", "expected add="},
      {"grow=2@5", "scale plan token 1 ('grow=2@5')", "unknown action 'grow'"},
      {"add=0@5", "scale plan token 1 ('add=0@5')",
       "worker count '0' is not a positive integer"},
      {"add=2", "scale plan token 1 ('add=2')", "missing '@STEP'"},
      {"add=2@5,drain=1@x", "scale plan token 2 ('drain=1@x')",
       "step 'x' is not a non-negative integer"},
  };
  for (const Case& c : cases) {
    const auto plan = ParseScalePlan(c.spec);
    ASSERT_FALSE(plan.ok()) << c.spec;
    EXPECT_NE(plan.status().message().find(c.where), std::string::npos)
        << c.spec << " -> " << plan.status().message();
    EXPECT_NE(plan.status().message().find(c.why), std::string::npos)
        << c.spec << " -> " << plan.status().message();
  }
}

TEST(FaultPlanTest, ErrorsNameOffendingTokenAndPosition) {
  // The fault-plan parser gives the same token-addressed diagnostics.
  struct Case {
    const char* spec;
    const char* where;
  };
  const Case cases[] = {
      {"drop=0.05,zzz=1", "fault plan token 2 ('zzz=1')"},
      {"drop=abc", "fault plan token 1 ('drop=abc')"},
      {"crash", "fault plan token 1 ('crash')"},
      {"drop=0.01,corrupt=0.01,retries=many",
       "fault plan token 3 ('retries=many')"},
  };
  for (const Case& c : cases) {
    const auto plan = ParseFaultPlan(c.spec);
    ASSERT_FALSE(plan.ok()) << c.spec;
    EXPECT_NE(plan.status().message().find(c.where), std::string::npos)
        << c.spec << " -> " << plan.status().message();
  }
}

TEST(ElasticOptionsTest, ValidateRejectsBadKnobs) {
  ElasticOptions e;
  EXPECT_TRUE(e.Validate().ok());
  e.imbalance_threshold = 0.5;
  EXPECT_FALSE(e.Validate().ok());
  e.imbalance_threshold = 1.5;
  e.load_decay = 1.0;
  EXPECT_FALSE(e.Validate().ok());
  e.load_decay = 0.0;
  EXPECT_TRUE(e.Validate().ok());
}

TEST(LoadMonitorTest, TriggersAboveThresholdAfterCooldown) {
  LoadMonitor monitor(/*threshold=*/1.5, /*cooldown_steps=*/2,
                      /*smoothing=*/0.0);
  // Nothing observed yet: never triggers.
  EXPECT_FALSE(monitor.ShouldRebalance(0));
  monitor.Observe(1.0);
  EXPECT_DOUBLE_EQ(monitor.last_imbalance(), 1.0);
  EXPECT_FALSE(monitor.ShouldRebalance(1));
  // 2.5x max/avg: above the 1.5 threshold.
  monitor.Observe(2.5);
  EXPECT_DOUBLE_EQ(monitor.last_imbalance(), 2.5);
  EXPECT_TRUE(monitor.ShouldRebalance(2));

  monitor.NoteRebalance(2);
  // The signal is reset: stale pre-rebalance imbalance cannot re-trigger.
  EXPECT_FALSE(monitor.ShouldRebalance(3));
  monitor.Observe(2.5);
  // Above threshold again, but inside the 2-step cooldown window.
  EXPECT_FALSE(monitor.ShouldRebalance(3));
  EXPECT_TRUE(monitor.ShouldRebalance(4));
}

TEST(LoadMonitorTest, SmoothingDampsOneStepSpikes) {
  LoadMonitor monitor(/*threshold=*/1.5, /*cooldown_steps=*/0,
                      /*smoothing=*/0.5);
  monitor.Observe(1.0);
  monitor.Observe(2.0);  // signal = 0.5*1 + 0.5*2 = 1.5
  EXPECT_DOUBLE_EQ(monitor.signal(), 1.5);
  EXPECT_FALSE(monitor.ShouldRebalance(1));  // not strictly above
  monitor.Observe(2.0);  // signal = 0.5*1.5 + 0.5*2 = 1.75
  EXPECT_DOUBLE_EQ(monitor.signal(), 1.75);
  EXPECT_TRUE(monitor.ShouldRebalance(2));
}

TEST(ElasticCoordinatorTest, FirstStepComputesInitialPartitionSilently) {
  const SparseTensor delta =
      test::MakeDenseLowRank({8, 6, 5}, 2, /*seed=*/3).tensor;
  ElasticOptions eopts;
  ElasticCoordinator coordinator(eopts, PartitionerKind::kMaxMin,
                                 /*initial_workers=*/4);
  const ElasticStepPlan plan = coordinator.BeginStep(delta, 0);
  EXPECT_TRUE(plan.active);
  EXPECT_FALSE(plan.repartition);  // nothing exists to migrate yet
  EXPECT_EQ(plan.num_workers, 4u);
  EXPECT_EQ(coordinator.totals().repartitions, 0u);
  // The initial partition covers every slice of every mode.
  ASSERT_EQ(coordinator.partitioning().modes.size(), 3u);
  for (size_t n = 0; n < 3; ++n) {
    const ModePartition& mode = coordinator.partitioning().modes[n];
    EXPECT_EQ(mode.slice_to_part.size(), delta.dims()[n]);
    for (uint32_t part : mode.slice_to_part) {
      EXPECT_LT(part, coordinator.num_parts());
    }
  }
}

TEST(ElasticCoordinatorTest, RepartitionsWhenObservedImbalanceExceeds) {
  const SparseTensor delta =
      test::MakeDenseLowRank({8, 6, 5}, 2, /*seed=*/3).tensor;
  ElasticOptions eopts;
  eopts.imbalance_threshold = 1.5;
  eopts.cooldown_steps = 0;
  ElasticCoordinator coordinator(eopts, PartitionerKind::kMaxMin,
                                 /*initial_workers=*/4);
  coordinator.BeginStep(delta, 0);
  coordinator.EndStep(4.0 / 1.75);  // busy {4, 1, 1, 1}: ~2.3x
  const ElasticStepPlan plan = coordinator.BeginStep(delta, 1);
  EXPECT_TRUE(plan.repartition);
  EXPECT_EQ(coordinator.totals().repartitions, 1u);
  // The pre-repartition ownership is preserved for the migration and
  // covers every slice.
  ASSERT_EQ(plan.prev_partitioning.modes.size(), 3u);
  for (size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(plan.prev_partitioning.modes[n].slice_to_part.size(),
              delta.dims()[n]);
  }
  // Balanced steps keep the partition stable.
  coordinator.EndStep(1.0);
  EXPECT_FALSE(coordinator.BeginStep(delta, 2).repartition);
}

TEST(ElasticCoordinatorTest, DrainIsClampedToKeepOneWorker) {
  const SparseTensor delta =
      test::MakeDenseLowRank({8, 6, 5}, 2, /*seed=*/3).tensor;
  ElasticCoordinator coordinator(ScaleOnlyOpts("drain=9@0"),
                                 PartitionerKind::kMaxMin,
                                 /*initial_workers=*/4);
  const ElasticStepPlan plan = coordinator.BeginStep(delta, 0);
  EXPECT_EQ(plan.workers_drained, 3u);
  EXPECT_EQ(plan.num_workers, 1u);
}

TEST(ElasticCoordinatorTest, PublishedCountersAreDeltasNotTotals) {
  obs::MetricRegistry registry;
  ElasticCoordinator coordinator(ElasticOptions{}, PartitionerKind::kMaxMin,
                                 /*initial_workers=*/4);
  coordinator.totals().migrated_rows = 5;
  coordinator.totals().migration_bytes = 640;
  coordinator.PublishTo(&registry);
  // Publishing again without new activity must not double-count: the
  // coordinator is published once per streaming step.
  coordinator.PublishTo(&registry);
  EXPECT_EQ(
      registry.GetCounter("dismastd_elastic_migrated_rows_total")->Value(),
      5u);
  EXPECT_EQ(
      registry.GetCounter("dismastd_elastic_migration_bytes_total")->Value(),
      640u);
  coordinator.totals().migrated_rows += 2;
  coordinator.PublishTo(&registry);
  EXPECT_EQ(
      registry.GetCounter("dismastd_elastic_migrated_rows_total")->Value(),
      7u);
}

TEST(ElasticStreamingTest, ScalePlanExecutesWithStateMigration) {
  const StreamingTensorSequence stream = MakeStream(2);
  const ElasticRun run =
      RunElastic(stream, BaseOpts(), ScaleOnlyOpts("add=2@2,drain=2@4"));
  ASSERT_EQ(run.metrics.size(), 6u);

  // Steps 0-1 run at the initial four workers, the joiners arrive at step
  // 2, the two highest ranks leave again at step 4.
  EXPECT_EQ(run.metrics[1].num_workers, 4u);
  EXPECT_EQ(run.metrics[2].workers_added, 2u);
  EXPECT_EQ(run.metrics[2].num_workers, 6u);
  EXPECT_EQ(run.metrics[3].num_workers, 6u);
  EXPECT_EQ(run.metrics[4].workers_drained, 2u);
  EXPECT_EQ(run.metrics[4].num_workers, 4u);

  // Both scale events are repartitions and moved real state through the
  // simulated network.
  for (size_t step : {2u, 4u}) {
    EXPECT_TRUE(run.metrics[step].elastic_repartitioned) << "step " << step;
    EXPECT_GT(run.metrics[step].migrated_rows, 0u) << "step " << step;
    EXPECT_GT(run.metrics[step].migration_bytes, 0u) << "step " << step;
    EXPECT_GT(run.metrics[step].sim_seconds_migrate, 0.0) << "step " << step;
    EXPECT_GT(run.metrics[step].sim_seconds_repartition, 0.0)
        << "step " << step;
  }
  EXPECT_EQ(run.totals.repartitions, 2u);
  EXPECT_EQ(run.totals.workers_added, 2u);
  EXPECT_EQ(run.totals.workers_drained, 2u);

  // Superstep hygiene holds across every repartition boundary: nothing
  // leaks in the fabric while ownership moves.
  for (const StreamStepMetrics& m : run.metrics) {
    EXPECT_TRUE(m.elastic_active) << "step " << m.step;
    EXPECT_EQ(m.orphaned_messages, 0u) << "step " << m.step;
    EXPECT_EQ(m.leaked_messages, 0u) << "step " << m.step;
    EXPECT_TRUE(std::isfinite(m.final_loss)) << "step " << m.step;
  }
}

/// Sim-clock durations, in order, of the driver lane's `partition` phase
/// spans in a Chrome-trace export (one event per line; phase spans are
/// leaves, so the next driver-lane E event closes each one).
std::vector<double> PartitionSpanSeconds(const std::string& json) {
  std::vector<double> seconds;
  std::istringstream is(json);
  std::string line;
  double open_us = -1.0;
  while (std::getline(is, line)) {
    if (line.find("\"pid\":1,\"tid\":0,") == std::string::npos) continue;
    const size_t ts = line.find("\"ts\":");
    if (ts == std::string::npos) continue;
    const double us = std::strtod(line.c_str() + ts + 5, nullptr);
    if (line.find("\"ph\":\"B\"") != std::string::npos &&
        line.find("\"name\":\"partition\"") != std::string::npos) {
      open_us = us;
    } else if (open_us >= 0.0 &&
               line.find("\"ph\":\"E\"") != std::string::npos) {
      seconds.push_back((us - open_us) * 1e-6);
      open_us = -1.0;
    }
  }
  return seconds;
}

TEST(ElasticStreamingTest, MonitorObservesEachStepsReportedImbalance) {
  // The monitor acts on exactly the imbalance the step reports: after each
  // step, its last observation is that step's load_imbalance, bit for bit.
  const StreamingTensorSequence stream = MakeStream(4);
  DistributedOptions options = BaseOpts();
  ElasticOptions eopts;
  // Any measurable imbalance triggers, so repartition steps (which reset
  // the monitor) are covered too.
  eopts.imbalance_threshold = 1.0;
  eopts.cooldown_steps = 1;
  ElasticCoordinator coordinator(eopts, options.partitioner,
                                 options.num_workers);
  options.elastic = &coordinator;
  size_t steps = 0;
  RunStreamingExperiment(
      stream, MethodKind::kDisMastd, options, /*compute_fit=*/false,
      [&](const StreamStepMetrics& sm, const KruskalTensor&) {
        const double last = coordinator.monitor().last_imbalance();
        EXPECT_EQ(std::memcmp(&last, &sm.load_imbalance, sizeof(double)), 0)
            << "step " << sm.step << ": " << last << " vs "
            << sm.load_imbalance;
        ++steps;
      });
  EXPECT_EQ(steps, stream.num_steps());
  EXPECT_GT(coordinator.totals().repartitions, 0u);
}

TEST(ElasticStreamingTest, PartitionTimeExcludesRepartitionAndMigrate) {
  // sim_seconds_partitioning is the partition superstep's own duration: on
  // a step that repartitions and migrates first, it must not also count
  // those supersteps (they have their own fields).
  const StreamingTensorSequence stream = MakeStream(2);
  obs::Tracer tracer(obs::TraceDetail::kPhases);
  DistributedOptions options = BaseOpts();
  options.tracer = &tracer;
  const ElasticRun run =
      RunElastic(stream, options, ScaleOnlyOpts("add=2@2,drain=2@4"));
  const std::vector<double> spans =
      PartitionSpanSeconds(tracer.ToChromeTraceJson(/*include_wall=*/false));
  ASSERT_EQ(spans.size(), run.metrics.size());
  for (const StreamStepMetrics& m : run.metrics) {
    // The export rounds timestamps to 1e-3 us.
    EXPECT_NEAR(m.sim_seconds_partitioning, spans[m.step], 1e-8)
        << "step " << m.step;
  }
  EXPECT_TRUE(run.metrics[2].elastic_repartitioned);
  EXPECT_TRUE(run.metrics[4].elastic_repartitioned);
}

TEST(ElasticStreamingTest, DeterministicAcrossRunsAndThreadCounts) {
  const StreamingTensorSequence stream = MakeStream(5);
  const ElasticOptions eopts = ScaleOnlyOpts("add=2@2,drain=1@4");

  DistributedOptions serial = BaseOpts();
  serial.execution.num_threads = 1;
  const ElasticRun a = RunElastic(stream, serial, eopts);
  const ElasticRun b = RunElastic(stream, serial, eopts);
  ExpectFactorsIdentical(a.factors, b.factors);

  DistributedOptions threaded = BaseOpts();
  threaded.execution.num_threads = 4;
  const ElasticRun c = RunElastic(stream, threaded, eopts);
  ExpectFactorsIdentical(a.factors, c.factors);

  // The simulated story is identical too, not just the numerics.
  ASSERT_EQ(a.metrics.size(), c.metrics.size());
  for (size_t t = 0; t < a.metrics.size(); ++t) {
    EXPECT_EQ(a.metrics[t].sim_seconds_total, c.metrics[t].sim_seconds_total)
        << "step " << t;
    EXPECT_EQ(a.metrics[t].migration_bytes, c.metrics[t].migration_bytes)
        << "step " << t;
    EXPECT_EQ(a.metrics[t].comm_bytes, c.metrics[t].comm_bytes)
        << "step " << t;
  }
  EXPECT_EQ(a.totals.migrated_rows, c.totals.migrated_rows);
  EXPECT_EQ(a.totals.migration_bytes, c.totals.migration_bytes);
}

TEST(ElasticStreamingTest, MigrationSurvivesMessageFaultsBitExactly) {
  // Drops and stragglers during the migrate superstep are absorbed by the
  // CRC frame + retransmission: the faulty run lands on the fault-free
  // factors bit for bit.
  const StreamingTensorSequence stream = MakeStream(7);
  const ElasticOptions eopts = ScaleOnlyOpts("add=2@2,drain=2@4");

  const ElasticRun clean = RunElastic(stream, BaseOpts(), eopts);

  DistributedOptions faulty = BaseOpts();
  faulty.fault_plan.seed = 41;
  faulty.fault_plan.drop_prob = 0.03;
  faulty.fault_plan.delay_prob = 0.03;
  const ElasticRun shaky = RunElastic(stream, faulty, eopts);

  ExpectFactorsIdentical(clean.factors, shaky.factors);
  EXPECT_EQ(clean.totals.migrated_rows, shaky.totals.migrated_rows);
  RecoveryMetrics totals;
  for (const StreamStepMetrics& m : shaky.metrics) totals.Merge(m.recovery);
  EXPECT_GT(totals.messages_dropped, 0u);
  EXPECT_GT(totals.retransmissions, 0u);
}

TEST(ElasticStreamingTest, CrashAtRepartitionStepRecovers) {
  // A worker dies during the step whose scale event migrates state; the
  // run falls back to the recovery path and still completes every step.
  const StreamingTensorSequence stream = MakeStream(9);
  DistributedOptions options = BaseOpts();
  options.fault_plan.crash_worker = 1;
  options.fault_plan.crash_stream_step = 2;
  options.fault_plan.crash_superstep = 0;
  options.recovery = RecoveryMode::kDegraded;
  const ElasticRun run =
      RunElastic(stream, options, ScaleOnlyOpts("add=2@2,drain=2@4"));
  ASSERT_EQ(run.metrics.size(), 6u);
  EXPECT_EQ(run.metrics[2].recovery.crashes, 1u);
  EXPECT_EQ(run.metrics[2].recovery.degraded_recoveries, 1u);
  EXPECT_EQ(run.totals.repartitions, 2u);
  for (const StreamStepMetrics& m : run.metrics) {
    EXPECT_GT(m.iterations, 0u) << "step " << m.step;
    EXPECT_TRUE(std::isfinite(m.final_loss)) << "step " << m.step;
    EXPECT_EQ(m.orphaned_messages, 0u) << "step " << m.step;
  }
}

TEST(ElasticStreamingTest, MigrationBytesAreADistinctCommCategory) {
  // The registry separates rebalance traffic from algorithm traffic: the
  // migration byte counter matches the per-step rollups exactly and stays
  // a strict subset of the total payload.
  const StreamingTensorSequence stream = MakeStream(3);
  DistributedOptions options = BaseOpts();
  obs::MetricRegistry registry;
  options.metrics = &registry;
  const ElasticRun run =
      RunElastic(stream, options, ScaleOnlyOpts("add=2@2,drain=2@4"));

  uint64_t step_migration = 0, step_payload = 0;
  for (const StreamStepMetrics& m : run.metrics) {
    step_migration += m.migration_bytes;
    step_payload += m.comm_bytes;
  }
  ASSERT_GT(step_migration, 0u);
  EXPECT_EQ(
      registry.GetCounter("dismastd_comm_migration_bytes_total")->Value(),
      step_migration);
  // Migration is a strict subset of the remote fabric traffic, which in
  // turn is bounded by the step rollups (those also count local shipping).
  const uint64_t fabric_payload =
      registry.GetCounter("dismastd_comm_payload_bytes_total")->Value();
  EXPECT_LT(step_migration, fabric_payload);
  EXPECT_GE(step_payload, fabric_payload);
  EXPECT_EQ(
      registry.GetCounter("dismastd_elastic_migration_bytes_total")->Value(),
      step_migration);
  EXPECT_EQ(registry.GetCounter("dismastd_comm_orphan_messages_total")->Value(),
            0u);
}

TEST(ElasticStreamingTest, PartitionBalanceGaugesArePublished) {
  // A single decomposition with a non-empty delta: the balance gauges are
  // last-write-wins, so they must be read off a step that moved data.
  const SparseTensor full =
      test::MakeDenseLowRank({18, 15, 12}, 2, /*seed=*/4, 0.05).tensor;
  const std::vector<uint64_t> old_dims = {14, 12, 9};
  const SparseTensor delta = RelativeComplement(full, old_dims);
  DecompositionOptions cold;
  cold.rank = 3;
  cold.max_iterations = 6;
  const KruskalTensor prev =
      CpAls(RestrictToBox(full, old_dims), cold).factors;

  DistributedOptions options = BaseOpts();
  obs::MetricRegistry registry;
  options.metrics = &registry;
  ElasticCoordinator coordinator(ElasticOptions{}, options.partitioner,
                                 options.num_workers);
  options.elastic = &coordinator;
  const DistributedResult result =
      DisMastdDecompose(delta, old_dims, prev, options);
  ASSERT_GT(result.als.iterations, 0u);

  // Per-mode balance gauges reflect this step's partition.
  for (size_t n = 0; n < 3; ++n) {
    const obs::LabelSet labels = {{"mode", std::to_string(n)}};
    const double max_load =
        registry.GetGauge("dismastd_partition_max_load", labels)->Value();
    const double mean_load =
        registry.GetGauge("dismastd_partition_mean_load", labels)->Value();
    const double imbalance =
        registry.GetGauge("dismastd_partition_imbalance", labels)->Value();
    EXPECT_GT(mean_load, 0.0) << "mode " << n;
    EXPECT_GE(max_load, mean_load) << "mode " << n;
    EXPECT_GE(imbalance, 1.0) << "mode " << n;
    EXPECT_GE(
        registry.GetGauge("dismastd_partition_load_stddev", labels)->Value(),
        0.0)
        << "mode " << n;
  }
  // And the coordinator's own gauges track the cluster's shape.
  EXPECT_EQ(registry.GetGauge("dismastd_elastic_workers")->Value(), 4.0);

  // A streaming run with a scale event lands the joiner in the counters
  // and the workers gauge, regardless of the final delta's size.
  obs::MetricRegistry stream_registry;
  DistributedOptions stream_options = BaseOpts();
  stream_options.metrics = &stream_registry;
  const ElasticRun run = RunElastic(MakeStream(4), stream_options,
                                    ScaleOnlyOpts("add=1@2"));
  ASSERT_EQ(run.metrics.size(), 6u);
  EXPECT_EQ(stream_registry.GetGauge("dismastd_elastic_workers")->Value(),
            5.0);
  EXPECT_EQ(stream_registry.GetCounter("dismastd_elastic_workers_added_total")
                ->Value(),
            1u);
}

TEST(ElasticStreamingTest, PublishWhileRebalancingServesSafely) {
  // A query thread reads the store's current model continuously while the
  // driver loop repartitions, migrates and publishes each step's factors.
  // tools/check_tsan.sh runs this test under TSan (label `elastic`), which
  // vouches that rebalancing never races the serving path.
  const StreamingTensorSequence stream = MakeStream(11);
  DistributedOptions options = BaseOpts();
  options.als.max_iterations = 4;
  ElasticCoordinator coordinator(ScaleOnlyOpts("add=2@1,drain=2@3"),
                                 options.partitioner, options.num_workers);
  options.elastic = &coordinator;

  serve::ModelStore store;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::thread query([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::shared_ptr<const serve::ServableModel> model =
          store.Current();
      if (model != nullptr) {
        // Touch the data migration rewrites; a torn read here is exactly
        // what the RCU publish discipline must prevent.
        volatile double cell = model->factors().factor(0)(0, 0);
        (void)cell;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  const StreamStepObserver observe =
      [&](const StreamStepMetrics& m, const KruskalTensor& f) {
        store.Publish(f, m.step);
      };
  const auto metrics = RunStreamingExperiment(
      stream, MethodKind::kDisMastd, options, /*compute_fit=*/false, observe);
  stop.store(true, std::memory_order_release);
  query.join();

  ASSERT_EQ(metrics.size(), 6u);
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->version(), 6u);
  EXPECT_EQ(coordinator.totals().repartitions, 2u);
}

}  // namespace
}  // namespace dismastd
