// Golden replay pins for both ingest policies. One fixed TEVT log (three
// barrier-closed steps, a retransmitted seq, a CRC-quarantined slot and an
// event far behind the lateness bound) is replayed through the batch
// policy (RunIngestSession) and the continuous policy
// (RunContinuousSession) at 1 and 3 producers. The batch and model
// fingerprints, the census counts and the step counts are pinned to
// absolute values, so a change that moved every run the same way (which
// the producer-count invariance tests cannot see) fails here. Any change
// to a pinned value is a change of ingest semantics and must be called out
// as such.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cwin/continuous_session.h"
#include "ingest/event_log.h"
#include "ingest/ingest_session.h"
#include "stream/generator.h"
#include "stream/snapshot.h"

namespace dismastd {
namespace {

constexpr int64_t kTicksPerStep = 1000;
constexpr int64_t kLateness = 1000;

std::vector<uint8_t> GoldenLogBytes() {
  GeneratorOptions gen;
  gen.dims = {16, 12, 10};
  gen.nnz = 500;
  gen.latent_rank = 3;
  gen.noise_stddev = 0.1;
  gen.seed = 77;
  SparseTensor tensor = GenerateSparseTensor(gen).tensor;
  const StreamingTensorSequence stream(
      std::move(tensor), MakeGrowthSchedule({16, 12, 10}, 0.6, 0.2, 3));
  ingest::EventExportOptions ex;
  ex.seed = 19;
  ex.ticks_per_step = kTicksPerStep;
  const ingest::EventLogWriter exported =
      ingest::ExportSequenceAsEvents(stream, ex);

  // Re-emit the export, slipping two faulty records in right after the
  // second step's barrier: a retransmission of the log's first event and
  // an event whose timestamp sits far behind the watermark. A byte of an
  // event three slots later is flipped, so its CRC quarantines it.
  ingest::EventLogWriter log(exported.order());
  const ingest::EventRecord* first_event = nullptr;
  size_t barriers = 0;
  size_t corrupt_slot = 0;
  for (const ingest::EventRecord& r : exported.records()) {
    if (r.kind == ingest::RecordKind::kBarrier) {
      log.AppendBarrier(r.ts, r.fields);
      if (++barriers == 2) {
        log.AppendEventWithSeq(first_event->seq, r.ts + 1, first_event->fields,
                               first_event->value);
        log.AppendEventWithSeq(1000000, 5, {15, 11, 9}, 2.5);
        corrupt_slot = log.num_records() + 3;
      }
      continue;
    }
    if (first_event == nullptr) first_event = &r;
    log.AppendEventWithSeq(r.seq, r.ts, r.fields, r.value);
  }
  std::vector<uint8_t> bytes = log.ToBytes();
  bytes[ingest::kEventLogHeaderBytes +
        corrupt_slot * ingest::EventRecordBytes(log.order()) + 12] ^= 0x5A;
  return bytes;
}

DistributedOptions GoldenDecomposeOptions() {
  DistributedOptions options;
  options.als.rank = 3;
  options.als.max_iterations = 2;
  options.als.seed = 11;
  options.num_workers = 4;
  return options;
}

TEST(IngestGoldenTest, BatchReplayMatchesPinnedValues) {
  Result<ingest::EventLogReader> reader =
      ingest::EventLogReader::FromBytes(GoldenLogBytes());
  ASSERT_TRUE(reader.ok());
  for (size_t producers : {size_t{1}, size_t{3}}) {
    ingest::IngestSessionOptions session;
    session.decompose = GoldenDecomposeOptions();
    session.num_producers = producers;
    session.queue_capacity = 8;
    session.builder.allowed_lateness_ticks = kLateness;
    Result<ingest::IngestSessionResult> run =
        ingest::RunIngestSession(reader.value(), session);
    ASSERT_TRUE(run.ok()) << run.status().message();
    const ingest::IngestSessionResult& r = run.value();
    SCOPED_TRACE(producers);
    EXPECT_EQ(r.batch_fingerprint, 864802539462866970ull);
    EXPECT_EQ(r.steps.size(), 3u);
    EXPECT_EQ(r.events, 501u);
    EXPECT_EQ(r.barriers, 3u);
    EXPECT_EQ(r.quarantined, 1u);
    EXPECT_EQ(r.duplicates, 1u);
    EXPECT_EQ(r.late_events, 1u);
    EXPECT_EQ(r.interior_updates, 0u);
    EXPECT_EQ(r.event_to_publish_nanos->Count(), 499u);
  }
}

TEST(IngestGoldenTest, ContinuousReplayMatchesPinnedValues) {
  Result<ingest::EventLogReader> reader =
      ingest::EventLogReader::FromBytes(GoldenLogBytes());
  ASSERT_TRUE(reader.ok());
  for (size_t producers : {size_t{1}, size_t{3}}) {
    cwin::ContinuousSessionOptions session;
    session.decompose = GoldenDecomposeOptions();
    session.num_producers = producers;
    session.queue_capacity = 8;
    session.fuse_events = 4;
    session.publish_interval_events = 64;
    session.stitch_interval_events = 200;
    session.window.window_ticks = 2500;
    session.allowed_lateness_ticks = kLateness;
    Result<cwin::ContinuousSessionResult> run =
        cwin::RunContinuousSession(reader.value(), session);
    ASSERT_TRUE(run.ok()) << run.status().message();
    const cwin::ContinuousSessionResult& r = run.value();
    SCOPED_TRACE(producers);
    EXPECT_EQ(r.model_fingerprint, 501115449036006728ull);
    EXPECT_EQ(r.steps.size(), 11u);
    EXPECT_EQ(r.publishes, 11u);
    EXPECT_EQ(r.events, 501u);
    EXPECT_EQ(r.barriers, 3u);
    EXPECT_EQ(r.quarantined, 1u);
    EXPECT_EQ(r.duplicates, 1u);
    EXPECT_EQ(r.late_events, 1u);
    EXPECT_EQ(r.updates, 127u);
    EXPECT_EQ(r.rows_solved, 1242u);
    EXPECT_EQ(r.evicted, 2u);
    EXPECT_EQ(r.stitches, 3u);
    EXPECT_EQ(r.window_events, 497u);
    EXPECT_EQ(r.event_to_publish_nanos->Count(), 499u);
  }
}

}  // namespace
}  // namespace dismastd
