#include "ingest/ingest_session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "stream/generator.h"
#include "stream/snapshot.h"

namespace dismastd {
namespace ingest {
namespace {

StreamingTensorSequence MakeStream(uint64_t seed = 5) {
  GeneratorOptions gen;
  gen.dims = {24, 18, 12};
  gen.nnz = 900;
  gen.latent_rank = 3;
  gen.noise_stddev = 0.1;
  gen.seed = seed;
  SparseTensor tensor = GenerateSparseTensor(gen).tensor;
  return StreamingTensorSequence(
      std::move(tensor), MakeGrowthSchedule({24, 18, 12}, 0.6, 0.2, 3));
}

DistributedOptions SmallOptions() {
  DistributedOptions options;
  options.als.rank = 3;
  options.als.max_iterations = 2;
  options.num_workers = 4;
  return options;
}

TEST(IngestSessionTest, ReplayedLogReproducesScheduleDrivenFactorsBitExact) {
  const StreamingTensorSequence stream = MakeStream();
  const DistributedOptions options = SmallOptions();

  // Reference: the schedule-driven experiment.
  std::vector<KruskalTensor> reference;
  RunStreamingExperiment(
      stream, MethodKind::kDisMastd, options, /*compute_fit=*/false,
      [&](const StreamStepMetrics&, const KruskalTensor& factors) {
        reference.push_back(factors);
      });

  // Live: export the same stream as a shuffled event log and replay it.
  const EventLogWriter log = ExportSequenceAsEvents(stream, {});
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = options;
  std::vector<KruskalTensor> published;
  Result<IngestSessionResult> result = RunIngestSession(
      reader.value(), session,
      [&](const StreamStepMetrics&, const KruskalTensor& factors) {
        published.push_back(factors);
      });
  ASSERT_TRUE(result.ok()) << result.status().message();

  // Barrier-closed batches mirror the schedule's steps one for one, and
  // the factors are bit-identical at every step.
  ASSERT_EQ(published.size(), reference.size());
  for (size_t t = 0; t < reference.size(); ++t) {
    ASSERT_EQ(published[t].order(), reference[t].order());
    for (size_t mode = 0; mode < reference[t].order(); ++mode) {
      EXPECT_TRUE(published[t].factor(mode) == reference[t].factor(mode))
          << "factor mismatch at step " << t << " mode " << mode;
    }
  }
  EXPECT_EQ(result.value().dims, stream.DimsAt(stream.num_steps() - 1));
  EXPECT_EQ(result.value().duplicates, 0u);
  EXPECT_EQ(result.value().quarantined, 0u);
  EXPECT_EQ(result.value().late_events, 0u);
}

TEST(IngestSessionTest, BatchSequenceIdenticalAcrossProducerCounts) {
  const StreamingTensorSequence stream = MakeStream(9);
  const EventLogWriter log = ExportSequenceAsEvents(stream, {});
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  uint64_t reference_fingerprint = 0;
  for (size_t producers : {size_t{1}, size_t{2}, size_t{5}}) {
    IngestSessionOptions session;
    session.decompose = SmallOptions();
    session.num_producers = producers;
    session.queue_capacity = 32;  // force real backpressure interleavings
    Result<IngestSessionResult> result =
        RunIngestSession(reader.value(), session);
    ASSERT_TRUE(result.ok());
    if (producers == 1) {
      reference_fingerprint = result.value().batch_fingerprint;
    } else {
      EXPECT_EQ(result.value().batch_fingerprint, reference_fingerprint)
          << "batch sequence diverged at " << producers << " producers";
    }
    EXPECT_EQ(result.value().dropped_oldest, 0u);
    EXPECT_EQ(result.value().rejected, 0u);
  }
}

TEST(IngestSessionTest, DuplicateSeqsAreDroppedOnce) {
  EventLogWriter log(2);
  log.AppendEventWithSeq(0, 0, {0, 0}, 1.0);
  log.AppendEventWithSeq(1, 1, {1, 1}, 2.0);
  log.AppendEventWithSeq(0, 2, {0, 0}, 1.0);  // retransmission
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = SmallOptions();
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().events, 3u);
  EXPECT_EQ(result.value().duplicates, 1u);
  ASSERT_EQ(result.value().steps.size(), 1u);
  // The duplicate did not double the (0,0) entry.
  EXPECT_EQ(result.value().steps[0].processed_nnz, 2u);
}

TEST(IngestSessionTest, BadPumpOptionsAreRejectedBeforeAnyThreadStarts) {
  EventLogWriter log(2);
  log.AppendEvent(0, {0, 0}, 1.0);
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());
  IngestSessionOptions session;
  session.decompose = SmallOptions();
  session.num_producers = kMaxProducers + 1;
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  session.num_producers = 1;
  for (double rate : {-1.0, std::nan("")}) {
    session.max_events_per_second = rate;
    result = RunIngestSession(reader.value(), session);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << rate;
  }
}

TEST(IngestSessionTest, CorruptSlotsAreQuarantinedAndCounted) {
  EventLogWriter writer(2);
  writer.AppendEvent(0, {0, 0}, 1.0);
  writer.AppendEvent(1, {1, 1}, 2.0);
  std::vector<uint8_t> bytes = writer.ToBytes();
  bytes[kEventLogHeaderBytes + 10] ^= 0xFF;  // corrupt slot 0

  Result<EventLogReader> reader = EventLogReader::FromBytes(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  IngestSessionOptions session;
  session.decompose = SmallOptions();
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().quarantined, 1u);
  EXPECT_EQ(result.value().events, 1u);
}

TEST(IngestSessionTest, CountTriggerSplitsStreamIntoMicroBatches) {
  const StreamingTensorSequence stream = MakeStream(13);
  EventExportOptions export_options;
  export_options.emit_barriers = false;
  const EventLogWriter log = ExportSequenceAsEvents(stream, export_options);
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = SmallOptions();
  session.builder.max_batch_events = 100;
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  ASSERT_TRUE(result.ok());
  const IngestSessionResult& r = result.value();
  ASSERT_GT(r.steps.size(), 1u);
  for (size_t b = 0; b + 1 < r.close_reasons.size(); ++b) {
    EXPECT_EQ(r.close_reasons[b], BatchCloseReason::kEventCount);
  }
}

TEST(IngestSessionTest, FitMatchesFromScratchSnapshotRebuildAtEveryStep) {
  // The session scores each batch against its growing snapshot; the
  // reference rebuilds the snapshot from scratch per batch (every batch's
  // entries so far, in batch order, into a tensor of the batch's dims) and
  // scores the same published factors. Count closes between the barriers
  // make batches that grow the dims mid-step.
  const StreamingTensorSequence stream = MakeStream(17);
  const EventLogWriter log = ExportSequenceAsEvents(stream, {});
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = SmallOptions();
  session.builder.max_batch_events = 150;
  session.compute_fit = true;
  std::vector<KruskalTensor> published;
  Result<IngestSessionResult> result = RunIngestSession(
      reader.value(), session,
      [&](const StreamStepMetrics&, const KruskalTensor& factors) {
        published.push_back(factors);
      });
  ASSERT_TRUE(result.ok()) << result.status().message();
  const IngestSessionResult& r = result.value();

  // The pump hands the builder every first-seen event and barrier in log
  // order, so replaying the records straight into a builder reproduces the
  // batch sequence.
  DeltaBuilder builder(log.order(), session.builder);
  std::vector<MicroBatchDelta> batches;
  for (const EventRecord& record : log.records()) {
    if (record.kind == RecordKind::kBarrier) {
      builder.PushBarrier(record.ts, record.fields, &batches);
    } else {
      builder.PushEvent(record.ts, record.fields.data(), record.value,
                        &batches);
    }
  }
  builder.Flush(&batches);
  ASSERT_EQ(batches.size(), r.steps.size());
  ASSERT_EQ(published.size(), r.steps.size());
  size_t count_closes = 0;
  std::vector<uint64_t> indices;
  std::vector<double> values;
  for (size_t t = 0; t < batches.size(); ++t) {
    const SparseTensor& delta = batches[t].delta;
    for (size_t e = 0; e < delta.nnz(); ++e) {
      indices.insert(indices.end(), delta.IndexTuple(e),
                     delta.IndexTuple(e) + delta.order());
      values.push_back(delta.Value(e));
    }
    SparseTensor rebuilt(batches[t].new_dims);
    for (size_t e = 0; e < values.size(); ++e) {
      rebuilt.AddRaw(indices.data() + e * delta.order(), values[e]);
    }
    const double want = published[t].Fit(rebuilt);
    EXPECT_EQ(std::memcmp(&want, &r.steps[t].fit, sizeof(double)), 0)
        << "step " << t << ": " << r.steps[t].fit << " vs " << want;
    EXPECT_EQ(r.steps[t].snapshot_nnz, values.size()) << "step " << t;
    if (r.close_reasons[t] == BatchCloseReason::kEventCount) ++count_closes;
  }
  EXPECT_GT(count_closes, 0u);
}

TEST(IngestSessionTest, LatencyHistogramCoversEveryAcceptedEvent) {
  const StreamingTensorSequence stream = MakeStream(21);
  const EventLogWriter log = ExportSequenceAsEvents(stream, {});
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = SmallOptions();
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.value().event_to_publish_nanos, nullptr);
  EXPECT_EQ(result.value().event_to_publish_nanos->Count(),
            result.value().events);
  EXPECT_GT(result.value().wall_seconds, 0.0);
}

TEST(IngestSessionTest, EventTimeMetadataIsStamped) {
  const StreamingTensorSequence stream = MakeStream(33);
  const EventLogWriter log = ExportSequenceAsEvents(stream, {});
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = SmallOptions();
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  ASSERT_TRUE(result.ok());
  for (const StreamStepMetrics& m : result.value().steps) {
    EXPECT_NE(m.event_time_max, kNoEventTime);
    EXPECT_NE(m.event_time_watermark, kNoEventTime);
    EXPECT_LE(m.event_time_max, m.event_time_watermark);
  }
}

}  // namespace
}  // namespace ingest
}  // namespace dismastd
