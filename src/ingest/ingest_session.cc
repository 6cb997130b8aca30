#include "ingest/ingest_session.h"

#include <utility>

#include "common/serialization.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dismastd {
namespace ingest {

namespace {

/// Canonical bytes of one closed batch; what the determinism contract
/// ("byte-identical batch sequence") is defined over.
std::vector<uint8_t> SerializeBatch(const MicroBatchDelta& batch) {
  ByteWriter writer;
  writer.WriteU8(static_cast<uint8_t>(batch.reason));
  writer.WriteU64Span(batch.old_dims.data(), batch.old_dims.size());
  writer.WriteU64Span(batch.new_dims.data(), batch.new_dims.size());
  writer.WriteU64(batch.num_events);
  writer.WriteI64(batch.min_ts);
  writer.WriteI64(batch.max_ts);
  const SparseTensor& delta = batch.delta;
  writer.WriteU64(delta.nnz());
  for (size_t e = 0; e < delta.nnz(); ++e) {
    writer.WriteU64Span(delta.IndexTuple(e), delta.order());
    writer.WriteDouble(delta.Value(e));
  }
  return writer.TakeBytes();
}

}  // namespace

Result<IngestSessionResult> RunIngestSession(
    const EventLogReader& log, const IngestSessionOptions& options,
    const StreamStepObserver& observer) {
  DISMASTD_RETURN_IF_ERROR(options.decompose.Validate());
  DISMASTD_RETURN_IF_ERROR(options.Validate());
  const size_t order = log.order();

  obs::Tracer* tracer = options.decompose.tracer;
  if (obs::Active(tracer)) tracer->RegisterWallLane("ingest");
  obs::MetricRegistry* metrics = options.decompose.metrics;

  IngestSessionResult result;
  EventPump pump(log, options, metrics, &result);
  DeltaBuilder builder(order, options.builder);

  KruskalTensor factors;
  std::vector<uint64_t> dims(order, 0);
  uint64_t fingerprint = kFnv1aOffset;
  uint64_t snapshot_nnz = 0;
  size_t step_index = 0;
  // The accumulated snapshot (every batch's entries, in batch order), only
  // maintained when scoring fit: it grows in place, batch by batch.
  SparseTensor snapshot(std::vector<uint64_t>(order, 0));

  auto process_batch = [&](const MicroBatchDelta& batch) {
    const std::vector<uint8_t> bytes = SerializeBatch(batch);
    fingerprint = Fnv1a(bytes.data(), bytes.size(), fingerprint);
    obs::ScopedWallSpan batch_span(tracer, "ingest_batch", "ingest",
                                   "ingest");
    StreamStepMetrics sm =
        RunDisMastdDeltaStep(batch.delta, batch.old_dims, batch.new_dims,
                             &factors, step_index, options.decompose);
    if (batch.num_events > 0 || batch.reason == BatchCloseReason::kBarrier) {
      sm.event_time_max = batch.max_ts;
    }
    if (builder.has_watermark()) sm.event_time_watermark = builder.watermark();
    snapshot_nnz += batch.delta.nnz();
    sm.snapshot_nnz = snapshot_nnz;
    if (options.compute_fit) {
      snapshot.GrowDims(batch.new_dims);
      for (size_t e = 0; e < batch.delta.nnz(); ++e) {
        snapshot.AddRaw(batch.delta.IndexTuple(e), batch.delta.Value(e));
      }
      sm.fit = factors.Fit(snapshot);
    }
    dims = batch.new_dims;
    ObserveStepHealth(options.decompose, sm, options.compute_fit);
    if (obs::Active(options.decompose.health)) {
      // The ingest-only signal: how deep the producer->builder queue stood
      // when this batch's model was published (wall-clock dependent, so
      // only z-score/SLO-worthy — never part of the determinism contract).
      options.decompose.health->Observe(
          obs::HealthSignal::kIngestQueueDepth, sm.step,
          static_cast<double>(pump.queue_depth()), options.decompose.tracer);
    }
    if (observer) observer(sm, factors);
    // The model folding these events in is now published (the observer is
    // the serve-publish hook): the freshness clock stops here.
    pump.Published();
    result.steps.push_back(std::move(sm));
    result.close_reasons.push_back(batch.reason);
    ++step_index;
  };

  std::vector<MicroBatchDelta> emitted;
  pump.Run([&](const IngestToken& token) {
    emitted.clear();
    if (token.kind == SlotKind::kBarrier) {
      builder.PushBarrier(token.record.ts, token.record.fields, &emitted);
      for (const MicroBatchDelta& batch : emitted) process_batch(batch);
      return;
    }
    const uint64_t accepted_before = builder.accepted_events();
    builder.PushEvent(token.record.ts, token.record.fields.data(),
                      token.record.value, &emitted);
    const bool accepted = builder.accepted_events() != accepted_before;
    // A horizon close excludes the triggering event (it opens the next
    // batch), so publish those batches before this event's enqueue time
    // joins the pending freshness list; count/growth closes include it.
    size_t i = 0;
    for (; i < emitted.size() &&
           emitted[i].reason == BatchCloseReason::kHorizon;
         ++i) {
      process_batch(emitted[i]);
    }
    if (accepted) pump.Accept(token);
    for (; i < emitted.size(); ++i) process_batch(emitted[i]);
  });

  emitted.clear();
  builder.Flush(&emitted);
  for (const MicroBatchDelta& batch : emitted) process_batch(batch);

  result.factors = std::move(factors);
  result.dims = std::move(dims);
  result.batch_fingerprint = fingerprint;
  result.late_events = builder.late_events();
  result.interior_updates = builder.interior_updates();
  pump.Finish();
  if (metrics != nullptr) {
    metrics
        ->GetCounter("dismastd_ingest_interior_updates_total", {},
                     "Events inside the committed box (not a delta)")
        ->Add(result.interior_updates);
    metrics
        ->GetCounter("dismastd_ingest_batches_total", {},
                     "Micro-batches published")
        ->Add(result.steps.size());
  }
  return result;
}

}  // namespace ingest
}  // namespace dismastd
