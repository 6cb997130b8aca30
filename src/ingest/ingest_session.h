#ifndef DISMASTD_INGEST_INGEST_SESSION_H_
#define DISMASTD_INGEST_INGEST_SESSION_H_

#include <cstdint>
#include <vector>

#include "core/driver.h"
#include "ingest/delta_builder.h"
#include "ingest/event_log.h"
#include "ingest/event_pump.h"

namespace dismastd {
namespace ingest {

/// Configuration of one live-ingest run: the delivery (PumpOptions) plus
/// the micro-batch policy.
struct IngestSessionOptions : PumpOptions {
  /// Micro-batch triggers.
  DeltaBuilderOptions builder;
  /// Decomposition settings for every micro-batch step (tracer / metrics /
  /// checkpoint_dir attach here exactly as in RunStreamingExperiment).
  DistributedOptions decompose;
  /// Score each batch's factors against the accumulated snapshot (kept as
  /// one tensor that grows by each batch's entries; Fit still reads all of
  /// it per batch).
  bool compute_fit = false;
};

/// What one RunIngestSession produced.
struct IngestSessionResult : PumpCensus {
  /// One entry per closed micro-batch, in publish order; event_time_max /
  /// event_time_watermark are stamped (kNoEventTime when the batch carried
  /// no timestamp).
  std::vector<StreamStepMetrics> steps;
  /// Why each batch closed (parallel to `steps`).
  std::vector<BatchCloseReason> close_reasons;
  /// Final model and its dims after the last batch.
  KruskalTensor factors;
  std::vector<uint64_t> dims;

  /// FNV-1a fingerprint over the serialized batch sequence (dims
  /// transitions + coalesced entries + close reasons). Two runs produced
  /// byte-identical batch sequences iff their fingerprints match — the
  /// determinism contract across producer thread counts (kBlock only;
  /// drop policies shed load nondeterministically).
  uint64_t batch_fingerprint = 0;

  /// Events inside the committed box (not expressible as a delta).
  uint64_t interior_updates = 0;
};

/// Replays an event log through the full ingest pipeline: the EventPump
/// delivers barriers and first-seen events in log order to the delta
/// builder, and every closed micro-batch runs through
/// RunDisMastdDeltaStep. The observer fires after each published
/// batch — attach the serving plane's publish hook here exactly as with
/// RunStreamingExperiment.
///
/// Determinism: with BackpressurePolicy::kBlock, the batch sequence (and
/// therefore the factors) is byte-identical for every producer count.
Result<IngestSessionResult> RunIngestSession(
    const EventLogReader& log, const IngestSessionOptions& options,
    const StreamStepObserver& observer = nullptr);

}  // namespace ingest
}  // namespace dismastd

#endif  // DISMASTD_INGEST_INGEST_SESSION_H_
