#ifndef DISMASTD_INGEST_DELTA_BUILDER_H_
#define DISMASTD_INGEST_DELTA_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "tensor/coo_tensor.h"

namespace dismastd {
namespace ingest {

/// Why a micro-batch closed.
enum class BatchCloseReason : uint8_t {
  kEventCount = 0,
  kModeGrowth = 1,
  kHorizon = 2,
  kBarrier = 3,
  kEndOfStream = 4,
};

const char* BatchCloseReasonName(BatchCloseReason reason);

/// The lateness rule both ingest policies apply: true when `ts` is older
/// than `watermark - allowed_lateness_ticks` (negative lateness =
/// unbounded, never late). Exact over the whole int64 range of event
/// timestamps a log can carry.
bool IsLateEvent(int64_t ts, int64_t watermark,
                 int64_t allowed_lateness_ticks);

/// Micro-batch trigger configuration. Any satisfied trigger closes the
/// open batch; 0 (or negative, for the tick knobs) disables a trigger.
struct DeltaBuilderOptions {
  /// Close after this many accepted events.
  size_t max_batch_events = 4096;
  /// Close once any mode has grown by this many indices since the batch
  /// opened (bounds how much factor-matrix growth one DTD step absorbs).
  uint64_t max_mode_growth = 0;
  /// Close rather than let the batch span more than this much event time
  /// (the watermark/event-time horizon); the triggering event opens the
  /// next batch.
  int64_t horizon_ticks = 0;
  /// Out-of-order tolerance: an event older than `watermark - lateness` is
  /// quarantined as late instead of folded in. Negative = unbounded
  /// lateness (no late quarantine).
  int64_t allowed_lateness_ticks = -1;
};

/// One closed micro-batch: the delta tensor DisMASTD decomposes plus the
/// dims transition it represents. `delta` is coalesced (lexicographically
/// sorted, duplicate coordinates summed) with dims == new_dims, exactly
/// the contract of RelativeComplement over a coalesced snapshot — so a
/// batch sequence replayed from an exported log reproduces the
/// schedule-driven deltas bit for bit.
struct MicroBatchDelta {
  SparseTensor delta;
  std::vector<uint64_t> old_dims;
  std::vector<uint64_t> new_dims;
  /// Accepted events folded in (before coalescing).
  size_t num_events = 0;
  /// Event-time span of the accepted events; valid iff num_events > 0.
  int64_t min_ts = 0;
  int64_t max_ts = 0;
  BatchCloseReason reason = BatchCloseReason::kEndOfStream;
};

/// Single-consumer micro-batch assembler: coalesces a totally ordered
/// stream of events into delta tensors, tracking per-mode dimension
/// growth and the event-time watermark. Events inside the committed box
/// (every index below the dims of the last closed batch) cannot be
/// expressed as a multi-aspect delta — DTD only absorbs X \ X̃ — and are
/// counted as interior updates instead of silently corrupting the model.
class DeltaBuilder {
 public:
  DeltaBuilder(size_t order, DeltaBuilderOptions options);

  /// Feeds one event, appending any batches it closed to `*out` (usually
  /// none or one; a horizon close immediately followed by a count/growth
  /// close on the re-opened batch yields two). A horizon close excludes
  /// the triggering event (it opens the next batch); count/growth closes
  /// include it. `*out` is never cleared, only appended to.
  void PushEvent(int64_t ts, const uint64_t* index, double value,
                 std::vector<MicroBatchDelta>* out);

  /// Feeds a barrier: folds the declared dims into the batch and closes it
  /// unconditionally (punctuation always publishes, even an empty or
  /// growth-only batch — mirroring schedule-driven steps whose delta is
  /// empty). Appends exactly one batch to `*out`.
  void PushBarrier(int64_t ts, const std::vector<uint64_t>& dims,
                   std::vector<MicroBatchDelta>* out);

  /// End of stream: closes the open batch if it holds anything (events or
  /// pending dims growth).
  void Flush(std::vector<MicroBatchDelta>* out);

  size_t order() const { return order_; }
  /// Dims committed by the last closed batch (the old_dims of the next).
  const std::vector<uint64_t>& current_dims() const { return current_dims_; }

  /// Event-time high-water mark over everything seen (events, barriers);
  /// valid iff has_watermark().
  bool has_watermark() const { return has_watermark_; }
  int64_t watermark() const { return watermark_; }

  uint64_t late_events() const { return late_events_; }
  uint64_t interior_updates() const { return interior_updates_; }
  uint64_t accepted_events() const { return accepted_events_; }

 private:
  void NoteTimestamp(int64_t ts);
  /// True when `ts` is below the late-quarantine threshold.
  bool IsLate(int64_t ts) const;
  MicroBatchDelta CloseBatch(BatchCloseReason reason);

  const size_t order_;
  const DeltaBuilderOptions options_;

  std::vector<uint64_t> current_dims_;
  /// High-water dims including the open batch (>= current_dims_).
  std::vector<uint64_t> batch_dims_;

  /// Open batch: entries in arrival order, coalesced at close.
  std::vector<uint64_t> pending_indices_;
  std::vector<double> pending_values_;
  size_t pending_events_ = 0;
  bool batch_has_ts_ = false;
  int64_t batch_min_ts_ = 0;
  int64_t batch_max_ts_ = 0;

  bool has_watermark_ = false;
  int64_t watermark_ = 0;

  uint64_t late_events_ = 0;
  uint64_t interior_updates_ = 0;
  uint64_t accepted_events_ = 0;
};

}  // namespace ingest
}  // namespace dismastd

#endif  // DISMASTD_INGEST_DELTA_BUILDER_H_
