#include "ingest/delta_builder.h"

#include <algorithm>

namespace dismastd {
namespace ingest {

const char* BatchCloseReasonName(BatchCloseReason reason) {
  switch (reason) {
    case BatchCloseReason::kEventCount:
      return "event-count";
    case BatchCloseReason::kModeGrowth:
      return "mode-growth";
    case BatchCloseReason::kHorizon:
      return "horizon";
    case BatchCloseReason::kBarrier:
      return "barrier";
    case BatchCloseReason::kEndOfStream:
      return "end-of-stream";
  }
  return "?";
}

DeltaBuilder::DeltaBuilder(size_t order, DeltaBuilderOptions options)
    : order_(order),
      options_(options),
      current_dims_(order, 0),
      batch_dims_(order, 0) {
  DISMASTD_CHECK(order >= 1);
}

void DeltaBuilder::NoteTimestamp(int64_t ts) {
  if (!has_watermark_ || ts > watermark_) {
    watermark_ = ts;
    has_watermark_ = true;
  }
}

bool IsLateEvent(int64_t ts, int64_t watermark,
                 int64_t allowed_lateness_ticks) {
  if (allowed_lateness_ticks < 0 || ts >= watermark) return false;
  // watermark > ts, so the unsigned difference is exact where the signed
  // one could overflow.
  return static_cast<uint64_t>(watermark) - static_cast<uint64_t>(ts) >
         static_cast<uint64_t>(allowed_lateness_ticks);
}

bool DeltaBuilder::IsLate(int64_t ts) const {
  return has_watermark_ &&
         IsLateEvent(ts, watermark_, options_.allowed_lateness_ticks);
}

MicroBatchDelta DeltaBuilder::CloseBatch(BatchCloseReason reason) {
  MicroBatchDelta batch;
  batch.reason = reason;
  batch.old_dims = current_dims_;
  batch.new_dims = batch_dims_;
  batch.num_events = pending_events_;
  if (pending_events_ > 0) {
    batch.min_ts = batch_min_ts_;
    batch.max_ts = batch_max_ts_;
  }
  SparseTensor delta(batch_dims_);
  for (size_t e = 0; e < pending_events_; ++e) {
    delta.AddRaw(pending_indices_.data() + e * order_, pending_values_[e]);
  }
  // Canonical order: lexicographic with duplicate coordinates summed. This
  // is what makes the batch sequence independent of arrival order within
  // the batch, and bit-identical to RelativeComplement over a coalesced
  // snapshot.
  delta.Coalesce();
  batch.delta = std::move(delta);

  current_dims_ = batch_dims_;
  pending_indices_.clear();
  pending_values_.clear();
  pending_events_ = 0;
  batch_has_ts_ = false;
  return batch;
}

void DeltaBuilder::PushEvent(int64_t ts, const uint64_t* index, double value,
                             std::vector<MicroBatchDelta>* out) {
  if (IsLate(ts)) {
    ++late_events_;
    return;
  }
  NoteTimestamp(ts);

  bool interior = true;
  for (size_t m = 0; m < order_; ++m) {
    if (index[m] >= current_dims_[m]) {
      interior = false;
      break;
    }
  }
  if (interior) {
    ++interior_updates_;
    return;
  }

  if (options_.horizon_ticks > 0 && pending_events_ > 0) {
    const int64_t span = std::max(batch_max_ts_, ts) -
                         std::min(batch_min_ts_, ts);
    if (span > options_.horizon_ticks) {
      out->push_back(CloseBatch(BatchCloseReason::kHorizon));
    }
  }

  pending_indices_.insert(pending_indices_.end(), index, index + order_);
  pending_values_.push_back(value);
  ++pending_events_;
  ++accepted_events_;
  if (!batch_has_ts_) {
    batch_min_ts_ = batch_max_ts_ = ts;
    batch_has_ts_ = true;
  } else {
    batch_min_ts_ = std::min(batch_min_ts_, ts);
    batch_max_ts_ = std::max(batch_max_ts_, ts);
  }
  for (size_t m = 0; m < order_; ++m) {
    batch_dims_[m] = std::max(batch_dims_[m], index[m] + 1);
  }

  if (options_.max_batch_events > 0 &&
      pending_events_ >= options_.max_batch_events) {
    out->push_back(CloseBatch(BatchCloseReason::kEventCount));
    return;
  }
  if (options_.max_mode_growth > 0) {
    for (size_t m = 0; m < order_; ++m) {
      if (batch_dims_[m] - current_dims_[m] >= options_.max_mode_growth) {
        out->push_back(CloseBatch(BatchCloseReason::kModeGrowth));
        return;
      }
    }
  }
}

void DeltaBuilder::PushBarrier(int64_t ts, const std::vector<uint64_t>& dims,
                               std::vector<MicroBatchDelta>* out) {
  DISMASTD_CHECK(dims.size() == order_);
  NoteTimestamp(ts);
  for (size_t m = 0; m < order_; ++m) {
    batch_dims_[m] = std::max(batch_dims_[m], dims[m]);
  }
  MicroBatchDelta batch = CloseBatch(BatchCloseReason::kBarrier);
  if (batch.num_events == 0) {
    // An empty punctuation batch still carries a meaningful timestamp.
    batch.min_ts = batch.max_ts = ts;
  }
  out->push_back(std::move(batch));
}

void DeltaBuilder::Flush(std::vector<MicroBatchDelta>* out) {
  if (pending_events_ == 0 && batch_dims_ == current_dims_) return;
  out->push_back(CloseBatch(BatchCloseReason::kEndOfStream));
}

}  // namespace ingest
}  // namespace dismastd
