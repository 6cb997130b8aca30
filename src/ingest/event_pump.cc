#include "ingest/event_pump.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace dismastd {
namespace ingest {

namespace {

/// Sentinel progress value of a finished producer.
inline constexpr uint64_t kProducerDone = ~0ull;

}  // namespace

Status PumpOptions::Validate() const {
  if (num_producers > kMaxProducers) {
    return Status::InvalidArgument(
        "num_producers must be at most " + std::to_string(kMaxProducers) +
        ", got " + std::to_string(num_producers));
  }
  if (!(max_events_per_second >= 0.0)) {
    return Status::InvalidArgument(
        "max_events_per_second must be >= 0 (0 = unthrottled), got " +
        std::to_string(max_events_per_second));
  }
  return Status::OK();
}

EventPump::EventPump(const EventLogReader& log, const PumpOptions& options,
                     obs::MetricRegistry* metrics, PumpCensus* census)
    : log_(log),
      num_producers_(std::max<size_t>(1, options.num_producers)),
      // Aggregate rate limit split evenly across producers.
      per_producer_rate_(options.max_events_per_second /
                         static_cast<double>(
                             std::max<size_t>(1, options.num_producers))),
      metrics_(metrics),
      depth_gauge_(metrics != nullptr
                       ? metrics->GetGauge(
                             "dismastd_ingest_queue_depth", {},
                             "Tokens queued between producers and consumer")
                       : nullptr),
      census_(census),
      queue_(options.queue_capacity, options.backpressure) {
  census_->event_to_publish_nanos = std::make_shared<obs::Pow2Histogram>();
}

void EventPump::Run(const std::function<void(const IngestToken&)>& policy) {
  const size_t num_slots = log_.num_slots();
  // Per-producer replay progress: the next slot the producer will attempt.
  // Updated with release after each Push so that once the consumer reads
  // (acquire) a progress value, every earlier slot of that shard is either
  // in the queue already or was shed by the queue itself — the consumer may
  // then process all buffered tokens below min(progress) in slot order.
  std::vector<std::atomic<uint64_t>> progress(num_producers_);
  for (size_t p = 0; p < num_producers_; ++p) progress[p].store(p);
  std::atomic<size_t> producers_active{num_producers_};

  std::vector<std::thread> producers;
  producers.reserve(num_producers_);
  for (size_t p = 0; p < num_producers_; ++p) {
    producers.emplace_back([&, p] {
      uint64_t emitted = 0;
      // Round-robin sharding: producer p replays slots p, p+N, p+2N, ...
      // so all producers advance the low slot range together and the
      // consumer's merge frontier moves continuously.
      for (size_t slot = p; slot < num_slots; slot += num_producers_) {
        if (per_producer_rate_ > 0.0) {
          const double target =
              static_cast<double>(emitted) / per_producer_rate_;
          const double ahead = target - epoch_.ElapsedSeconds();
          if (ahead > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
          }
        }
        IngestToken token;
        token.slot = slot;
        token.kind = log_.Decode(slot, &token.record);
        token.enqueue_seconds = epoch_.ElapsedSeconds();
        queue_.Push(std::move(token));
        ++emitted;
        progress[p].store(slot + num_producers_, std::memory_order_release);
      }
      progress[p].store(kProducerDone, std::memory_order_release);
      if (producers_active.fetch_sub(1) == 1) queue_.Close();
    });
  }

  auto deliver = [&](const IngestToken& token) {
    switch (token.kind) {
      case SlotKind::kQuarantined:
        ++census_->quarantined;
        return;
      case SlotKind::kBarrier:
        ++census_->barriers;
        break;
      case SlotKind::kEvent:
        ++census_->events;
        if (!seen_seqs_.insert(token.record.seq).second) {
          ++census_->duplicates;
          return;
        }
        break;
    }
    policy(token);
  };

  // Merge-in-order: tokens buffered here until every slot below the safe
  // frontier has arrived (or provably never will), then delivered in log
  // order — the same discipline that makes WorkerExecutor results
  // independent of thread count.
  std::map<uint64_t, IngestToken> reorder;
  std::vector<IngestToken> popped;
  bool open = true;
  while (open) {
    uint64_t safe = kProducerDone;
    for (size_t p = 0; p < num_producers_; ++p) {
      safe = std::min(safe, progress[p].load(std::memory_order_acquire));
    }
    popped.clear();
    const size_t n = queue_.PopAll(&popped);
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<double>(queue_.depth()));
    }
    if (n == 0) {
      // Closed and drained: every surviving token is buffered; the whole
      // tail is safe to process.
      open = false;
      safe = kProducerDone;
    }
    for (IngestToken& token : popped) {
      reorder.emplace(token.slot, std::move(token));
    }
    while (!reorder.empty() && reorder.begin()->first < safe) {
      deliver(reorder.begin()->second);
      reorder.erase(reorder.begin());
    }
  }
  for (std::thread& t : producers) t.join();
}

void EventPump::Published() {
  const double published = epoch_.ElapsedSeconds();
  for (double enqueued : pending_enqueue_) {
    const double latency = std::max(0.0, published - enqueued);
    census_->event_to_publish_nanos->Record(
        static_cast<uint64_t>(latency * 1e9));
  }
  pending_enqueue_.clear();
}

void EventPump::Finish() {
  PumpCensus& c = *census_;
  c.dropped_oldest = queue_.dropped_oldest_total();
  c.rejected = queue_.rejected_total();
  c.block_waits = queue_.block_waits_total();
  c.max_queue_depth = queue_.max_depth();
  c.wall_seconds = epoch_.ElapsedSeconds();
  if (metrics_ == nullptr) return;
  const struct {
    const char* name;
    const char* help;
    uint64_t value;
  } counters[] = {
      {"dismastd_ingest_events_total", "Event records the consumer saw",
       c.events},
      {"dismastd_ingest_barriers_total", "Barrier records the consumer saw",
       c.barriers},
      {"dismastd_ingest_quarantined_total",
       "Log slots quarantined (CRC mismatch / unknown kind)", c.quarantined},
      {"dismastd_ingest_duplicate_events_total",
       "Events dropped for an already-seen seq", c.duplicates},
      {"dismastd_ingest_late_events_total",
       "Events quarantined as older than the lateness bound", c.late_events},
      {"dismastd_ingest_dropped_oldest_total",
       "Tokens evicted by drop-oldest backpressure", c.dropped_oldest},
      {"dismastd_ingest_rejected_total",
       "Tokens refused by reject backpressure or after close", c.rejected},
      {"dismastd_ingest_block_waits_total",
       "Times a producer blocked waiting for queue space", c.block_waits},
  };
  for (const auto& counter : counters) {
    metrics_->GetCounter(counter.name, {}, counter.help)->Add(counter.value);
  }
  metrics_
      ->GetGauge("dismastd_ingest_queue_max_depth", {},
                 "High-water mark of the ingest queue depth")
      ->Set(static_cast<double>(c.max_queue_depth));
  metrics_
      ->GetHistogram("dismastd_ingest_event_to_publish_nanoseconds", {},
                     "Accepted-event enqueue to published-model latency")
      ->MergeFrom(*c.event_to_publish_nanos);
}

}  // namespace ingest
}  // namespace dismastd
