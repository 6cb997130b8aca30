#ifndef DISMASTD_INGEST_EVENT_PUMP_H_
#define DISMASTD_INGEST_EVENT_PUMP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "ingest/event_log.h"
#include "ingest/event_queue.h"
#include "obs/histogram.h"

namespace dismastd {
namespace obs {
class MetricRegistry;
class Gauge;
}  // namespace obs

namespace ingest {

/// Upper bound on producer threads; each producer is one std::thread.
inline constexpr size_t kMaxProducers = 64;

/// How a log is delivered; the common part of every ingest policy's
/// options.
struct PumpOptions {
  /// Producer (replay) threads sharding the log round-robin by slot (0 is
  /// read as 1). With kBlock backpressure the delivered sequence, and so
  /// every policy's output, is identical for every producer count.
  size_t num_producers = 1;
  /// Bounded queue between producers and the consumer.
  size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Aggregate replay rate across all producers; 0 = unthrottled.
  double max_events_per_second = 0.0;

  /// InvalidArgument for more than kMaxProducers producers or a negative
  /// or NaN rate.
  Status Validate() const;
};

/// Consumer-side census and freshness clock; the common part of every
/// ingest policy's result.
struct PumpCensus {
  uint64_t events = 0;
  uint64_t barriers = 0;
  uint64_t quarantined = 0;
  /// Events dropped for a seq already seen (at-least-once retransmission).
  uint64_t duplicates = 0;
  /// Events quarantined as older than watermark - allowed lateness (the
  /// policy applies the bound and fills this in).
  uint64_t late_events = 0;

  /// Queue-side accounting (see EventQueue).
  uint64_t dropped_oldest = 0;
  uint64_t rejected = 0;
  uint64_t block_waits = 0;
  size_t max_queue_depth = 0;

  /// End-to-end freshness: enqueue of an accepted event -> the model that
  /// folded it in was published (observer returned). Nanoseconds. Always
  /// non-null on a successful run (heap-held: the histogram's atomics make
  /// it non-copyable, the result struct must not be).
  std::shared_ptr<obs::Pow2Histogram> event_to_publish_nanos;

  double wall_seconds = 0.0;
};

/// The delivery half of live ingest, shared by the batch policy
/// (RunIngestSession) and the continuous policy (RunContinuousSession).
/// N producer threads decode disjoint round-robin slot shards and push
/// them into the bounded queue; the calling thread reassembles log order
/// on a safe frontier (merge-in-order on the slot index, the same
/// discipline WorkerExecutor uses), counts the census, drops repeated
/// seqs, and hands every barrier and every first-seen event to the
/// policy. The policy reports which events it accepted and when it
/// published; the pump turns that into the freshness histogram.
class EventPump {
 public:
  /// Starts the session's wall epoch. `census` (which must outlive the
  /// pump) receives the counts and the freshness histogram; `metrics` may
  /// be null.
  EventPump(const EventLogReader& log, const PumpOptions& options,
            obs::MetricRegistry* metrics, PumpCensus* census);

  EventPump(const EventPump&) = delete;
  EventPump& operator=(const EventPump&) = delete;

  /// Replays the whole log, calling `policy` on the consumer thread for
  /// every barrier and first-seen event, in log order. Returns once the
  /// queue is drained and every producer has joined.
  void Run(const std::function<void(const IngestToken&)>& policy);

  /// The policy folded `token`'s event into the model it publishes next;
  /// its enqueue time joins the freshness clock.
  void Accept(const IngestToken& token) {
    pending_enqueue_.push_back(token.enqueue_seconds);
  }
  /// A model folding in every accepted event was published: their
  /// enqueue -> now latencies go into the histogram.
  void Published();

  /// Seconds on the session's wall epoch.
  double ElapsedSeconds() const { return epoch_.ElapsedSeconds(); }
  size_t queue_depth() const { return queue_.depth(); }

  /// After the policy's last publish: stamps the queue accounting and the
  /// wall time into the census and exports the shared
  /// dismastd_ingest_* families.
  void Finish();

 private:
  const EventLogReader& log_;
  const size_t num_producers_;
  const double per_producer_rate_;
  obs::MetricRegistry* metrics_;
  obs::Gauge* depth_gauge_;
  PumpCensus* census_;

  WallTimer epoch_;
  EventQueue queue_;
  std::unordered_set<uint64_t> seen_seqs_;
  // Enqueue times of accepted events not yet folded into a published model.
  std::vector<double> pending_enqueue_;
};

}  // namespace ingest
}  // namespace dismastd

#endif  // DISMASTD_INGEST_EVENT_PUMP_H_
