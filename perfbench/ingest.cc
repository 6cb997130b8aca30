// ingest_serve: live writes beside reads.
//
// A 2000 x 500 x 100 Zipf tensor (40k nnz) grows over 4 steps and is
// exported as a shuffled TEVT event log with barriers. RunContinuousSession
// replays it (1 producer, kBlock, fuse 8, publish every 256 events, a
// 1000-tick sliding window, a stitch every records/4 events) with the
// producer paced at a fixed rate; every publish goes into a ServeSession
// while one open-loop client sends ann_cached top-K queries against it.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "client.h"
#include "cwin/continuous_session.h"
#include "ingest/event_log.h"
#include "serve/serve_session.h"
#include "stats.h"
#include "stream/generator.h"
#include "stream/snapshot.h"

namespace perfbench {
namespace {

using namespace dismastd;

constexpr int64_t kWindowTicks = 1000;
/// Producer pace (events/s): a tenth to a fifth of the consumer's unpaced
/// capacity on a shared 4-core AVX-512 machine, fixed so every commit sees
/// the same offered load. The headroom lets the consumer catch up quickly
/// after a stitch stall, so the freshness tail measures the stall rather
/// than how close the pace sits to capacity. One paced replay of the
/// 40k-event log lasts 10 s.
constexpr double kPaceRate = 4000.0;
/// Unpaced, query-free reference replays, one before and one after the
/// paced replay. Their capacity figure (the median event rate over their
/// publish intervals of 256 events) is reported per layer, not gated: with
/// a producer and a consumer thread handing off through the queue it
/// spread 26% between quartiles over ten seeds on a shared machine.
constexpr int kReferenceReplays = 2;
constexpr double kQueryRate = 500.0;

struct Setup {
  std::unique_ptr<ingest::EventLogReader> log;
  uint64_t records = 0;
  std::vector<uint64_t> first_dims;  // dims at the first barrier
  double seconds = 0.0;
};

Setup RunSetup(uint64_t seed) {
  const Clock::time_point start = Clock::now();
  GeneratorOptions gen;
  gen.dims = {2000, 500, 100};
  gen.nnz = 40000;
  gen.zipf_exponents = {1.0, 1.0, 0.5};
  gen.seed = 42 + 7919 * seed;
  SparseTensor full = GenerateSparseTensor(gen).tensor;
  auto schedule = MakeGrowthSchedule(full.dims(), 0.7, 0.1, 4);
  const StreamingTensorSequence stream(std::move(full), std::move(schedule));
  ingest::EventExportOptions export_options;
  export_options.seed = 42 + seed;
  const ingest::EventLogWriter writer =
      ingest::ExportSequenceAsEvents(stream, export_options);
  Result<ingest::EventLogReader> reader =
      ingest::EventLogReader::FromBytes(writer.ToBytes());
  Setup setup;
  if (reader.ok()) {
    setup.log = std::make_unique<ingest::EventLogReader>(
        std::move(reader).value());
  }
  setup.records = writer.num_records();
  setup.first_dims = stream.DimsAt(0);
  setup.seconds = SecondsSince(start);
  return setup;
}

cwin::ContinuousSessionOptions SessionOptions(uint64_t records,
                                              double rate) {
  cwin::ContinuousSessionOptions options;
  options.decompose.als.rank = 10;
  options.decompose.als.mu = 0.8;
  options.decompose.als.max_iterations = 5;
  options.decompose.num_workers = 15;
  options.decompose.execution.num_threads = 1;
  options.num_producers = 1;
  options.backpressure = ingest::BackpressurePolicy::kBlock;
  options.max_events_per_second = rate;
  options.fuse_events = 8;
  options.publish_interval_events = 256;
  options.window.window_ticks = kWindowTicks;
  options.stitch_interval_events = records / 4;
  return options;
}

/// The log's event slots in order (with one producer and nothing dropped,
/// the k-th accepted event is the k-th of these) and the final window.
struct LogIndex {
  std::vector<uint64_t> event_slots;
  SparseTensor window;
};

LogIndex IndexLog(const ingest::EventLogReader& log) {
  LogIndex index;
  std::vector<ingest::EventRecord> events;
  int64_t watermark = 0;
  std::vector<uint64_t> dims(log.order(), 0);
  for (size_t slot = 0; slot < log.num_slots(); ++slot) {
    ingest::EventRecord record;
    const ingest::SlotKind kind = log.Decode(slot, &record);
    if (kind == ingest::SlotKind::kQuarantined) continue;
    watermark = std::max(watermark, record.ts);
    if (kind == ingest::SlotKind::kBarrier) {
      for (size_t n = 0; n < dims.size(); ++n) {
        dims[n] = std::max(dims[n], record.fields[n]);
      }
      continue;
    }
    index.event_slots.push_back(slot);
    for (size_t n = 0; n < dims.size(); ++n) {
      dims[n] = std::max(dims[n], record.fields[n] + 1);
    }
    events.push_back(std::move(record));
  }
  // The sliding window keeps events newer than watermark - window_ticks.
  index.window = SparseTensor(dims);
  for (const ingest::EventRecord& e : events) {
    if (e.ts > watermark - kWindowTicks) index.window.Add(e.fields, e.value);
  }
  return index;
}

struct Replay {
  cwin::ContinuousSessionResult result;
  bool ok = false;
  std::string error;
  std::vector<double> freshness_ms;
  std::vector<double> publish_gap_ms;
  double publish_s = 0.0;
  uint64_t folded = 0;
  ClientResult client;
  serve::ServeMetricsReport serve_metrics;
};

/// One paced replay with the serving plane and the query client attached.
Replay RunPaced(const Setup& setup, const LogIndex& index, uint64_t seed,
                obs::Tracer* tracer) {
  Replay replay;
  cwin::ContinuousSessionOptions options =
      SessionOptions(setup.records, kPaceRate);
  options.decompose.tracer = tracer;
  serve::ServeSessionOptions serve_options;
  serve_options.num_query_threads = 1;
  serve_options.tracer = tracer;
  serve::ServeSession session(serve_options);
  serve::ServeMetrics metrics;
  const serve::QueryEngine engine(&session.store(), nullptr, &metrics, tracer,
                                  session.cache());

  // The client starts once a published model covers the first barrier's
  // dims (its anchors live there) and stops when the replay ends.
  std::mutex mutex;
  std::condition_variable cv;
  bool go = false;
  std::atomic<bool> stop{false};
  std::thread client([&] {
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return go; });
    }
    if (stop.load()) return;
    ClientOptions client_options;
    client_options.threads = 1;
    client_options.rate = kQueryRate;
    client_options.duration_s = 0.0;
    client_options.seed = seed * 131 + 7;
    client_options.items = setup.first_dims[1];
    client_options.contexts = setup.first_dims[2];
    client_options.search = serve::SearchMode::kAnnCached;
    client_options.stop = &stop;
    replay.client = RunOpenLoop(engine, client_options);
  });
  bool released = false;  // consumer-thread copy of `go`
  auto release_client = [&] {
    if (released) return;
    released = true;
    std::lock_guard<std::mutex> lock(mutex);
    go = true;
    cv.notify_all();
  };

  Clock::time_point last_observer;
  bool observed = false;
  const Clock::time_point start = Clock::now();
  auto observer = [&](const StreamStepMetrics& sm,
                      const KruskalTensor& factors) {
    const Clock::time_point now = Clock::now();
    if (observed) {
      replay.publish_gap_ms.push_back(
          std::chrono::duration<double, std::milli>(now - last_observer)
              .count());
    }
    observed = true;
    last_observer = now;
    LayerSpan span(tracer, "serve.publish");
    session.Publish(factors, sm.step);
    replay.publish_s += span.Stop();
    const Clock::time_point visible = Clock::now();
    // Freshness of every event this publish folded in, against the
    // producer's own schedule: due = session start + slot / rate.
    for (uint64_t k = 0; k < sm.processed_nnz; ++k, ++replay.folded) {
      if (replay.folded >= index.event_slots.size()) break;
      const double due_s =
          static_cast<double>(index.event_slots[replay.folded]) / kPaceRate;
      replay.freshness_ms.push_back(
          std::chrono::duration<double, std::milli>(visible - start).count() -
          due_s * 1e3);
    }
    bool covers = true;
    for (size_t n = 0; n < setup.first_dims.size(); ++n) {
      covers = covers && sm.dims[n] >= setup.first_dims[n];
    }
    if (covers) release_client();
  };

  LayerSpan replay_span(tracer, "cwin.replay");
  Result<cwin::ContinuousSessionResult> run =
      cwin::RunContinuousSession(*setup.log, options, observer);
  replay_span.Stop();
  stop.store(true);
  release_client();
  client.join();
  if (run.ok()) {
    replay.result = std::move(run).value();
    replay.ok = true;
  } else {
    replay.error = run.status().message();
  }
  replay.serve_metrics = metrics.Report();
  return replay;
}

}  // namespace

Report RunIngestServe(const RunConfig& config) {
  Report report;
  const int setups = config.tracer != nullptr ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < setups; ++i) {
    setup = Setup();
    setup = RunSetup(config.seed);
    setup_s.push_back(setup.seconds);
  }
  if (setup.log == nullptr) {
    report.Check("event_log_round_trip", false, "TEVT decode failed");
    return report;
  }
  const LogIndex index = IndexLog(*setup.log);

  // --- Reference: unpaced, query-free replays (also the capacity figure),
  //     half before and half after the paced replays.
  Result<cwin::ContinuousSessionResult> reference =
      Status::Internal("no reference replay");
  std::vector<double> ref_rates;
  std::vector<uint64_t> ref_fingerprints;
  auto run_reference = [&] {
    Clock::time_point last = Clock::now();
    reference = cwin::RunContinuousSession(
        *setup.log, SessionOptions(setup.records, 0.0),
        [&](const StreamStepMetrics& sm, const KruskalTensor&) {
          const Clock::time_point now = Clock::now();
          const double seconds =
              std::chrono::duration<double>(now - last).count();
          last = now;
          if (sm.processed_nnz > 0 && seconds > 0.0) {
            ref_rates.push_back(static_cast<double>(sm.processed_nnz) /
                                seconds);
          }
        });
    if (reference.ok()) {
      ref_fingerprints.push_back(reference.value().model_fingerprint);
    }
    return reference.ok();
  };
  for (int i = 0; i < kReferenceReplays / 2; ++i) {
    if (!run_reference()) {
      report.Check("reference_replay", false, reference.status().message());
      return report;
    }
  }

  // --- Timed paced replays. ------------------------------------------------
  const size_t replays = std::max<size_t>(
      1, static_cast<size_t>(std::lround(
             config.seconds * kPaceRate /
             static_cast<double>(index.event_slots.size()))));
  std::vector<Replay> runs;
  for (size_t i = 0; i < (config.tracer != nullptr ? 1 : replays); ++i) {
    runs.push_back(RunPaced(setup, index, config.seed + i, nullptr));
  }
  for (int i = kReferenceReplays / 2; i < kReferenceReplays; ++i) {
    if (!run_reference()) {
      report.Check("reference_replay", false, reference.status().message());
      return report;
    }
  }
  report.Check("reference_replays_agree",
               std::count(ref_fingerprints.begin(), ref_fingerprints.end(),
                          ref_fingerprints.front()) ==
                   static_cast<std::ptrdiff_t>(ref_fingerprints.size()),
               std::to_string(kReferenceReplays) + " unpaced replays");
  const double peak_rss_mb = PeakRssMb();  // before the checks allocate

  // --- Correctness, outside the timed replays. ----------------------------
  uint64_t failed_queries = 0;
  for (const Replay& r : runs) {
    report.Check("replay_ok", r.ok, r.error);
    if (!r.ok) continue;
    report.Check("fingerprint_matches_reference",
                 r.result.model_fingerprint == reference.value().model_fingerprint,
                 "paced + queried vs unpaced query-free");
    report.Check("every_event_published",
                 r.folded == index.event_slots.size() &&
                     r.result.events == index.event_slots.size() &&
                     r.result.duplicates == 0 && r.result.late_events == 0,
                 std::to_string(r.folded) + " of " +
                     std::to_string(index.event_slots.size()));
    failed_queries += r.client.failed;
    report.attempted += r.folded + r.client.sent;
  }
  report.failed += failed_queries;
  if (failed_queries > 0) report.correct = false;
  if (!report.correct) return report;
  const double fit = reference.value().factors.Fit(index.window);

  // --- End-to-end metrics. ------------------------------------------------
  std::vector<double> freshness, query_ms, service_us, lateness, gaps;
  double publish_s = 0.0, replay_s = 0.0;
  uint64_t backlog_max = 0, rows = 0, queries = 0, hits = 0, lookups = 0;
  for (const Replay& r : runs) {
    freshness.insert(freshness.end(), r.freshness_ms.begin(), r.freshness_ms.end());
    query_ms.insert(query_ms.end(), r.client.latency_ms.begin(),
                    r.client.latency_ms.end());
    service_us.insert(service_us.end(), r.client.service_us.begin(),
                      r.client.service_us.end());
    lateness.insert(lateness.end(), r.client.lateness_ms.begin(),
                    r.client.lateness_ms.end());
    gaps.insert(gaps.end(), r.publish_gap_ms.begin(), r.publish_gap_ms.end());
    publish_s += r.publish_s;
    replay_s += r.result.wall_seconds;
    backlog_max = std::max(backlog_max, r.client.backlog_max);
    rows += r.serve_metrics.topk_rows_scored_total;
    queries += r.serve_metrics.topk_by_search[static_cast<size_t>(
        serve::SearchMode::kAnnCached)];
    hits += r.serve_metrics.cache_hits;
    lookups += r.serve_metrics.cache_lookups;
  }
  const double n_runs = static_cast<double>(runs.size());
  const Percentiles fresh = Summarize(freshness);
  const Percentiles query = Summarize(query_ms);
  const Percentiles svc = Summarize(service_us);
  const double events = static_cast<double>(index.event_slots.size());
  report.E2e("setup_s", Median(setup_s), "s");
  report.E2e("peak_rss_mb", peak_rss_mb, "MB");
  report.E2e("latency_p50_ms", fresh.p50, "ms");
  // Accepted events over paced replay wall time: the offered rate unless
  // the consumer falls behind.
  report.E2e("throughput_per_s", events * n_runs / replay_s, "1/s");
  report.Layer("tail.latency_p95_ms", fresh.p95, "ms");
  report.Layer("tail.latency_p99_ms", fresh.p99, "ms");
  report.Note("latency.samples", std::to_string(fresh.count) + " events");
  report.Note("query.samples", std::to_string(query.count) + " queries");
  report.Note("paced_rate", std::to_string(kPaceRate) + " events/s");

  // --- Per-layer metrics. -------------------------------------------------
  const cwin::ContinuousSessionResult& last = runs.back().result;
  report.Layer("serve.publish_s", publish_s / n_runs, "s");
  report.Layer("serve.query_p50_ms", query.p50, "ms");
  report.Layer("serve.query_p99_ms", query.p99, "ms");
  report.Layer("serve.service_p50_us", svc.p50, "us");
  report.Layer("serve.service_p99_us", svc.p99, "us");
  report.Layer("serve.backlog_max", static_cast<double>(backlog_max), "count");
  report.Layer("ann.rows_scored_per_query",
               queries > 0 ? static_cast<double>(rows) / static_cast<double>(queries)
                           : 0.0,
               "count");
  report.Layer("ann.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                           : 0.0,
               "ratio");
  report.Layer("ingest.capacity_per_s", Median(ref_rates), "1/s");
  report.Layer("ingest.max_queue_depth", static_cast<double>(last.max_queue_depth),
               "count");
  report.Layer("ingest.block_waits", static_cast<double>(last.block_waits), "count");
  report.Layer("cwin.replay_s", replay_s / n_runs, "s");
  report.Layer("cwin.rows_solved_per_event",
               static_cast<double>(last.rows_solved) / events, "ratio");
  report.Layer("cwin.fit", fit, "ratio");
  report.Layer("cwin.stitches", static_cast<double>(last.stitches), "count");
  report.Layer("cwin.publishes", static_cast<double>(last.publishes), "count");
  report.Layer("cwin.publish_gap_p99_ms", Summarize(gaps).p99, "ms");
  report.Layer("client.lateness_p99_ms", Summarize(lateness).p99, "ms");
  report.Note("service.samples", std::to_string(svc.count) + " queries");
  report.Note("publish_gap.samples", std::to_string(gaps.size()) + " gaps");
  report.Note("capacity.samples",
              std::to_string(ref_rates.size()) + " publish intervals");
  report.Note("workload.threads", "1 producer, 1 consumer, 1 query client");
  uint64_t factor_bytes = 0;
  for (const Matrix& m : last.factors.factors()) {
    factor_bytes += m.size() * sizeof(double);
  }
  report.Note("working_set.factor_bytes", std::to_string(factor_bytes));

  // --- Traced pass. ---------------------------------------------------------
  if (config.tracer != nullptr) {
    const Replay traced = RunPaced(setup, index, config.seed, config.tracer);
    report.Check("traced_fingerprint_matches",
                 traced.ok && traced.result.model_fingerprint ==
                                  reference.value().model_fingerprint,
                 "tracing must not change results");
    const double traced_p50 = Summarize(traced.freshness_ms).p50;
    report.Layer("trace.overhead_pct", (traced_p50 - fresh.p50) / fresh.p50 * 100.0,
                 "%");
  }
  return report;
}

}  // namespace perfbench
