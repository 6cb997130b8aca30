// Open-loop top-K query generator shared by serve_topk and ingest_serve.
//
// Each client thread owns a fixed schedule: query j of thread i is due at
// start + (i / threads + j) / per-thread rate, whatever happened to the
// queries before it. Latency is timed from the due time, so a stall is
// charged to every query it delays; how late the generator itself sent
// each query is recorded separately. A failed query counts as an infinite
// latency (it misses any limit).
#ifndef DISMASTD_PERFBENCH_CLIENT_H_
#define DISMASTD_PERFBENCH_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "bench.h"
#include "serve/query_engine.h"

namespace perfbench {

/// One answered query kept for the post-run correctness check.
struct SampledAnswer {
  std::vector<uint64_t> anchor;
  std::vector<dismastd::serve::ScoredIndex> items;
};

/// What one open-loop run recorded (all clients merged).
struct ClientResult {
  std::vector<double> latency_ms;  // due -> answered; +inf when failed
  std::vector<double> service_us;  // inside QueryEngine::TopK only
  std::vector<double> lateness_ms;  // send time - due time
  uint64_t sent = 0;
  uint64_t failed = 0;
  /// Most queries due but not yet answered, sampled at every completion.
  uint64_t backlog_max = 0;
  /// Worst lateness among the clients' final queries: a backlog that grew
  /// through the run leaves the last sends late by about its length.
  double end_lateness_ms = 0.0;
  std::vector<SampledAnswer> samples;
};

struct ClientOptions {
  size_t threads = 1;
  double rate = 100.0;         // queries/s across all threads
  double duration_s = 1.0;     // schedule length (0 = until `stop`)
  uint64_t seed = 1;
  uint64_t items = 1;
  uint64_t contexts = 1;
  dismastd::serve::SearchMode search = dismastd::serve::SearchMode::kAnn;
  size_t sample_every = 0;     // keep every Nth answer (0 = none)
  const std::atomic<bool>* stop = nullptr;
};

/// Runs the open-loop schedule against `engine` and blocks until every
/// client thread has finished.
ClientResult RunOpenLoop(const dismastd::serve::QueryEngine& engine,
                         const ClientOptions& options);

}  // namespace perfbench

#endif  // DISMASTD_PERFBENCH_CLIENT_H_
