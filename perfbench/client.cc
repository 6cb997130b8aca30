#include "client.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include "common/random.h"

namespace perfbench {
namespace {

using dismastd::serve::QueryEngine;

/// Zipf(1.0)-skewed audience queries: top-10 of target mode 0 for an
/// (item, context) anchor, where each item carries a habitual context so a
/// re-queried head item is an exact repeat. The ANN shortlist is
/// probes x K = 1000 rows.
class AudienceQueries {
 public:
  AudienceQueries(uint64_t seed, uint64_t items, uint64_t contexts,
                  dismastd::serve::SearchMode search)
      : rng_(seed), items_(items, 1.0), contexts_(contexts) {
    query_.target_mode = 0;
    query_.k = 10;
    query_.search = search;
    query_.probes = 100;
  }
  const dismastd::serve::TopKQuery& Next() {
    const uint64_t item = items_.Sample(rng_);
    query_.anchor = {0, item, (item * 2654435761ULL) % contexts_};
    return query_;
  }

 private:
  dismastd::Rng rng_;
  dismastd::ZipfSampler items_;
  uint64_t contexts_;
  dismastd::serve::TopKQuery query_;
};

/// Sleeps to just before `when`, then spins the last stretch so the
/// generator's own wake-up jitter stays out of the latencies it records.
void WaitUntil(Clock::time_point when) {
  constexpr auto kSpin = std::chrono::microseconds(200);
  if (Clock::now() + kSpin < when) std::this_thread::sleep_until(when - kSpin);
  while (Clock::now() < when) {
  }
}

struct ThreadLog {
  std::vector<double> latency_ms;
  std::vector<double> service_us;
  std::vector<double> lateness_ms;
  uint64_t failed = 0;
  uint64_t backlog_max = 0;
  double last_lateness_ms = 0.0;
  std::vector<SampledAnswer> samples;
};

}  // namespace

ClientResult RunOpenLoop(const QueryEngine& engine,
                         const ClientOptions& options) {
  const size_t threads = std::max<size_t>(1, options.threads);
  const double per_thread_rate = options.rate / static_cast<double>(threads);
  const double interval = 1.0 / per_thread_rate;
  // Queries per thread on a bounded schedule; unbounded runs until `stop`.
  const double unbounded = std::numeric_limits<double>::infinity();
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  std::atomic<uint64_t> completed{0};

  auto offset = [&](size_t i) {
    return static_cast<double>(i) / static_cast<double>(threads) * interval;
  };
  auto queries_of = [&](size_t i) {
    if (options.duration_s <= 0.0) return unbounded;
    return std::ceil((options.duration_s - offset(i)) * per_thread_rate);
  };
  // Queries of all threads due by `now` (the open loop's offered work).
  auto due_by = [&](Clock::time_point now) {
    const double x = std::chrono::duration<double>(now - start).count();
    double due = 0.0;
    for (size_t i = 0; i < threads; ++i) {
      if (x < offset(i)) continue;
      due += std::min(std::floor((x - offset(i)) * per_thread_rate) + 1.0,
                      queries_of(i));
    }
    return due;
  };

  std::vector<ThreadLog> logs(threads);
  auto client = [&](size_t i) {
    ThreadLog& log = logs[i];
    AudienceQueries queries(options.seed * 1000003 + i, options.items,
                            options.contexts, options.search);
    const double n = queries_of(i);
    for (uint64_t j = 0; static_cast<double>(j) < n; ++j) {
      if (options.stop != nullptr &&
          options.stop->load(std::memory_order_acquire)) {
        break;
      }
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          offset(i) + static_cast<double>(j) * interval));
      const auto& query = queries.Next();
      WaitUntil(due);
      const Clock::time_point sent = Clock::now();
      const auto answer = engine.TopK(query);
      const Clock::time_point done = Clock::now();
      const double lateness =
          std::chrono::duration<double, std::milli>(sent - due).count();
      log.lateness_ms.push_back(lateness);
      log.last_lateness_ms = lateness;
      log.service_us.push_back(
          std::chrono::duration<double, std::micro>(done - sent).count());
      if (answer.ok()) {
        log.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(done - due).count());
        if (options.sample_every > 0 && j % options.sample_every == 0) {
          log.samples.push_back({query.anchor, answer.value()});
        }
      } else {
        log.latency_ms.push_back(std::numeric_limits<double>::infinity());
        ++log.failed;
      }
      const uint64_t finished = completed.fetch_add(1) + 1;
      const double backlog = due_by(done) - static_cast<double>(finished);
      log.backlog_max = std::max<uint64_t>(
          log.backlog_max, static_cast<uint64_t>(std::max(0.0, backlog)));
    }
  };
  // Client 0 runs on the calling thread, the others on their own.
  std::vector<std::thread> pool;
  for (size_t i = 1; i < threads; ++i) pool.emplace_back(client, i);
  client(0);
  for (std::thread& t : pool) t.join();

  ClientResult result;
  for (ThreadLog& log : logs) {
    result.latency_ms.insert(result.latency_ms.end(), log.latency_ms.begin(),
                             log.latency_ms.end());
    result.service_us.insert(result.service_us.end(), log.service_us.begin(),
                             log.service_us.end());
    result.lateness_ms.insert(result.lateness_ms.end(),
                              log.lateness_ms.begin(), log.lateness_ms.end());
    result.failed += log.failed;
    result.backlog_max = std::max(result.backlog_max, log.backlog_max);
    result.end_lateness_ms =
        std::max(result.end_lateness_ms, log.last_lateness_ms);
    for (SampledAnswer& s : log.samples) result.samples.push_back(std::move(s));
  }
  result.sent = result.latency_ms.size();
  return result;
}

}  // namespace perfbench
