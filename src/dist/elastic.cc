#include "dist/elastic.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace dismastd {

namespace {

/// Fixed-point scale for turning decayed (fractional) per-slice loads into
/// the integer histogram PartitionMode consumes. Coarse enough to never
/// overflow (nnz per slice < 2^44 even at decay 1), fine enough that the
/// decayed tail still breaks ties deterministically.
constexpr double kLoadScale = 1024.0;

uint64_t ScaledLoad(double decayed) {
  return static_cast<uint64_t>(std::llround(decayed * kLoadScale));
}

}  // namespace

uint32_t ScalePlan::AddedAt(uint64_t stream_step) const {
  uint32_t total = 0;
  for (const ScaleEvent& e : events) {
    if (e.kind == ScaleEvent::Kind::kAdd && e.stream_step == stream_step) {
      total += e.count;
    }
  }
  return total;
}

uint32_t ScalePlan::DrainedAt(uint64_t stream_step) const {
  uint32_t total = 0;
  for (const ScaleEvent& e : events) {
    if (e.kind == ScaleEvent::Kind::kDrain && e.stream_step == stream_step) {
      total += e.count;
    }
  }
  return total;
}

Result<ScalePlan> ParseScalePlan(const std::string& spec) {
  ScalePlan plan;
  const std::vector<std::string> tokens = SplitString(spec, ',');
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.empty()) continue;
    // Every error names the offending token and its 1-based position, so a
    // typo deep inside a long plan is findable from the message alone.
    const auto fail = [&](const std::string& why) {
      return Status::InvalidArgument("scale plan token " +
                                     std::to_string(i + 1) + " ('" + token +
                                     "'): " + why);
    };
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return fail("expected add=COUNT@STEP or drain=COUNT@STEP");
    }
    const std::string key = token.substr(0, eq);
    ScaleEvent event;
    if (key == "add") {
      event.kind = ScaleEvent::Kind::kAdd;
    } else if (key == "drain") {
      event.kind = ScaleEvent::Kind::kDrain;
    } else {
      return fail("unknown action '" + key + "' (expected add or drain)");
    }
    const std::string value = token.substr(eq + 1);
    const size_t at = value.find('@');
    if (at == std::string::npos) {
      return fail("missing '@STEP' after the worker count");
    }
    uint64_t count = 0;
    if (!ParseU64(value.substr(0, at), &count).ok() || count == 0) {
      return fail("worker count '" + value.substr(0, at) +
                  "' is not a positive integer");
    }
    if (!ParseU64(value.substr(at + 1), &event.stream_step).ok()) {
      return fail("step '" + value.substr(at + 1) +
                  "' is not a non-negative integer");
    }
    event.count = static_cast<uint32_t>(count);
    plan.events.push_back(event);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const ScaleEvent& a, const ScaleEvent& b) {
                     return a.stream_step < b.stream_step;
                   });
  return plan;
}

Status ElasticOptions::Validate() const {
  if (!std::isfinite(imbalance_threshold) || imbalance_threshold < 1.0) {
    return Status::InvalidArgument(
        "imbalance_threshold must be >= 1 (it is a max/avg ratio)");
  }
  if (!std::isfinite(load_decay) || load_decay < 0.0 || load_decay >= 1.0) {
    return Status::InvalidArgument("load_decay must be in [0, 1)");
  }
  return Status::OK();
}

LoadMonitor::LoadMonitor(double threshold, uint32_t cooldown_steps,
                         double smoothing)
    : threshold_(threshold),
      cooldown_steps_(cooldown_steps),
      smoothing_(smoothing) {}

void LoadMonitor::Observe(double imbalance) {
  last_ = imbalance;
  signal_ = observed_ ? smoothing_ * signal_ + (1.0 - smoothing_) * last_
                      : last_;
  observed_ = true;
}

bool LoadMonitor::ShouldRebalance(uint64_t stream_step) const {
  if (!observed_ || signal_ <= threshold_) return false;
  if (rebalanced_ && stream_step < last_rebalance_step_ + cooldown_steps_) {
    return false;
  }
  return true;
}

void LoadMonitor::NoteRebalance(uint64_t stream_step) {
  rebalanced_ = true;
  last_rebalance_step_ = stream_step;
  // The pre-rebalance imbalance is stale now; wait for a fresh observation
  // before the signal can trigger again.
  signal_ = 1.0;
  last_ = 1.0;
  observed_ = false;
}

std::string ElasticTotals::ToString() const {
  return "repartitions=" + FormatWithCommas(repartitions) +
         " migrated_rows=" + FormatWithCommas(migrated_rows) +
         " migration=" + FormatBytes(migration_bytes) +
         " workers(add/drain)=" + FormatWithCommas(workers_added) + "/" +
         FormatWithCommas(workers_drained);
}

ElasticCoordinator::ElasticCoordinator(const ElasticOptions& options,
                                       PartitionerKind partitioner,
                                       uint32_t initial_workers,
                                       uint32_t parts_per_mode)
    : options_(options),
      partitioner_(partitioner),
      parts_per_mode_(parts_per_mode),
      num_workers_(initial_workers),
      monitor_(options.imbalance_threshold, options.cooldown_steps,
               options.load_decay) {
  DISMASTD_CHECK(initial_workers >= 1);
  DISMASTD_CHECK_OK(options.Validate());
}

uint32_t ElasticCoordinator::num_parts() const {
  return parts_per_mode_ == 0 ? num_workers_ : parts_per_mode_;
}

void ElasticCoordinator::ExtendForDelta(const SparseTensor& delta) {
  const size_t order = delta.order();
  if (decayed_nnz_.empty()) {
    decayed_nnz_.resize(order);
    partitioning_.modes.resize(order);
    for (ModePartition& mode : partitioning_.modes) {
      mode.num_parts = num_parts();
    }
  }
  DISMASTD_CHECK(decayed_nnz_.size() == order);
  const uint32_t parts = num_parts();
  for (size_t n = 0; n < order; ++n) {
    const std::vector<uint64_t> counts = delta.SliceNnzCounts(n);
    std::vector<double>& decayed = decayed_nnz_[n];
    ModePartition& mode = partitioning_.modes[n];
    // New slices join the existing partition round-robin until the next
    // recompute folds them in properly (they start with zero history).
    for (uint64_t i = decayed.size(); i < counts.size(); ++i) {
      mode.slice_to_part.push_back(static_cast<uint32_t>(i % parts));
    }
    mode.part_nnz.resize(parts, 0);
    decayed.resize(counts.size(), 0.0);
    for (size_t i = 0; i < counts.size(); ++i) {
      decayed[i] = options_.load_decay * decayed[i] +
                   static_cast<double>(counts[i]);
    }
  }
}

void ElasticCoordinator::Repartition() {
  const uint32_t parts = num_parts();
  for (size_t n = 0; n < decayed_nnz_.size(); ++n) {
    std::vector<uint64_t> loads(decayed_nnz_[n].size());
    for (size_t i = 0; i < loads.size(); ++i) {
      loads[i] = ScaledLoad(decayed_nnz_[n][i]);
    }
    partitioning_.modes[n] = PartitionMode(partitioner_, loads, parts);
  }
}

ElasticStepPlan ElasticCoordinator::BeginStep(const SparseTensor& delta,
                                              uint64_t stream_step) {
  ElasticStepPlan plan;
  plan.active = true;
  plan.workers_before = num_workers_;
  plan.workers_added = options_.scale_plan.AddedAt(stream_step);
  uint32_t drained = options_.scale_plan.DrainedAt(stream_step);
  // Never drain the cluster to zero.
  const uint32_t after_add = num_workers_ + plan.workers_added;
  if (drained >= after_add) {
    DISMASTD_LOG(Warning) << "scale plan drains " << drained << " of "
                          << after_add << " workers at step " << stream_step
                          << "; clamping to keep one";
    drained = after_add - 1;
  }
  plan.workers_drained = drained;
  const bool scaled = plan.workers_added > 0 || plan.workers_drained > 0;

  // Fold the delta in under the *current* partition first, so
  // prev_partitioning covers every slice the migration will consider.
  ExtendForDelta(delta);

  const bool triggered =
      options_.rebalance_enabled && monitor_.ShouldRebalance(stream_step);
  if (!partitioned_once_) {
    // First step: compute the initial partition. Nothing exists to
    // migrate, so this is not a repartition event.
    num_workers_ = after_add - drained;
    Repartition();
    partitioned_once_ = true;
    totals_.workers_added += plan.workers_added;
    totals_.workers_drained += plan.workers_drained;
    plan.num_workers = num_workers_;
    return plan;
  }
  if (scaled || triggered) {
    plan.repartition = true;
    plan.prev_partitioning = partitioning_;
    num_workers_ = after_add - drained;
    Repartition();
    monitor_.NoteRebalance(stream_step);
    ++totals_.repartitions;
    totals_.workers_added += plan.workers_added;
    totals_.workers_drained += plan.workers_drained;
    DISMASTD_LOG(Info) << "elastic repartition at step " << stream_step
                       << (scaled ? " (scale event)" : " (imbalance)")
                       << ": workers " << plan.workers_before << " -> "
                       << num_workers_;
  }
  plan.num_workers = num_workers_;
  return plan;
}

void ElasticCoordinator::EndStep(double load_imbalance) {
  monitor_.Observe(load_imbalance);
}

void ElasticCoordinator::PublishTo(obs::MetricRegistry* registry) const {
  const auto counter = [&](const char* name, const char* help, uint64_t v) {
    registry->GetCounter(name, {}, help)->Add(v);
  };
  counter("dismastd_elastic_repartitions_total",
          "Online repartition events (monitor- or scale-triggered)",
          totals_.repartitions - published_.repartitions);
  counter("dismastd_elastic_migrated_rows_total",
          "Factor rows moved between workers by repartitioning",
          totals_.migrated_rows - published_.migrated_rows);
  counter("dismastd_elastic_migration_bytes_total",
          "Wire bytes of factor-row and Gram-shard migration",
          totals_.migration_bytes - published_.migration_bytes);
  counter("dismastd_elastic_workers_added_total",
          "Workers joined via the scale plan",
          totals_.workers_added - published_.workers_added);
  counter("dismastd_elastic_workers_drained_total",
          "Workers drained via the scale plan",
          totals_.workers_drained - published_.workers_drained);
  published_ = totals_;
  registry
      ->GetGauge("dismastd_elastic_workers", {},
                 "Current worker count of the elastic cluster")
      ->Set(static_cast<double>(num_workers_));
  registry
      ->GetGauge("dismastd_elastic_imbalance", {},
                 "Rolling max/avg busy-seconds imbalance signal")
      ->Set(monitor_.signal());
  registry
      ->GetGauge("dismastd_elastic_migration_sim_seconds", {},
                 "Simulated seconds spent in migrate supersteps")
      ->Set(totals_.migration_sim_seconds);
  registry
      ->GetGauge("dismastd_elastic_repartition_sim_seconds", {},
                 "Simulated seconds spent recomputing partitions online")
      ->Set(totals_.repartition_sim_seconds);
}

}  // namespace dismastd
