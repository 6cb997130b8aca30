#include "core/driver.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/flightrec.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "tensor/checkpoint.h"

namespace dismastd {

namespace {

/// Copies a decomposition's resource metrics into the step rollup.
void FillStepMetrics(const DistributedResult& result, StreamStepMetrics* sm) {
  sm->iterations = result.als.iterations;
  sm->sim_seconds_per_iteration = result.metrics.MeanIterationSeconds();
  sm->sim_seconds_total = result.metrics.sim_seconds_total;
  sm->sim_seconds_partitioning = result.metrics.sim_seconds_partitioning;
  sm->sim_seconds_mttkrp_update = result.metrics.sim_seconds_mttkrp_update;
  sm->sim_seconds_gram_reduce = result.metrics.sim_seconds_gram_reduce;
  sm->sim_seconds_loss = result.metrics.sim_seconds_loss;
  sm->comm_bytes = result.metrics.comm_payload_bytes;
  sm->comm_messages = result.metrics.comm_messages;
  sm->flops = result.metrics.total_flops;
  sm->wall_seconds = result.metrics.wall_seconds;
  sm->final_loss = result.als.loss_history.empty()
                       ? 0.0
                       : result.als.loss_history.back();
  sm->recovery = result.metrics.recovery;
  sm->orphaned_messages = result.metrics.orphaned_messages;
  sm->leaked_messages = result.metrics.leaked_messages;
  sm->num_workers = result.metrics.num_workers;
  sm->busy_seconds_max = result.metrics.busy_seconds_max;
  sm->busy_seconds_avg = result.metrics.busy_seconds_avg;
  sm->load_imbalance = result.metrics.load_imbalance;
  sm->elastic_active = result.metrics.elastic_active;
  sm->elastic_repartitioned = result.metrics.repartitioned;
  sm->workers_added = result.metrics.workers_added;
  sm->workers_drained = result.metrics.workers_drained;
  sm->migrated_rows = result.metrics.migrated_rows;
  sm->migration_bytes = result.metrics.migration_bytes;
  sm->sim_seconds_repartition = result.metrics.sim_seconds_repartition;
  sm->sim_seconds_migrate = result.metrics.sim_seconds_migrate;
}

/// Per-step durable state: what a restarted process (or crash recovery)
/// resumes from. Failures are logged, not fatal — a full disk must not
/// kill a streaming run.
void MaybeWriteStepCheckpoint(const DistributedOptions& options,
                              const KruskalTensor& factors,
                              const std::vector<uint64_t>& dims,
                              size_t step) {
  if (options.checkpoint_dir.empty()) return;
  StreamCheckpoint ckpt;
  ckpt.factors = factors;
  ckpt.dims = dims;
  ckpt.step = step;
  const std::string path =
      options.checkpoint_dir + "/step_" + std::to_string(step) + ".ckpt";
  const Status written = WriteStreamCheckpointFile(ckpt, path);
  if (!written.ok()) {
    DISMASTD_LOG(Warning) << "step " << step
                          << " checkpoint failed: " << written.message();
  }
}

}  // namespace

void ObserveStepHealth(const DistributedOptions& options,
                       const StreamStepMetrics& sm, bool have_fit) {
  obs::HealthMonitor* health = options.health;
  obs::Tracer* tracer = options.tracer;
  if (obs::Active(health)) {
    // The step's sim span is already closed and the tracer base advanced
    // to the step-end timestamp, so alert instants land exactly at the end
    // of the step span they describe.
    health->Observe(obs::HealthSignal::kStepSimSeconds, sm.step,
                    sm.sim_seconds_total, tracer);
    health->Observe(obs::HealthSignal::kImbalance, sm.step, sm.load_imbalance,
                    tracer);
    health->Observe(obs::HealthSignal::kRetransmittedBytes, sm.step,
                    static_cast<double>(sm.recovery.retransmitted_bytes),
                    tracer);
    if (have_fit) {
      health->Observe(obs::HealthSignal::kFitness, sm.step, sm.fit, tracer);
    }
  }
  obs::FlightRecorder* flight = options.flight;
  if (flight != nullptr) {
    obs::HealthFrame frame;
    frame.step = sm.step;
    frame.sim_seconds_total = sm.sim_seconds_total;
    frame.fit = sm.fit;
    frame.load_imbalance = sm.load_imbalance;
    frame.processed_nnz = sm.processed_nnz;
    frame.comm_bytes = sm.comm_bytes;
    frame.retransmitted_bytes = sm.recovery.retransmitted_bytes;
    frame.crashes = sm.recovery.crashes;
    frame.orphaned_messages = sm.orphaned_messages;
    frame.num_workers = sm.num_workers;
    frame.busy_seconds_max = sm.busy_seconds_max;
    frame.busy_seconds_avg = sm.busy_seconds_avg;
    if (obs::Active(health)) {
      frame.alerts_total = health->alerts_total();
      frame.SetLastAlert(health->last_alert_rule().c_str());
    }
    if (tracer != nullptr) {
      frame.sim_base_seconds = tracer->sim_base_seconds();
      frame.trace_events = tracer->event_count();
    }
    if (sm.recovery.crashes > 0) {
      flight->NoteEvent("crash_recovery", sm.step);
    }
    if (sm.orphaned_messages > 0) {
      flight->NoteEvent("orphaned_messages", sm.step);
    }
    flight->RecordFrame(frame);
  }
}

const char* MethodKindName(MethodKind kind) {
  switch (kind) {
    case MethodKind::kDisMastd:
      return "DisMASTD";
    case MethodKind::kDmsMg:
      return "DMS-MG";
  }
  return "?";
}

std::string MethodLabel(MethodKind method, PartitionerKind partitioner) {
  return std::string(MethodKindName(method)) + "-" +
         PartitionerKindName(partitioner);
}

Result<MethodKind> ParseMethodKind(const std::string& text) {
  const std::string token = AsciiLower(text);
  if (token == "dismastd") return MethodKind::kDisMastd;
  if (token == "dmsmg" || token == "dms-mg") return MethodKind::kDmsMg;
  return Status::InvalidArgument("unknown method '" + text +
                                 "' (expected dismastd or dmsmg)");
}

Result<PartitionerKind> ParsePartitionerKind(const std::string& text) {
  const std::string token = AsciiLower(text);
  if (token == "gtp" || token == "greedy") return PartitionerKind::kGreedy;
  if (token == "mtp" || token == "maxmin" || token == "max-min") {
    return PartitionerKind::kMaxMin;
  }
  return Status::InvalidArgument("unknown partitioner '" + text +
                                 "' (expected mtp or gtp)");
}

StreamStepMetrics RunDisMastdDeltaStep(const SparseTensor& delta,
                                       const std::vector<uint64_t>& old_dims,
                                       const std::vector<uint64_t>& new_dims,
                                       KruskalTensor* factors, size_t step,
                                       const DistributedOptions& options) {
  obs::Tracer* tracer = options.tracer;
  // Wall-clock span of the step's decompose+checkpoint; the sim-clock step
  // span is closed below once the step's simulated total is known.
  obs::ScopedWallSpan step_wall(tracer, "stream_step", "stream", "driver");
  if (obs::Active(tracer)) {
    tracer->BeginSim(obs::Tracer::kDriverLane,
                     ("step " + std::to_string(step)).c_str(), "stream", 0.0,
                     {{"step", std::to_string(step)}});
  }
  StreamStepMetrics sm;
  sm.step = step;
  sm.dims = new_dims;
  sm.processed_nnz = delta.nnz();

  // Give every step's initialization its own seed (the paper's protocol);
  // stream_step also selects the fault injector's RNG stream and arms the
  // plan's crash when this is its target step.
  DistributedOptions step_options = options;
  step_options.als.seed = options.als.seed + step * 7919;
  step_options.stream_step = step;

  const DistributedResult result =
      DisMastdDecompose(delta, old_dims, *factors, step_options);
  *factors = result.als.factors;
  FillStepMetrics(result, &sm);
  if (obs::Active(tracer)) {
    // Close the step's sim span at its simulated total, then advance the
    // timeline base so the next step's run-local clock (which restarts
    // at zero) lays out after this one.
    tracer->EndSim(obs::Tracer::kDriverLane, result.metrics.sim_seconds_total);
    tracer->AdvanceSimBase(result.metrics.sim_seconds_total);
  }
  MaybeWriteStepCheckpoint(options, *factors, new_dims, step);
  return sm;
}

std::vector<StreamStepMetrics> RunStreamingExperiment(
    const StreamingTensorSequence& stream, MethodKind method,
    const DistributedOptions& options, bool compute_fit,
    const StreamStepObserver& observer) {
  DISMASTD_CHECK_OK(options.Validate());
  std::vector<StreamStepMetrics> metrics;
  metrics.reserve(stream.num_steps());

  obs::Tracer* tracer = options.tracer;
  if (obs::Active(tracer)) tracer->RegisterWallLane("driver");

  // DMS-MG re-decomposes every snapshot from scratch; the engine runs it
  // with no previous snapshot (all-zero old dims, empty factors), so
  // elastic coordination — a persistent partition and chained state to
  // migrate — has nothing to act on.
  const bool dms_mg = method == MethodKind::kDmsMg;
  DISMASTD_CHECK(!dms_mg || options.elastic == nullptr);
  KruskalTensor prev_factors;
  std::vector<uint64_t> prev_dims(stream.full().order(), 0);

  for (size_t step = 0; step < stream.num_steps(); ++step) {
    const SparseTensor input =
        dms_mg ? stream.SnapshotAt(step) : stream.DeltaAt(step);
    if (dms_mg) prev_factors = KruskalTensor();
    StreamStepMetrics sm = RunDisMastdDeltaStep(
        input, prev_dims, stream.DimsAt(step), &prev_factors, step, options);
    if (!dms_mg) prev_dims = stream.DimsAt(step);
    sm.snapshot_nnz = stream.SnapshotNnz(step);
    if (compute_fit) {
      sm.fit = dms_mg ? prev_factors.Fit(input)
                      : prev_factors.Fit(stream.SnapshotAt(step));
    }
    ObserveStepHealth(options, sm, compute_fit);
    if (observer) observer(sm, prev_factors);
    metrics.push_back(std::move(sm));
  }
  return metrics;
}

}  // namespace dismastd
