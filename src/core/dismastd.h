#ifndef DISMASTD_CORE_DISMASTD_H_
#define DISMASTD_CORE_DISMASTD_H_

#include <cstdint>
#include <vector>

#include "core/cp_als.h"
#include "core/options.h"
#include "dist/cost_model.h"
#include "dist/elastic.h"
#include "dist/execution.h"
#include "dist/fault.h"
#include "partition/partition.h"
#include "partition/stats.h"
#include "tensor/coo_tensor.h"
#include "tensor/kruskal.h"

namespace dismastd {

namespace obs {
class FlightRecorder;
class HealthMonitor;
class MetricRegistry;
class Tracer;
}  // namespace obs

/// Configuration of a distributed decomposition run.
struct DistributedOptions {
  DecompositionOptions als;
  /// GTP or MTP (§IV-A2).
  PartitionerKind partitioner = PartitionerKind::kMaxMin;
  /// Number of worker nodes M.
  uint32_t num_workers = 8;
  /// Partitions per mode p; 0 means "same as num_workers" (the paper's
  /// empirically recommended setting, §V-B2). Fig. 6 sweeps this.
  uint32_t parts_per_mode = 0;
  /// Simulated-hardware constants.
  CostModelConfig cost_model;
  /// Shared-memory parallelism of the simulation itself (real threads
  /// executing per-worker compute). Affects wall-clock only: results and
  /// simulated metrics are bit-identical for every thread count.
  ExecutionOptions execution;
  /// Deterministic faults to inject into this run (default: none).
  FaultPlan fault_plan;
  /// How a crashed worker's lost factor rows are rebuilt.
  RecoveryMode recovery = RecoveryMode::kCheckpoint;
  /// Which streaming step this decomposition belongs to; selects the
  /// injector's RNG stream and arms the plan's crash when it matches
  /// fault_plan.crash_stream_step. The streaming driver sets this.
  uint64_t stream_step = 0;
  /// When non-empty, the streaming driver checkpoints each step's factors
  /// here (atomic write); crash recovery in kCheckpoint mode conceptually
  /// reloads from it.
  std::string checkpoint_dir;
  /// Optional span tracer (not owned, may be null). When attached and
  /// enabled, the run emits its hierarchical sim-clock spans — ALS
  /// iteration -> per-mode update -> per-superstep phase — onto the
  /// tracer's driver lane (plus per-worker busy lanes at
  /// TraceDetail::kWorkers). Null costs one branch per hook.
  obs::Tracer* tracer = nullptr;
  /// Optional metric registry (not owned, may be null). At the end of the
  /// run the comm / recovery / phase-timing totals are added into it under
  /// the `dismastd_<subsystem>_*` naming convention, and the network's
  /// per-message wire-byte histogram records into it live.
  obs::MetricRegistry* metrics = nullptr;
  /// Optional elastic-cluster coordinator (not owned, may be null). When
  /// attached, the partition persists across streaming steps under the
  /// coordinator (instead of being recomputed per delta), the run executes
  /// the coordinator's step plan — worker joins/drains and online
  /// repartitioning with factor-row + Gram-shard migration through the
  /// simulated network — and num_workers is taken from the coordinator.
  /// One coordinator must span one streaming run, driven in step order.
  ElasticCoordinator* elastic = nullptr;
  /// Optional health monitor (not owned, may be null). The streaming
  /// driver feeds it one observation per signal per step (step
  /// sim-seconds, imbalance, retransmitted bytes, fitness when computed);
  /// detectors and SLO rules turn anomalies into AlertEvents. Null or
  /// disabled costs one branch per step.
  obs::HealthMonitor* health = nullptr;
  /// Optional flight recorder (not owned, may be null). The streaming
  /// driver snapshots a compact health frame after every step; crash
  /// recovery and orphaned-message leaks are noted so a post-mortem dump
  /// (--flight-out) explains what the run was doing when it died.
  obs::FlightRecorder* flight = nullptr;

  /// Rejects invalid settings (invalid ALS options, zero workers, bad
  /// cost-model constants, inconsistent fault plan). parts_per_mode is
  /// unconstrained beyond its
  /// type: p < num_workers simply idles the excess workers, a
  /// configuration the paper's Fig. 6 sweep (p = 8 on 15 nodes) relies on.
  /// Decomposition entry points fail fast on a non-OK status.
  Status Validate() const;
};

/// Resource metrics of one distributed decomposition.
struct DistributedRunMetrics {
  /// Simulated elapsed seconds (BSP cost model) of the whole run, the
  /// data-partitioning phase, and each ALS sweep.
  double sim_seconds_total = 0.0;
  double sim_seconds_partitioning = 0.0;
  std::vector<double> sim_seconds_per_iteration;
  /// Phase breakdown of the iteration time (sums to ~the iteration total):
  /// the fetch+MTTKRP+row-update supersteps, the Gram all-to-all
  /// reductions, and the loss supersteps.
  double sim_seconds_mttkrp_update = 0.0;
  double sim_seconds_gram_reduce = 0.0;
  double sim_seconds_loss = 0.0;
  /// Network totals (real serialized/accounted payload bytes).
  uint64_t comm_messages = 0;
  uint64_t comm_payload_bytes = 0;
  /// Counted floating-point work across all workers.
  uint64_t total_flops = 0;
  /// Real wall-clock seconds of the simulation itself.
  double wall_seconds = 0.0;
  /// Load balance achieved by the tensor partitioning, per mode.
  std::vector<PartitionBalance> balance_per_mode;
  /// What the fault layer did to this run (all zero when fault-free).
  RecoveryMetrics recovery;
  /// Supersteps that committed with undelivered messages still pending
  /// (collective hygiene violations surfaced by the network).
  uint64_t orphaned_messages = 0;
  /// Total undelivered messages across those violations — sizes the leak,
  /// where orphaned_messages only counts the offending supersteps.
  uint64_t leaked_messages = 0;
  /// Workers the run actually computed on (differs from the options when
  /// an elastic coordinator scales the cluster).
  uint32_t num_workers = 0;
  /// Per-worker busy seconds across the run's supersteps (cost-model terms
  /// before the BSP max), their max and mean, and the max/avg ratio — the
  /// realized load imbalance the elastic monitor watches.
  std::vector<double> worker_busy_seconds;
  double busy_seconds_max = 0.0;
  double busy_seconds_avg = 0.0;
  double load_imbalance = 1.0;
  /// Elastic-cluster activity of this run (zeros without a coordinator).
  bool elastic_active = false;
  bool repartitioned = false;
  uint32_t workers_added = 0;
  uint32_t workers_drained = 0;
  uint64_t migrated_rows = 0;
  uint64_t migration_bytes = 0;
  double sim_seconds_repartition = 0.0;
  double sim_seconds_migrate = 0.0;

  /// Mean simulated seconds per ALS sweep (the paper's reported metric).
  double MeanIterationSeconds() const;
};

/// Result of one distributed decomposition step.
struct DistributedResult {
  AlsResult als;
  DistributedRunMetrics metrics;
};

/// DisMASTD: one multi-aspect streaming step executed on the simulated
/// cluster (§IV). Decomposes the current snapshot given the previous
/// snapshot's factors, touching only the relative complement X \ X̃:
///
///   1. Data partitioning: GTP/MTP partitions every mode of `delta`;
///      non-zeros and the induced factor rows are shipped to their owner
///      workers (accounted as communication).
///   2. Per ALS sweep and mode: row-wise distributed MTTKRP (Eq. 6) with
///      remote factor-row fetches, row-wise factor update (Eq. 3/5),
///      all-to-all reduction of the R x R Gram products (§IV-B3), and a
///      loss computed from maintained intermediates (§IV-B4).
///
/// Passing all-zero `old_dims` (and an empty `prev`) makes this a
/// distributed *static* CP-ALS that recomputes from scratch — exactly the
/// extended DMS-MG baseline of §V-B (see DmsMgDecompose in dms_mg.h).
DistributedResult DisMastdDecompose(const SparseTensor& delta,
                                    const std::vector<uint64_t>& old_dims,
                                    const KruskalTensor& prev,
                                    const DistributedOptions& options);

}  // namespace dismastd

#endif  // DISMASTD_CORE_DISMASTD_H_
