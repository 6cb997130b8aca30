#include "core/dismastd.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/timer.h"
#include "core/dtd.h"
#include "dist/cluster.h"
#include "dist/execution.h"
#include "kernels/kernels.h"
#include "la/ops.h"
#include "la/solve.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/factor_assign.h"
#include "tensor/mttkrp.h"

namespace dismastd {

double DistributedRunMetrics::MeanIterationSeconds() const {
  if (sim_seconds_per_iteration.empty()) return 0.0;
  double sum = 0.0;
  for (double s : sim_seconds_per_iteration) sum += s;
  return sum / static_cast<double>(sim_seconds_per_iteration.size());
}

Status DistributedOptions::Validate() const {
  DISMASTD_RETURN_IF_ERROR(als.Validate());
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  DISMASTD_RETURN_IF_ERROR(cost_model.Validate());
  DISMASTD_RETURN_IF_ERROR(fault_plan.Validate());
  return Status::OK();
}

namespace {

/// Bytes of one COO entry on the wire: `order` u64 indices + 1 double.
uint64_t EntryBytes(size_t order) {
  return order * sizeof(uint64_t) + sizeof(double);
}

/// Rows of each partition (factor-row ownership induced by the tensor
/// partition, §IV-A3).
std::vector<std::vector<uint64_t>> RowsOfParts(const ModePartition& partition) {
  std::vector<std::vector<uint64_t>> rows(partition.num_parts);
  for (uint64_t i = 0; i < partition.slice_to_part.size(); ++i) {
    rows[partition.slice_to_part[i]].push_back(i);
  }
  return rows;
}

/// Number of leading entries of the ascending `rows` below `old_rows`:
/// the rows that existed in the previous snapshot.
size_t OldRowCount(const std::vector<uint64_t>& rows, size_t old_rows) {
  return static_cast<size_t>(
      std::lower_bound(rows.begin(), rows.end(),
                       static_cast<uint64_t>(old_rows)) -
      rows.begin());
}

/// Everything the phases of one DisMASTD step share (§IV): the inputs, the
/// simulated cluster with its executor and fault injector, the step's
/// partitioning and per-part data, the factors with their replicated R x R
/// products, and the result under construction. Members are initialized in
/// declaration order, which is the order the step needs them in.
struct StepContext {
  StepContext(const SparseTensor& delta_in,
              const std::vector<uint64_t>& old_dims_in,
              const KruskalTensor& prev_in, const DistributedOptions& opts)
      : delta(delta_in),
        old_dims(old_dims_in),
        prev(prev_in),
        options(opts),
        kern(kernels::Get()),
        order(delta.order()),
        rank(opts.als.rank),
        has_prev(std::any_of(old_dims.begin(), old_dims.end(),
                             [](uint64_t d) { return d > 0; })),
        elastic(opts.elastic),
        eplan(elastic != nullptr ? elastic->BeginStep(delta, opts.stream_step)
                                 : ElasticStepPlan()),
        workers(elastic != nullptr ? eplan.num_workers : opts.num_workers),
        parts(elastic != nullptr ? elastic->num_parts()
              : opts.parts_per_mode == 0 ? workers
                                         : opts.parts_per_mode),
        cluster(elastic != nullptr ? eplan.workers_before : workers,
                opts.cost_model),
        exec(workers, opts.execution),
        injector(opts.fault_plan, opts.stream_step),
        tracer(opts.tracer),
        trace_phases(obs::Active(tracer) &&
                     tracer->detail() >= obs::TraceDetail::kPhases),
        trace_steps(obs::Active(tracer)),
        mode_data(order),
        rows_of_part(order),
        g0(order),
        g1(order),
        h(order),
        partial_g0(workers, Matrix(rank, rank)),
        partial_g1(workers, Matrix(rank, rank)),
        partial_h(workers, Matrix(rank, rank)) {
    if (injector.enabled()) cluster.AttachFaultInjector(&injector);
    // Sim-clock spans land on the tracer's driver lane (this thread); the
    // registry's histogram pointer is stable, so the network records
    // message sizes into it lock-free.
    if (obs::Active(tracer)) cluster.AttachTracer(tracer);
    if (options.metrics != nullptr) {
      cluster.network().AttachMessageByteHistogram(
          options.metrics->GetHistogram(
              "dismastd_comm_message_wire_bytes", {},
              "Wire size of each remote message, in bytes"));
    }
  }

  // The cluster holds the injector's address.
  StepContext(const StepContext&) = delete;
  StepContext& operator=(const StepContext&) = delete;

  /// Commits `acct` as the superstep `phase`; returns its sim-seconds.
  double CommitPhase(const SuperstepAccounting& acct, const char* phase) {
    const double before = cluster.ElapsedSimSeconds();
    cluster.CommitSuperstep(acct, phase);
    return cluster.ElapsedSimSeconds() - before;
  }

  const SparseTensor& delta;
  const std::vector<uint64_t>& old_dims;
  const KruskalTensor& prev;
  const DistributedOptions& options;
  // Every flop on a factor row goes through this table. The blocked-8
  // contract (kernels/kernels.h) keeps fp64 results bit-exact across
  // backends; the per-worker shards keep them bit-exact across threads.
  const kernels::KernelTable& kern;
  const size_t order;
  const size_t rank;
  const bool has_prev;  // any old_dims[n] > 0
  // With an elastic coordinator attached, it decides this step's cluster
  // shape and partition before any compute: due scale events apply first,
  // then the load monitor may trigger an online repartition of the decayed
  // per-slice loads. Its inputs are simulated metrics, so the plan is
  // identical across thread counts.
  ElasticCoordinator* const elastic;
  const ElasticStepPlan eplan;
  const uint32_t workers;
  const uint32_t parts;
  // Starts at the pre-scale size: joiners receive their state over the
  // fabric and leavers hand theirs off before the drain, the boundary
  // discipline checkpoint recovery uses.
  Cluster cluster;
  WorkerExecutor exec;
  // Attached only when the plan can inject something for this streaming
  // step, so a fault-free run is byte-for-byte identical to a build without
  // the fault layer. Every injector call happens on this (driver) thread,
  // so its RNG stream is independent of the thread count.
  FaultInjector injector;
  obs::Tracer* const tracer;
  const bool trace_phases;
  const bool trace_steps;

  TensorPartitioning partitioning;
  std::vector<ModePartitionData> mode_data;
  std::vector<std::vector<std::vector<uint64_t>>> rows_of_part;
  std::vector<Matrix> factors;  // [Ã_n; random rows] (Alg. 1 lines 1-2)
  // The step's input state, kept only when a crash is armed: kCheckpoint
  // replays from it (it is what the last per-step checkpoint holds),
  // kDegraded re-draws a lost new row from it.
  std::vector<Matrix> init_factors;
  // Replicated R x R products (cached on every worker, §IV-B2/3).
  std::vector<Matrix> g0, g1, h;
  // Each worker's partials of the mode being updated, over the rows it
  // owns: accumulated by the row update in superstep A, all-to-all reduced
  // into g0/g1/h in superstep B.
  std::vector<Matrix> partial_g0, partial_g1, partial_h;
  DtdLossBase loss_base;
  DistributedResult result;
};

/// Runs fn(w, q, shard) on each worker w for every part q it owns
/// (q ≡ w mod M), in ascending q: the layout described above
/// DisMastdDecompose.
template <typename Fn>
void RunOverParts(StepContext& c, SuperstepAccounting* acct, const Fn& fn) {
  c.exec.Run(acct, [&](uint32_t w, SuperstepAccounting& shard) {
    for (uint32_t q = w; q < c.parts; q += c.workers) fn(w, q, shard);
  });
}

/// Counting pass over the non-zeros (sparse) plus the boundary assignment
/// of `slices` slices (dense index work), spread over the workers:
/// O(nnz + I) for GTP, O(nnz + I log I) for MTP (Theorem 2).
void AccountAssignWork(StepContext& c, uint64_t slices,
                       SuperstepAccounting* acct) {
  const uint64_t assign_cost =
      c.options.partitioner == PartitionerKind::kMaxMin
          ? slices * (64 - static_cast<uint64_t>(__builtin_clzll(slices | 1)))
          : slices;
  c.exec.Run(acct, [&](uint32_t w, SuperstepAccounting& shard) {
    shard.AddSparseTask(w, c.delta.nnz() / c.workers + 1,
                        assign_cost / c.workers + 1);
  });
}

/// Live migration: every factor row whose owner changed moves from its old
/// worker to its new one through the fabric — CRC-framed, retried under
/// injected faults (TransmitReliably inside SendRows), and booked as
/// migration traffic so rebalance cost stays separate from algorithm
/// traffic. Joiners additionally receive the replicated R x R Gram
/// products.
void MigratePhase(StepContext& c) {
  const ElasticStepPlan& plan = c.eplan;
  ScopedTrafficClass migration_traffic(
      c.cluster.network(), SimulatedNetwork::TrafficClass::kMigration);
  const uint64_t migration_bytes_before =
      c.cluster.network().stats().migration_bytes;
  SuperstepAccounting acct = c.cluster.NewSuperstep();
  uint64_t migrated_rows = 0;
  for (size_t n = 0; c.has_prev && n < c.order; ++n) {
    const ModePartition& prev_mp = plan.prev_partitioning.modes[n];
    const ModePartition& new_mp = c.elastic->partitioning().modes[n];
    // Only rows that exist in the previous factors can move; rows of this
    // step's new slices are initialized in place on their owner.
    const uint64_t movable =
        std::min<uint64_t>(c.old_dims[n], prev_mp.slice_to_part.size());
    std::vector<std::vector<std::vector<uint64_t>>> moved(
        plan.workers_before, std::vector<std::vector<uint64_t>>(c.workers));
    for (uint64_t i = 0; i < movable; ++i) {
      const uint32_t src = prev_mp.slice_to_part[i] % plan.workers_before;
      const uint32_t dst = new_mp.slice_to_part[i] % c.workers;
      if (src != dst) moved[src][dst].push_back(i);
    }
    for (uint32_t src = 0; src < plan.workers_before; ++src) {
      for (uint32_t dst = 0; dst < c.workers; ++dst) {
        const std::vector<uint64_t>& rows = moved[src][dst];
        if (rows.empty()) continue;
        Matrix block(rows.size(), c.rank);
        for (size_t i = 0; i < rows.size(); ++i) {
          const double* src_row =
              c.prev.factor(n).RowPtr(static_cast<size_t>(rows[i]));
          std::copy(src_row, src_row + c.rank, block.RowPtr(i));
        }
        Result<Matrix> landed = c.cluster.SendRows(src, dst, block, &acct);
        DISMASTD_CHECK_OK(landed.status());
        // The CRC frame + retransmission guarantee migration never silently
        // alters state, even under injected corruption.
        DISMASTD_CHECK(landed.value() == block);
        migrated_rows += rows.size();
      }
    }
  }
  for (uint32_t w = plan.workers_before;
       w < plan.workers_before + plan.workers_added; ++w) {
    // State handoff to each joiner: the three replicated R x R products
    // per mode (its factor rows arrived above).
    for (size_t n = 0; n < c.order; ++n) {
      for (int rep = 0; rep < 3; ++rep) {
        Result<Matrix> gram =
            c.cluster.SendRows(0, w, Matrix(c.rank, c.rank), &acct);
        DISMASTD_CHECK_OK(gram.status());
      }
    }
  }
  DistributedRunMetrics& m = c.result.metrics;
  m.sim_seconds_migrate = c.CommitPhase(acct, "migrate");
  m.migrated_rows = migrated_rows;
  m.migration_bytes =
      c.cluster.network().stats().migration_bytes - migration_bytes_before;
  ElasticTotals& totals = c.elastic->totals();
  totals.migrated_rows += migrated_rows;
  totals.migration_bytes += m.migration_bytes;
  totals.migration_sim_seconds += m.sim_seconds_migrate;
}

/// Elastic phase (before the decomposition proper): executes the
/// coordinator's step plan — scale out, repartition, migrate, scale in.
void ElasticPlanPhase(StepContext& c) {
  if (c.elastic == nullptr) return;
  const ElasticStepPlan& plan = c.eplan;
  if (plan.workers_added > 0) c.cluster.AddWorkers(plan.workers_added);
  if (plan.repartition) {
    // The online GTP/MTP recompute is its own superstep: every worker
    // re-counts its resident non-zeros and the driver's boundary
    // assignment is spread over the cluster, as in the partition phase.
    SuperstepAccounting acct = c.cluster.NewSuperstep();
    for (size_t n = 0; n < c.order; ++n) {
      AccountAssignWork(
          c, c.elastic->partitioning().modes[n].slice_to_part.size(), &acct);
    }
    c.result.metrics.sim_seconds_repartition =
        c.CommitPhase(acct, "repartition");
    c.elastic->totals().repartition_sim_seconds +=
        c.result.metrics.sim_seconds_repartition;
    if (c.has_prev || plan.workers_added > 0) MigratePhase(c);
  }
  if (plan.workers_drained > 0) {
    // The drained ranks' state moved away in the migrate superstep; the
    // drain itself is a boundary operation, like checkpoint handoff.
    DISMASTD_CHECK_OK(c.cluster.DrainWorkers(plan.workers_drained));
  }
}

/// Data partitioning (§IV-A): GTP/MTP per mode (or the coordinator's
/// persistent partition), the shipping of non-zeros and induced factor
/// rows to their owners, and the per-part row-run data with its fetch plan.
void PartitionPhase(StepContext& c) {
  SuperstepAccounting acct = c.cluster.NewSuperstep();
  const uint64_t entry_bytes = EntryBytes(c.order);
  std::vector<std::vector<uint64_t>> mode_slice_nnz(c.order);
  for (size_t n = 0; n < c.order; ++n) {
    mode_slice_nnz[n] = c.delta.SliceNnzCounts(n);
    const std::vector<uint64_t>& slice_nnz = mode_slice_nnz[n];
    ModePartition mp;
    if (c.elastic != nullptr) {
      // The coordinator's persistent (step-spanning) partition, with this
      // delta's loads filled in so balance reporting and shipping
      // accounting reflect what this step actually moves.
      mp = c.elastic->partitioning().modes[n];
      std::fill(mp.part_nnz.begin(), mp.part_nnz.end(), 0);
      for (uint64_t i = 0; i < slice_nnz.size(); ++i) {
        mp.part_nnz[mp.slice_to_part[i]] += slice_nnz[i];
      }
    } else {
      mp = PartitionMode(c.options.partitioner, slice_nnz, c.parts);
    }
    c.result.metrics.balance_per_mode.push_back(ComputeBalance(mp));
    AccountAssignWork(c, slice_nnz.size(), &acct);
    // Ship every non-zero (and the induced factor rows) to its owner
    // (Theorem 4's O(nnz) + O(NIR) communication terms). A one-worker
    // cluster keeps everything local.
    for (uint32_t q = 0; c.workers > 1 && q < c.parts; ++q) {
      const uint32_t dst = q % c.workers;
      const uint64_t tensor_bytes = mp.part_nnz[q] * entry_bytes;
      acct.AddSend((q + 1) % c.workers, tensor_bytes);
      acct.AddReceive(dst, tensor_bytes);
    }
    c.partitioning.modes.push_back(std::move(mp));
  }
  for (size_t n = 0; n < c.order; ++n) {
    c.rows_of_part[n] = RowsOfParts(c.partitioning.modes[n]);
    for (uint32_t q = 0; c.workers > 1 && q < c.parts; ++q) {
      const uint32_t dst = q % c.workers;
      const uint64_t row_bytes =
          RowTransferBytes(c.rows_of_part[n][q].size(), c.rank);
      acct.AddSend((q + 1) % c.workers, row_bytes);
      acct.AddReceive(dst, row_bytes);
    }
  }
  // The per-mode partition-data builds (the O(nnz) split into row runs plus
  // the fetch plan) are independent of each other — run them on the pool.
  c.exec.pool().ParallelFor(c.order, [&](size_t n) {
    c.mode_data[n] = BuildModePartitionData(c.delta, c.partitioning, n,
                                            mode_slice_nnz[n], c.workers);
  });
  c.result.metrics.sim_seconds_partitioning = c.CommitPhase(acct, "partition");
}

/// Builds the canonical replicated products and accounts them into `acct`:
/// each worker computes partials over its owned rows and all-to-all
/// reduces the three R x R products per mode. Runs once after partitioning
/// and again after a crash recovery.
void AccountProducts(StepContext& c, SuperstepAccounting& acct) {
  c.exec.pool().ParallelFor(c.order, [&](size_t n) {
    const size_t old_rows = static_cast<size_t>(c.old_dims[n]);
    const Matrix& a = c.factors[n];
    c.g0[n] = TransposeTimesRows(a, a, 0, old_rows);
    c.g1[n] = TransposeTimesRows(a, a, old_rows, a.rows());
    c.h[n] = old_rows > 0 ? TransposeTimesRows(c.prev.factor(n), a, 0, old_rows)
                          : Matrix(c.rank, c.rank);
  });
  for (size_t n = 0; n < c.order; ++n) {
    std::vector<Matrix> partial_stub(c.workers, Matrix(c.rank, c.rank));
    // Account the reduction traffic for the three products per mode.
    for (int rep = 0; rep < 3; ++rep) {
      (void)c.cluster.AllToAllReduceMatrix(partial_stub, &acct);
    }
    RunOverParts(c, &acct, [&](uint32_t w, uint32_t q, auto& shard) {
      shard.AddTask(w, c.rows_of_part[n][q].size() * 3 * c.rank * c.rank);
    });
  }
}

/// The Cholesky factor update_rows solves against: null for the zero-update
/// fallback.
const double* SolveLower(const FactoredNormalEquations& system) {
  return system.zero ? nullptr : system.lower.data();
}

/// Row-wise factor update (Eq. 5) of mode n on each owner partition. Each
/// worker rewrites only the factor rows its partitions own and, in the same
/// pass, accumulates its Gram partials over them for superstep B. The two
/// R x R systems (old rows: OldRowSystem, new rows: had.g01) are factored
/// once here — ridge retry and zero fallback included — and shared by
/// every partition; the replicated inputs make that identical to factoring
/// them on every worker.
void UpdateRows(StepContext& c, size_t n, const GramHadamards& had,
                const Matrix& mttkrp, SuperstepAccounting* acct) {
  const size_t old_rows = static_cast<size_t>(c.old_dims[n]);
  const size_t rank = c.rank;
  const double mu = c.options.als.mu;
  Matrix& factor = c.factors[n];
  const FactoredNormalEquations old_system =
      old_rows > 0 ? FactorNormalEquations(OldRowSystem(had, mu))
                   : FactoredNormalEquations();
  const FactoredNormalEquations new_system =
      factor.rows() > old_rows ? FactorNormalEquations(had.g01)
                               : FactoredNormalEquations();
  for (uint32_t w = 0; w < c.workers; ++w) {
    c.partial_g0[w].Fill(0.0);
    c.partial_g1[w].Fill(0.0);
    c.partial_h[w].Fill(0.0);
  }
  RunOverParts(c, acct, [&](uint32_t w, uint32_t q, auto& shard) {
    const auto& rows = c.rows_of_part[n][q];
    if (rows.empty()) return;
    // rows ascend, so the old rows (< old_rows) are a prefix:
    // μ Ã[r,:]·had_h + Â[r,:] over OldRowSystem, then Â[r,:] over had.g01.
    const size_t split = OldRowCount(rows, old_rows);
    if (split > 0) {
      c.kern.update_rows(rows.data(), split, rank, c.prev.factor(n).data(),
                         had.h.data(), mu, mttkrp.data(),
                         SolveLower(old_system), factor.data(),
                         c.partial_g0[w].data(), c.partial_h[w].data());
    }
    c.kern.update_rows(rows.data() + split, rows.size() - split, rank,
                       nullptr, nullptr, 0.0, mttkrp.data(),
                       SolveLower(new_system), factor.data(),
                       c.partial_g1[w].data(), nullptr);
    shard.AddTask(w, rows.size() * 4 * rank * rank + rank * rank * rank);
  });
}

/// Superstep A of mode n: fetch the remote factor rows, the row-wise
/// MTTKRP (Eq. 6) and the row update. Returns the MTTKRP (the loss reuses
/// the last mode's).
Matrix MttkrpUpdatePhase(StepContext& c, size_t n) {
  // Hadamard accumulations over k != n, replicated on every worker.
  const GramHadamards had = HadamardOverModes(c.g0, c.g1, c.h, n);
  SuperstepAccounting acct = c.cluster.NewSuperstep();
  const ModePartitionData& data = c.mode_data[n];
  for (uint32_t src = 0; src < c.workers; ++src) {
    for (uint32_t dst = 0; dst < c.workers; ++dst) {
      const uint64_t rows =
          data.fetch_rows[static_cast<size_t>(src) * c.workers + dst];
      if (rows == 0) continue;
      const uint64_t bytes = RowTransferBytes(rows, c.rank);
      acct.AddSend(src, bytes);
      acct.AddReceive(dst, bytes);
    }
  }

  Matrix mttkrp(c.factors[n].rows(), c.rank);
  std::vector<const double*> factor_data(c.order);
  for (size_t k = 0; k < c.order; ++k) factor_data[k] = c.factors[k].data();
  // Partition q's slices are disjoint from every other partition's, so
  // accumulating into the shared buffer is race-free and yields the same
  // per-row contraction order as the centralized pass.
  RunOverParts(c, &acct, [&](uint32_t w, uint32_t q, auto& shard) {
    const uint32_t run0 = data.part_runs[q];
    c.kern.mttkrp_rows(data.run_rows.data() + run0,
                       data.run_begin.data() + run0,
                       data.part_runs[q + 1] - run0, data.indices.data(),
                       data.values.data(), c.order, n, factor_data.data(),
                       c.rank, mttkrp.data());
    const uint64_t part_nnz = data.PartNnz(q);
    shard.AddSparseTask(w, part_nnz, MttkrpFlops(part_nnz, c.order, c.rank));
  });
  UpdateRows(c, n, had, mttkrp, &acct);
  c.result.metrics.sim_seconds_mttkrp_update +=
      c.CommitPhase(acct, "mttkrp_update");
  return mttkrp;
}

/// Superstep B of mode n: all-to-all reduction of its Gram products. The
/// row update of superstep A already accumulated each worker's partials
/// over its owned rows; this superstep is charged for that work.
void GramReducePhase(StepContext& c, size_t n) {
  const size_t old_rows = static_cast<size_t>(c.old_dims[n]);
  const size_t rank = c.rank;
  SuperstepAccounting acct = c.cluster.NewSuperstep();
  RunOverParts(c, &acct, [&](uint32_t w, uint32_t q, auto& shard) {
    const auto& rows = c.rows_of_part[n][q];
    const size_t split = OldRowCount(rows, old_rows);
    shard.AddTask(w, (2 * split + (rows.size() - split)) * rank * rank);
  });
  c.g0[n] = c.cluster.AllToAllReduceMatrix(c.partial_g0, &acct);
  c.g1[n] = c.cluster.AllToAllReduceMatrix(c.partial_g1, &acct);
  c.h[n] = c.cluster.AllToAllReduceMatrix(c.partial_h, &acct);
  c.result.metrics.sim_seconds_gram_reduce +=
      c.CommitPhase(acct, "gram_reduce");
}

/// Loss superstep (§IV-B4): the Grams plus the last mode's cached MTTKRP
/// give the loss without another pass over the tensor.
double LossPhase(StepContext& c, const Matrix& mttkrp_last) {
  SuperstepAccounting acct = c.cluster.NewSuperstep();
  // Partial inner products over the last mode's owned rows, reduced.
  const size_t last = c.order - 1;
  std::vector<double> partial_inner(c.workers, 0.0);
  RunOverParts(c, &acct, [&](uint32_t w, uint32_t q, auto& shard) {
    double local = 0.0;
    for (uint64_t row : c.rows_of_part[last][q]) {
      const size_t r = static_cast<size_t>(row);
      local += c.kern.dot_strided(mttkrp_last.RowPtr(r), 1,
                                  c.factors[last].RowPtr(r), 1, c.rank);
    }
    partial_inner[w] += local;
    shard.AddTask(w, c.rows_of_part[last][q].size() * c.rank);
  });
  double inner = c.cluster.AllToAllReduceScalar(partial_inner, &acct);
  if (!c.options.als.reuse_intermediates) {
    // Ablation: recompute the inner product by streaming the tensor again
    // (extra O(nnz·N·R) work and an extra reduction round).
    inner = KruskalTensor(c.factors).InnerWithSparse(c.delta);
    RunOverParts(c, &acct, [&](uint32_t w, uint32_t q, auto& shard) {
      const uint64_t part_nnz = c.mode_data[last].PartNnz(q);
      shard.AddSparseTask(w, part_nnz,
                          MttkrpFlops(part_nnz, c.order, c.rank));
    });
    (void)c.cluster.AllToAllReduceScalar(partial_inner, &acct);
  }
  c.result.metrics.sim_seconds_loss += c.CommitPhase(acct, "loss");
  return DtdLoss(c.loss_base, HadamardOverModes(c.g0, c.g1, c.h, c.order),
                 inner, c.options.als.mu);
}

/// One ALS sweep (§IV-B): every mode's update and Gram reduction, then the
/// loss. Returns the sweep's loss.
double Sweep(StepContext& c) {
  Matrix mttkrp_last;
  for (size_t n = 0; n < c.order; ++n) {
    if (c.trace_phases) {
      c.tracer->BeginSim(obs::Tracer::kDriverLane,
                         ("mode " + std::to_string(n)).c_str(), "mode",
                         c.cluster.ElapsedSimSeconds());
    }
    Matrix mttkrp = MttkrpUpdatePhase(c, n);
    GramReducePhase(c, n);
    if (c.trace_phases) {
      c.tracer->EndSim(obs::Tracer::kDriverLane,
                       c.cluster.ElapsedSimSeconds());
    }
    if (n + 1 == c.order) mttkrp_last = std::move(mttkrp);
  }
  return LossPhase(c, mttkrp_last);
}

/// Crash recovery, at the BSP barrier where a real driver notices the
/// missing heartbeat. Lost state is exactly the crashed worker's factor
/// shard — everything else is replicated or rebuilt from the partitioned
/// tensor, which is re-read from stable storage like an RDD/lineage
/// re-materialization. Returns true when the sweeps so far are discarded
/// and must replay from the step's input state (kCheckpoint).
bool RecoverCrash(StepContext& c, double sim_sweeps_start) {
  const uint32_t crashed = c.options.fault_plan.crash_worker % c.workers;
  DISMASTD_LOG(Warning) << "worker " << crashed << " crashed at superstep "
                        << c.cluster.committed_supersteps() << " (stream step "
                        << c.options.stream_step << "); recovering via "
                        << RecoveryModeName(c.options.recovery);
  RecoveryMetrics& rm = c.injector.metrics();
  SuperstepAccounting acct = c.cluster.NewSuperstep();
  const bool replay = c.options.recovery == RecoveryMode::kCheckpoint;
  if (replay) {
    ++rm.checkpoint_recoveries;
    // The pre-crash sweeps are discarded work: they stay on the clock (they
    // happened) and are attributed to recovery here.
    rm.recovery_sim_seconds += c.cluster.ElapsedSimSeconds() - sim_sweeps_start;
    // Every worker reloads its factor shard from the last per-step
    // checkpoint — the step's input state — and the sweeps replay
    // bit-exactly: the CRC frame plus retransmission guarantees message
    // faults never silently alter data.
    c.factors = c.init_factors;
    for (uint32_t w = 0; w < c.workers; ++w) {
      uint64_t shard_rows = 0;
      for (size_t n = 0; n < c.order; ++n) {
        for (uint32_t q = w; q < c.parts; q += c.workers) {
          shard_rows += c.rows_of_part[n][q].size();
        }
      }
      acct.AddReceive(w, RowTransferBytes(shard_rows, c.rank));
    }
    c.result.als.loss_history.clear();
    c.result.als.iterations = 0;
    c.result.metrics.sim_seconds_per_iteration.clear();
  } else {
    ++rm.degraded_recoveries;
    // Degraded continuation: only the crashed worker's shard is rebuilt.
    // Old-range rows come from the previous snapshot's Kruskal
    // approximation (Eq. 2); new rows are re-drawn from the deterministic
    // initialization. The surviving workers' progress is kept, so the run
    // continues instead of replaying.
    uint64_t lost_rows = 0;
    for (size_t n = 0; n < c.order; ++n) {
      for (uint32_t q = crashed; q < c.parts; q += c.workers) {
        for (uint64_t row : c.rows_of_part[n][q]) {
          const size_t r = static_cast<size_t>(row);
          const bool old = r < c.old_dims[n];
          const Matrix& source = old ? c.prev.factor(n) : c.init_factors[n];
          std::copy(source.RowPtr(r), source.RowPtr(r) + c.rank,
                    c.factors[n].RowPtr(r));
          ++(old ? rm.rows_rebuilt_from_prev : rm.rows_reinitialized);
          ++lost_rows;
        }
      }
    }
    // The replacement worker pulls its rebuilt shard over the wire.
    acct.AddReceive(crashed, RowTransferBytes(lost_rows, c.rank));
  }
  // Either way the replicated products are stale — rebuild them in one
  // accounted recovery superstep before the next sweep.
  AccountProducts(c, acct);
  rm.recovery_sim_seconds += c.CommitPhase(acct, "recovery");
  return replay;
}

/// The ALS sweeps, until the loss converges or max_iterations. The crash
/// schedule is checked after every sweep (the plan fires at most once per
/// run). Returns false when a checkpoint recovery discarded the sweeps and
/// they must run again from the step's input state.
bool RunSweeps(StepContext& c, double sim_sweeps_start) {
  double sim_before = c.cluster.ElapsedSimSeconds();
  double prev_loss = -1.0;
  for (size_t iter = 0; iter < c.options.als.max_iterations; ++iter) {
    if (c.trace_steps) {
      c.tracer->BeginSim(obs::Tracer::kDriverLane,
                         ("iter " + std::to_string(iter)).c_str(),
                         "iteration", c.cluster.ElapsedSimSeconds());
    }
    const double loss = Sweep(c);
    c.result.als.loss_history.push_back(loss);
    ++c.result.als.iterations;
    const double sim_now = c.cluster.ElapsedSimSeconds();
    c.result.metrics.sim_seconds_per_iteration.push_back(sim_now - sim_before);
    sim_before = sim_now;
    if (c.trace_steps) c.tracer->EndSim(obs::Tracer::kDriverLane, sim_now);

    if (c.injector.CrashPending(c.cluster.committed_supersteps())) {
      if (RecoverCrash(c, sim_sweeps_start)) return false;
      sim_before = c.cluster.ElapsedSimSeconds();
      prev_loss = -1.0;  // the loss will jump; don't spuriously converge
      continue;
    }
    if (LossConverged(prev_loss, loss, c.options.als.tolerance)) break;
    prev_loss = loss;
  }
  return true;
}

/// Adds the run's totals into the attached metric registry under the
/// `dismastd_<subsystem>_*` names.
void PublishRunMetrics(StepContext& c, obs::MetricRegistry* reg) {
  const DistributedRunMetrics& m = c.result.metrics;
  c.cluster.network().stats().PublishTo(reg);
  m.recovery.PublishTo(reg);
  const auto phase_gauge = [&](const char* phase, double seconds) {
    reg->GetGauge("dismastd_core_sim_seconds", {{"phase", phase}},
                  "Simulated seconds spent per phase, accumulated over "
                  "the registry's lifetime")
        ->Add(seconds);
  };
  phase_gauge("total", m.sim_seconds_total);
  phase_gauge("partition", m.sim_seconds_partitioning);
  phase_gauge("mttkrp_update", m.sim_seconds_mttkrp_update);
  phase_gauge("gram_reduce", m.sim_seconds_gram_reduce);
  phase_gauge("loss", m.sim_seconds_loss);
  phase_gauge("repartition", m.sim_seconds_repartition);
  phase_gauge("migrate", m.sim_seconds_migrate);
  for (size_t n = 0; n < m.balance_per_mode.size(); ++n) {
    PublishBalanceTo(m.balance_per_mode[n], n, reg);
  }
  if (c.elastic != nullptr) c.elastic->PublishTo(reg);
  reg->GetCounter("dismastd_core_flops_total", {},
                  "Counted floating-point work across all workers")
      ->Add(m.total_flops);
  reg->GetCounter("dismastd_core_supersteps_total", {},
                  "Committed BSP supersteps")
      ->Add(c.cluster.committed_supersteps());
  c.cluster.network().AttachMessageByteHistogram(nullptr);
}

/// Fills the run's totals from the cluster, closes the elastic feedback
/// loop and publishes to the registry.
void ExportMetrics(StepContext& c) {
  DistributedRunMetrics& m = c.result.metrics;
  m.sim_seconds_total = c.cluster.ElapsedSimSeconds();
  m.comm_messages = c.cluster.total_comm_messages();
  m.comm_payload_bytes = c.cluster.total_comm_bytes();
  m.total_flops = c.cluster.total_flops();
  m.recovery = c.injector.metrics();
  m.orphaned_messages = c.cluster.network().stats().orphan_events;
  m.leaked_messages = c.cluster.network().stats().orphan_messages;
  m.num_workers = c.workers;
  m.worker_busy_seconds = c.cluster.per_worker_busy_seconds();
  double busy_sum = 0.0;
  for (double b : m.worker_busy_seconds) {
    m.busy_seconds_max = std::max(m.busy_seconds_max, b);
    busy_sum += b;
  }
  if (!m.worker_busy_seconds.empty()) {
    m.busy_seconds_avg =
        busy_sum / static_cast<double>(m.worker_busy_seconds.size());
  }
  m.load_imbalance =
      m.busy_seconds_avg > 0.0 ? m.busy_seconds_max / m.busy_seconds_avg : 1.0;
  if (c.elastic != nullptr) {
    m.elastic_active = true;
    m.repartitioned = c.eplan.repartition;
    m.workers_added = c.eplan.workers_added;
    m.workers_drained = c.eplan.workers_drained;
    // Close the feedback loop: the monitor folds this step's realized
    // load imbalance into the rolling signal the next step consults.
    c.elastic->EndStep(m.load_imbalance);
  }
  if (c.options.metrics != nullptr) PublishRunMetrics(c, c.options.metrics);
}

}  // namespace

// Parallel execution layout: every per-worker compute step runs through
// WorkerExecutor::Run with worker w handling its partitions (q ≡ w mod M)
// in ascending q order — exactly the per-worker sub-sequence of a
// sequential q-loop. Each worker writes only state it owns (its
// factor/MTTKRP rows, its partial matrices, its accounting shard), so the
// parallel schedule is race-free and bit-identical to the sequential one;
// reductions and the simulated clock stay on the calling thread.
DistributedResult DisMastdDecompose(const SparseTensor& delta,
                                    const std::vector<uint64_t>& old_dims,
                                    const KruskalTensor& prev,
                                    const DistributedOptions& options) {
  obs::SpanTimer wall(options.tracer, "dismastd_decompose", "core", "driver");
  DISMASTD_CHECK_OK(options.Validate());
  DISMASTD_CHECK(old_dims.size() == delta.order());
  StepContext c(delta, old_dims, prev, options);

  ElasticPlanPhase(c);
  PartitionPhase(c);
  c.factors = InitializeDtdFactors(delta.dims(), old_dims, prev, options.als);
  if (c.injector.CrashArmed()) c.init_factors = c.factors;
  SuperstepAccounting products = c.cluster.NewSuperstep();
  AccountProducts(c, products);
  c.CommitPhase(products, "products");
  c.loss_base = MakeDtdLossBase(delta, old_dims, prev);
  const double sim_sweeps_start = c.cluster.ElapsedSimSeconds();
  while (!RunSweeps(c, sim_sweeps_start)) {
    // A checkpoint recovery reloaded the step's input state; replay.
  }

  c.result.als.factors = KruskalTensor(std::move(c.factors));
  c.result.metrics.wall_seconds = wall.Stop();
  ExportMetrics(c);
  return std::move(c.result);
}

}  // namespace dismastd
