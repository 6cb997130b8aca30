#ifndef DISMASTD_PARTITION_FACTOR_ASSIGN_H_
#define DISMASTD_PARTITION_FACTOR_ASSIGN_H_

#include <cstdint>
#include <vector>

#include "partition/partition.h"
#include "tensor/coo_tensor.h"

namespace dismastd {

/// Per-partition data for updating one mode (§IV-A3, Fig. 4): every part's
/// non-zeros grouped by output row (a CSR-like row-run layout, after
/// SPLATT's CSF), plus the remote factor rows the parts must fetch.
///
/// Parts are stored one after another. Part q owns the row runs
/// [part_runs[q], part_runs[q + 1]); run j holds the entries [run_begin[j],
/// run_begin[j + 1]) of output row run_rows[j] (a mode-`mode` index). Rows
/// ascend within a part, and entries keep the input tensor's order within
/// a row, so each output row's MTTKRP contributions come in the same order
/// as over the input tensor.
struct ModePartitionData {
  size_t mode = 0;
  /// Indices stored per entry: the tensor order minus one.
  size_t others = 0;
  /// part_runs[q] is the first run of part q; num_parts + 1 entries.
  std::vector<uint32_t> part_runs;
  /// Output row of every run.
  std::vector<uint32_t> run_rows;
  /// First entry of every run, plus the entry count at the end.
  std::vector<uint32_t> run_begin;
  /// indices[e * others + t]: entry e's index in the t-th mode other than
  /// `mode`, modes in ascending order.
  std::vector<uint32_t> indices;
  std::vector<double> values;
  /// fetch_rows[src * num_workers + dst]: factor rows of the modes other
  /// than `mode` that worker dst must pull from worker src (src != dst)
  /// before updating this mode. Parts map to workers round-robin (part q ->
  /// worker q % num_workers), and each part counts each distinct row it
  /// reads once, so two parts of one worker count a shared row twice.
  std::vector<uint64_t> fetch_rows;

  uint32_t num_parts() const {
    return static_cast<uint32_t>(part_runs.size() - 1);
  }
  /// Non-zeros of part q.
  uint64_t PartNnz(uint32_t q) const {
    return run_begin[part_runs[q + 1]] - run_begin[part_runs[q]];
  }
};

/// Builds the mode-`mode` partition data of `tensor` in one counting-sort
/// scatter pass over the non-zeros, which also counts the fetch plan with a
/// per-row mark of the parts that read the row. `slice_nnz` must be
/// tensor.SliceNnzCounts(mode). Every index is stored as u32: a mode with
/// 2^32 or more slices, or 2^32 - 1 or more non-zeros, fails a
/// DISMASTD_CHECK that names the limit.
ModePartitionData BuildModePartitionData(const SparseTensor& tensor,
                                         const TensorPartitioning& partitioning,
                                         size_t mode,
                                         const std::vector<uint64_t>& slice_nnz,
                                         uint32_t num_workers);

/// Serialized size of shipping `row_count` factor rows of rank R:
/// one u64 index plus R doubles per row.
uint64_t RowTransferBytes(uint64_t row_count, size_t rank);

}  // namespace dismastd

#endif  // DISMASTD_PARTITION_FACTOR_ASSIGN_H_
