#include "partition/factor_assign.h"

#include <algorithm>

namespace dismastd {

ModePartitionData BuildModePartitionData(
    const SparseTensor& tensor, const TensorPartitioning& partitioning,
    size_t mode) {
  const size_t order = tensor.order();
  DISMASTD_CHECK(partitioning.order() == order);
  DISMASTD_CHECK(mode < order);
  DISMASTD_CHECK(tensor.nnz() < UINT32_MAX);
  const ModePartition& mode_partition = partitioning.modes[mode];
  const uint32_t parts = mode_partition.num_parts;
  const std::vector<uint32_t>& slice_to_part = mode_partition.slice_to_part;

  // Stable counting sort keyed by (part, mode index): part q's slices are
  // laid out in ascending index order, each slice's entries in input order.
  // Gather then copies each part out in that order, exactly sized.
  const std::vector<uint64_t> slice_nnz = tensor.SliceNnzCounts(mode);
  const size_t slices = slice_nnz.size();
  std::vector<uint64_t> part_begin(parts + 1, 0);
  for (size_t i = 0; i < slices; ++i) {
    if (slice_nnz[i] == 0) continue;
    DISMASTD_CHECK(i < slice_to_part.size() && slice_to_part[i] < parts);
    part_begin[slice_to_part[i] + 1] += slice_nnz[i];
  }
  for (uint32_t q = 0; q < parts; ++q) part_begin[q + 1] += part_begin[q];
  std::vector<uint64_t> slice_cursor(slices, 0);
  {
    std::vector<uint64_t> part_fill(part_begin.begin(), part_begin.end() - 1);
    for (size_t i = 0; i < slices; ++i) {
      if (slice_nnz[i] == 0) continue;
      slice_cursor[i] = part_fill[slice_to_part[i]];
      part_fill[slice_to_part[i]] += slice_nnz[i];
    }
  }
  std::vector<uint32_t> grouped(tensor.nnz());
  for (size_t e = 0; e < tensor.nnz(); ++e) {
    grouped[slice_cursor[tensor.Index(e, mode)]++] = static_cast<uint32_t>(e);
  }

  ModePartitionData data;
  data.mode = mode;
  data.part_tensors.reserve(parts);
  data.needed_rows.assign(
      parts, std::vector<std::vector<uint64_t>>(order));
  // mark[k][row] == q once part q has listed factor-k row `row`.
  std::vector<std::vector<uint32_t>> mark(order);
  for (size_t k = 0; k < order; ++k) {
    if (k != mode) mark[k].assign(static_cast<size_t>(tensor.dim(k)), parts);
  }
  for (uint32_t q = 0; q < parts; ++q) {
    data.part_tensors.push_back(tensor.Gather(
        tensor.dims(), grouped.data() + part_begin[q],
        static_cast<size_t>(part_begin[q + 1] - part_begin[q])));
    const SparseTensor& part = data.part_tensors.back();
    for (size_t e = 0; e < part.nnz(); ++e) {
      const uint64_t* idx = part.IndexTuple(e);
      for (size_t k = 0; k < order; ++k) {
        if (k == mode || mark[k][idx[k]] == q) continue;
        mark[k][idx[k]] = q;
        data.needed_rows[q][k].push_back(idx[k]);
      }
    }
    // Each set holds distinct rows only; sort it into ascending order.
    for (std::vector<uint64_t>& rows : data.needed_rows[q]) {
      std::sort(rows.begin(), rows.end());
    }
  }
  return data;
}

uint64_t CountRemoteRows(const std::vector<uint64_t>& rows,
                         const ModePartition& factor_partition,
                         uint32_t local_worker, uint32_t num_workers) {
  DISMASTD_CHECK(num_workers >= 1);
  uint64_t remote = 0;
  for (uint64_t row : rows) {
    DISMASTD_CHECK(row < factor_partition.slice_to_part.size());
    const uint32_t owner_part = factor_partition.slice_to_part[row];
    const uint32_t owner_worker = owner_part % num_workers;
    if (owner_worker != local_worker) ++remote;
  }
  return remote;
}

uint64_t RowTransferBytes(uint64_t row_count, size_t rank) {
  return row_count * (sizeof(uint64_t) + rank * sizeof(double));
}

}  // namespace dismastd
