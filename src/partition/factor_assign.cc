#include "partition/factor_assign.h"

#include <string>

namespace dismastd {
namespace {

/// The row-run layout holds every index and entry offset as u32.
Status CheckFitsU32(const SparseTensor& tensor) {
  for (size_t k = 0; k < tensor.order(); ++k) {
    if (tensor.dim(k) > UINT32_MAX) {
      return Status::OutOfRange(
          "mode " + std::to_string(k) + " has " +
          std::to_string(tensor.dim(k)) +
          " slices; partition data stores indices as u32 and needs fewer "
          "than 2^32 slices per mode");
    }
  }
  if (tensor.nnz() >= UINT32_MAX) {
    return Status::OutOfRange(
        "tensor has " + std::to_string(tensor.nnz()) +
        " non-zeros; partition data stores entry offsets as u32 and needs "
        "fewer than 2^32 - 1");
  }
  return Status::OK();
}

/// The scatter pass of BuildModePartitionData: each entry goes to the
/// next slot (cursor) of its row's run, so entries keep input order within
/// a row. The same pass counts the fetch plan: marks[t] holds one bit per
/// part for every row of the t-th other mode, set by the part's first read
/// of that row. A one-worker cluster fetches nothing, so it skips the
/// marks. kOthers is data->others, or 0 to read it at run time.
template <size_t kOthers>
void ScatterEntries(const SparseTensor& tensor,
                    const TensorPartitioning& partitioning,
                    const std::vector<uint32_t>& slice_to_part,
                    uint32_t num_workers, std::vector<uint32_t>* cursor,
                    ModePartitionData* data) {
  const size_t mode = data->mode;
  const size_t others = kOthers != 0 ? kOthers : data->others;
  const uint32_t parts = data->num_parts();
  const size_t nnz = tensor.nnz();
  data->fetch_rows.assign(static_cast<size_t>(num_workers) * num_workers, 0);
  const size_t mark_words = num_workers > 1 ? (parts + 63) / 64 : 0;
  std::vector<std::vector<uint64_t>> marks(others);
  std::vector<const uint32_t*> owner_part(others);
  for (size_t t = 0; t < others; ++t) {
    const size_t m = t < mode ? t : t + 1;
    const std::vector<uint32_t>& owners = partitioning.modes[m].slice_to_part;
    DISMASTD_CHECK(owners.size() >= tensor.dim(m));
    owner_part[t] = owners.data();
    marks[t].assign(static_cast<size_t>(tensor.dim(m)) * mark_words, 0);
  }
  std::vector<uint32_t> worker_of_part(parts);
  for (uint32_t q = 0; q < parts; ++q) worker_of_part[q] = q % num_workers;

  data->indices.resize(nnz * others);
  data->values.resize(nnz);
  for (size_t e = 0; e < nnz; ++e) {
    const uint64_t* idx = tensor.IndexTuple(e);
    const uint64_t i = idx[mode];
    const uint32_t pos = (*cursor)[i]++;
    uint32_t* out = data->indices.data() + static_cast<size_t>(pos) * others;
    for (size_t t = 0; t < others; ++t) {
      out[t] = static_cast<uint32_t>(idx[t < mode ? t : t + 1]);
    }
    data->values[pos] = tensor.Value(e);
    if (mark_words == 0) continue;
    const uint32_t q = slice_to_part[i];
    const uint32_t dst = worker_of_part[q];
    const uint64_t bit = uint64_t{1} << (q % 64);
    for (size_t t = 0; t < others; ++t) {
      uint64_t& word = marks[t][out[t] * mark_words + q / 64];
      if ((word & bit) != 0) continue;
      word |= bit;
      const uint32_t src = owner_part[t][out[t]] % num_workers;
      if (src != dst) {
        ++data->fetch_rows[static_cast<size_t>(src) * num_workers + dst];
      }
    }
  }
}

}  // namespace

ModePartitionData BuildModePartitionData(
    const SparseTensor& tensor, const TensorPartitioning& partitioning,
    size_t mode, const std::vector<uint64_t>& slice_nnz,
    uint32_t num_workers) {
  const size_t order = tensor.order();
  DISMASTD_CHECK(partitioning.order() == order);
  DISMASTD_CHECK(mode < order);
  DISMASTD_CHECK(num_workers >= 1);
  DISMASTD_CHECK_OK(CheckFitsU32(tensor));
  DISMASTD_CHECK(slice_nnz.size() == tensor.dim(mode));
  const ModePartition& mode_partition = partitioning.modes[mode];
  const uint32_t parts = mode_partition.num_parts;
  const std::vector<uint32_t>& slice_to_part = mode_partition.slice_to_part;
  const size_t slices = slice_nnz.size();
  const size_t others = order - 1;
  const size_t nnz = tensor.nnz();

  ModePartitionData data;
  data.mode = mode;
  data.others = others;

  // Counting sort keyed by (part, mode index): every non-empty slice is one
  // run, part q's runs follow each other in ascending slice order, and
  // cursor[i] is the next free entry of slice i's run.
  data.part_runs.assign(parts + 1, 0);
  std::vector<uint32_t> part_fill(parts + 1, 0);
  for (size_t i = 0; i < slices; ++i) {
    if (slice_nnz[i] == 0) continue;
    DISMASTD_CHECK(i < slice_to_part.size() && slice_to_part[i] < parts);
    ++data.part_runs[slice_to_part[i] + 1];
    part_fill[slice_to_part[i] + 1] += static_cast<uint32_t>(slice_nnz[i]);
  }
  for (uint32_t q = 0; q < parts; ++q) {
    data.part_runs[q + 1] += data.part_runs[q];
    part_fill[q + 1] += part_fill[q];
  }
  const uint32_t runs = data.part_runs[parts];
  data.run_rows.resize(runs);
  data.run_begin.resize(static_cast<size_t>(runs) + 1);
  data.run_begin[runs] = static_cast<uint32_t>(nnz);
  std::vector<uint32_t> cursor(slices);
  {
    std::vector<uint32_t> next_run(data.part_runs.begin(),
                                   data.part_runs.end() - 1);
    for (size_t i = 0; i < slices; ++i) {
      if (slice_nnz[i] == 0) continue;
      const uint32_t q = slice_to_part[i];
      const uint32_t j = next_run[q]++;
      data.run_rows[j] = static_cast<uint32_t>(i);
      data.run_begin[j] = part_fill[q];
      cursor[i] = part_fill[q];
      part_fill[q] += static_cast<uint32_t>(slice_nnz[i]);
    }
  }

  if (others == 2) {
    ScatterEntries<2>(tensor, partitioning, slice_to_part, num_workers,
                      &cursor, &data);
  } else {
    ScatterEntries<0>(tensor, partitioning, slice_to_part, num_workers,
                      &cursor, &data);
  }
  return data;
}

uint64_t RowTransferBytes(uint64_t row_count, size_t rank) {
  return row_count * (sizeof(uint64_t) + rank * sizeof(double));
}

}  // namespace dismastd
