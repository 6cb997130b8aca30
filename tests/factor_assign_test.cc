#include "partition/factor_assign.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "partition/mtp.h"

namespace dismastd {
namespace {

SparseTensor MakeTensor() {
  SparseTensor t({6, 4, 4});
  Rng rng(9);
  for (int e = 0; e < 50; ++e) {
    t.Add({rng.NextBounded(6), rng.NextBounded(4), rng.NextBounded(4)},
          rng.NextDouble());
  }
  t.Coalesce();
  return t;
}

ModePartitionData Build(const SparseTensor& t, const TensorPartitioning& tp,
                        size_t mode, uint32_t workers = 1) {
  return BuildModePartitionData(t, tp, mode, t.SliceNnzCounts(mode), workers);
}

// Part q of the row-run layout as a COO tensor over `dims`: its runs in
// order, each run's entries in order, the output row restored at `mode`.
SparseTensor PartAsTensor(const ModePartitionData& data,
                          const std::vector<uint64_t>& dims, uint32_t q) {
  SparseTensor part(dims);
  std::vector<uint64_t> tuple(dims.size());
  for (uint32_t j = data.part_runs[q]; j < data.part_runs[q + 1]; ++j) {
    for (uint32_t e = data.run_begin[j]; e < data.run_begin[j + 1]; ++e) {
      for (size_t m = 0, t = 0; m < dims.size(); ++m) {
        tuple[m] = m == data.mode ? data.run_rows[j]
                                  : data.indices[e * data.others + t++];
      }
      part.AddRaw(tuple.data(), data.values[e]);
    }
  }
  return part;
}

// The distinct factor-k rows that part q's entries read, sorted.
std::vector<uint64_t> AccessSet(const ModePartitionData& data,
                                const std::vector<uint64_t>& dims, uint32_t q,
                                size_t k) {
  const SparseTensor part = PartAsTensor(data, dims, q);
  std::vector<uint64_t> rows;
  for (size_t e = 0; e < part.nnz(); ++e) rows.push_back(part.Index(e, k));
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

TEST(FactorAssignTest, PartTensorsPartitionTheNnz) {
  const SparseTensor t = MakeTensor();
  const TensorPartitioning tp =
      PartitionTensor(PartitionerKind::kMaxMin, t, 3);
  for (size_t mode = 0; mode < t.order(); ++mode) {
    const ModePartitionData data = Build(t, tp, mode);
    ASSERT_EQ(data.num_parts(), 3u);
    size_t total = 0;
    for (uint32_t q = 0; q < 3; ++q) total += data.PartNnz(q);
    EXPECT_EQ(total, t.nnz());
    // Each partition's entries belong to slices mapped to that partition.
    for (uint32_t q = 0; q < 3; ++q) {
      const SparseTensor part = PartAsTensor(data, t.dims(), q);
      EXPECT_EQ(part.nnz(), data.PartNnz(q));
      for (size_t e = 0; e < part.nnz(); ++e) {
        EXPECT_EQ(tp.modes[mode].slice_to_part[part.Index(e, mode)], q);
      }
    }
  }
}

TEST(FactorAssignTest, PartNnzMatchesPartitionLoads) {
  const SparseTensor t = MakeTensor();
  const TensorPartitioning tp =
      PartitionTensor(PartitionerKind::kGreedy, t, 4);
  const ModePartitionData data = Build(t, tp, 0);
  for (uint32_t q = 0; q < 4; ++q) {
    EXPECT_EQ(data.PartNnz(q), tp.modes[0].part_nnz[q]);
  }
}

TEST(FactorAssignTest, NeededRowsAreExactAccessSets) {
  const SparseTensor t = MakeTensor();
  const TensorPartitioning tp =
      PartitionTensor(PartitionerKind::kMaxMin, t, 2);
  const size_t mode = 1;
  const ModePartitionData data = Build(t, tp, mode);
  ASSERT_EQ(data.others, t.order() - 1);
  for (uint32_t q = 0; q < 2; ++q) {
    // Own mode has no access set: runs are distinct output rows.
    for (uint32_t j = data.part_runs[q] + 1; j < data.part_runs[q + 1]; ++j) {
      EXPECT_LT(data.run_rows[j - 1], data.run_rows[j]);
    }
    for (size_t k = 0; k < t.order(); ++k) {
      if (k == mode) continue;
      const auto rows = AccessSet(data, t.dims(), q, k);
      // Sorted and unique.
      for (size_t i = 1; i < rows.size(); ++i) {
        EXPECT_LT(rows[i - 1], rows[i]);
      }
      // Every non-zero's k-index is present.
      const SparseTensor part = PartAsTensor(data, t.dims(), q);
      for (size_t e = 0; e < part.nnz(); ++e) {
        EXPECT_TRUE(std::binary_search(rows.begin(), rows.end(),
                                       part.Index(e, k)));
      }
    }
  }
}

// Test-local copies of the definitions the linear-time build replaces: the
// needed rows of part q in mode k are sort + unique of the k-indices of
// q's non-zeros, and part q holds its non-zeros grouped by mode-`mode`
// index, keeping the input order within each index.
std::vector<uint64_t> SortUniqueRows(const SparseTensor& t,
                                     const ModePartition& mp, size_t mode,
                                     uint32_t q, size_t k) {
  std::vector<uint64_t> rows;
  for (size_t e = 0; e < t.nnz(); ++e) {
    if (mp.slice_to_part[t.Index(e, mode)] == q) rows.push_back(t.Index(e, k));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

SparseTensor RowGroupedPart(const SparseTensor& t, const ModePartition& mp,
                            size_t mode, uint32_t q) {
  SparseTensor part(t.dims());
  for (uint64_t row = 0; row < t.dim(mode); ++row) {
    if (mp.slice_to_part[row] != q) continue;
    for (size_t e = 0; e < t.nnz(); ++e) {
      if (t.Index(e, mode) == row) part.AddRaw(t.IndexTuple(e), t.Value(e));
    }
  }
  return part;
}

// Counts how many of `rows` (indices into factor `factor_mode`) are owned
// by a different worker than `local_worker`, where row ownership follows
// the factor mode's partition and partitions map to workers round-robin
// (part q -> worker q % num_workers).
uint64_t CountRemoteRows(const std::vector<uint64_t>& rows,
                         const ModePartition& factor_partition,
                         uint32_t local_worker, uint32_t num_workers) {
  uint64_t remote = 0;
  for (uint64_t row : rows) {
    const uint32_t owner_part = factor_partition.slice_to_part[row];
    const uint32_t owner_worker = owner_part % num_workers;
    if (owner_worker != local_worker) ++remote;
  }
  return remote;
}

// The fetch plan from the sorted access sets: worker dst pulls from worker
// src every row of each of its parts' sets that src owns. The rows src owns
// are the set minus those CountRemoteRows counts remote from src.
std::vector<uint64_t> ReferenceFetchRows(const SparseTensor& t,
                                         const TensorPartitioning& tp,
                                         size_t mode, uint32_t workers) {
  const ModePartition& mp = tp.modes[mode];
  std::vector<uint64_t> plan(static_cast<size_t>(workers) * workers, 0);
  for (uint32_t q = 0; q < mp.num_parts; ++q) {
    const uint32_t dst = q % workers;
    for (size_t k = 0; k < t.order(); ++k) {
      if (k == mode) continue;
      const std::vector<uint64_t> rows = SortUniqueRows(t, mp, mode, q, k);
      uint64_t pulled = 0;
      for (uint32_t src = 0; src < workers; ++src) {
        if (src == dst) continue;
        const uint64_t owned =
            rows.size() - CountRemoteRows(rows, tp.modes[k], src, workers);
        plan[src * workers + dst] += owned;
        pulled += owned;
      }
      EXPECT_EQ(pulled, CountRemoteRows(rows, tp.modes[k], dst, workers));
    }
  }
  return plan;
}

void ExpectMatchesReference(const SparseTensor& t,
                            const TensorPartitioning& tp) {
  for (size_t mode = 0; mode < t.order(); ++mode) {
    const ModePartition& mp = tp.modes[mode];
    for (uint32_t workers : {1u, 2u, 3u, mp.num_parts}) {
      const ModePartitionData data = Build(t, tp, mode, workers);
      ASSERT_EQ(data.num_parts(), mp.num_parts);
      for (uint32_t q = 0; q < mp.num_parts; ++q) {
        EXPECT_TRUE(PartAsTensor(data, t.dims(), q) ==
                    RowGroupedPart(t, mp, mode, q))
            << "mode " << mode << " part " << q;
        for (uint32_t j = data.part_runs[q]; j < data.part_runs[q + 1]; ++j) {
          EXPECT_LT(data.run_begin[j], data.run_begin[j + 1]);
        }
        for (size_t k = 0; k < t.order(); ++k) {
          if (k == mode) continue;
          EXPECT_EQ(AccessSet(data, t.dims(), q, k),
                    SortUniqueRows(t, mp, mode, q, k))
              << "mode " << mode << " part " << q << " factor " << k;
        }
      }
      EXPECT_EQ(data.fetch_rows, ReferenceFetchRows(t, tp, mode, workers))
          << "mode " << mode << " workers " << workers;
    }
  }
}

TEST(FactorAssignTest, MatchesSortUniqueAndStableGroupingReference) {
  Rng rng(31);
  for (int trial = 0; trial < 12; ++trial) {
    // Unsorted input with repeated indices; small modes make the needed-row
    // sets dense, the 400-row mode keeps them sparse.
    const std::vector<uint64_t> dims = {3 + rng.NextBounded(20), 400,
                                        1 + rng.NextBounded(5)};
    SparseTensor t(dims);
    const size_t nnz = rng.NextBounded(300);
    for (size_t e = 0; e < nnz; ++e) {
      t.Add({rng.NextBounded(dims[0]), rng.NextBounded(dims[1]),
             rng.NextBounded(dims[2])},
            rng.NextDouble());
    }
    const uint32_t parts = 1 + static_cast<uint32_t>(rng.NextBounded(5));
    const PartitionerKind kind =
        trial % 2 == 0 ? PartitionerKind::kMaxMin : PartitionerKind::kGreedy;
    ExpectMatchesReference(t, PartitionTensor(kind, t, parts));
  }
}

TEST(FactorAssignTest, FetchPlanMarksMoreThan64Parts) {
  // 70 parts span two mark words per row; orders 2 and 4 exercise the
  // generic index layout.
  Rng rng(5);
  for (const std::vector<uint64_t>& dims :
       {std::vector<uint64_t>{90, 40}, std::vector<uint64_t>{80, 6, 30, 3}}) {
    SparseTensor t(dims);
    for (size_t e = 0; e < 600; ++e) {
      std::vector<uint64_t> index;
      for (uint64_t d : dims) index.push_back(rng.NextBounded(d));
      t.Add(index, rng.NextDouble());
    }
    ExpectMatchesReference(t, PartitionTensor(PartitionerKind::kGreedy, t, 70));
  }
}

TEST(FactorAssignTest, RowGroupsKeepDeltaOrderWithinEachRow) {
  // Three entries of row 1 arrive interleaved with row 0's, in a known
  // order; the part must list row 0's entries, then row 1's, each in
  // arrival order.
  SparseTensor t({2, 5});
  t.Add({1, 4}, 1.0);
  t.Add({0, 2}, 2.0);
  t.Add({1, 0}, 3.0);
  t.Add({0, 1}, 4.0);
  t.Add({1, 3}, 5.0);
  TensorPartitioning tp = PartitionTensor(PartitionerKind::kGreedy, t, 1);
  const ModePartitionData data = Build(t, tp, 0);
  ASSERT_EQ(data.PartNnz(0), 5u);
  EXPECT_EQ(data.run_rows, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(data.run_begin, (std::vector<uint32_t>{0, 2, 5}));
  const double want[] = {2.0, 4.0, 1.0, 3.0, 5.0};
  for (size_t e = 0; e < 5; ++e) EXPECT_EQ(data.values[e], want[e]);
  EXPECT_EQ(data.indices, (std::vector<uint32_t>{2, 1, 4, 0, 3}));
  EXPECT_EQ(AccessSet(data, t.dims(), 0, 1),
            (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(FactorAssignTest, CountRemoteRows) {
  ModePartition factor_partition;
  factor_partition.num_parts = 4;
  factor_partition.slice_to_part = {0, 1, 2, 3, 0, 1};
  factor_partition.part_nnz = {0, 0, 0, 0};
  // Two workers: parts {0,2} -> worker 0, parts {1,3} -> worker 1.
  const std::vector<uint64_t> rows = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(CountRemoteRows(rows, factor_partition, /*local_worker=*/0,
                            /*num_workers=*/2),
            3u);  // rows 1, 3, 5 live on worker 1
  EXPECT_EQ(CountRemoteRows(rows, factor_partition, 1, 2), 3u);
  // Single worker: nothing is remote.
  EXPECT_EQ(CountRemoteRows(rows, factor_partition, 0, 1), 0u);
}

TEST(FactorAssignTest, RowTransferBytes) {
  EXPECT_EQ(RowTransferBytes(0, 10), 0u);
  EXPECT_EQ(RowTransferBytes(3, 10), 3u * (8u + 80u));
}

TEST(FactorAssignTest, EmptyTensorProducesEmptyParts) {
  const SparseTensor t({4, 4});
  TensorPartitioning tp = PartitionTensor(PartitionerKind::kGreedy, t, 2);
  const ModePartitionData data = Build(t, tp, 0, 2);
  for (uint32_t q = 0; q < data.num_parts(); ++q) {
    EXPECT_EQ(data.PartNnz(q), 0u);
  }
  EXPECT_TRUE(data.run_rows.empty());
  EXPECT_EQ(data.fetch_rows, (std::vector<uint64_t>{0, 0, 0, 0}));
}

TEST(FactorAssignDeathTest, ModeWithTooManySlicesForU32FailsLoudly) {
  // The guard runs before anything is sized by the dims, so a one-part
  // stand-in partitioning and no slice counts are enough to reach it.
  TensorPartitioning tp;
  tp.modes.resize(2);
  for (ModePartition& mp : tp.modes) mp.num_parts = 1;
  const SparseTensor wide({uint64_t{1} << 32, 2});
  EXPECT_DEATH(BuildModePartitionData(wide, tp, 1, {}, 1),
               "mode 0 has 4294967296 slices");
  const SparseTensor tall({3, uint64_t{1} << 33});
  EXPECT_DEATH(BuildModePartitionData(tall, tp, 0, {}, 1),
               "mode 1 has 8589934592 slices");
}

}  // namespace
}  // namespace dismastd
