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

TEST(FactorAssignTest, PartTensorsPartitionTheNnz) {
  const SparseTensor t = MakeTensor();
  const TensorPartitioning tp =
      PartitionTensor(PartitionerKind::kMaxMin, t, 3);
  for (size_t mode = 0; mode < t.order(); ++mode) {
    const ModePartitionData data = BuildModePartitionData(t, tp, mode);
    ASSERT_EQ(data.part_tensors.size(), 3u);
    size_t total = 0;
    for (const SparseTensor& part : data.part_tensors) total += part.nnz();
    EXPECT_EQ(total, t.nnz());
    // Each partition's entries belong to slices mapped to that partition.
    for (uint32_t q = 0; q < 3; ++q) {
      const SparseTensor& part = data.part_tensors[q];
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
  const ModePartitionData data = BuildModePartitionData(t, tp, 0);
  for (uint32_t q = 0; q < 4; ++q) {
    EXPECT_EQ(data.part_tensors[q].nnz(), tp.modes[0].part_nnz[q]);
  }
}

TEST(FactorAssignTest, NeededRowsAreExactAccessSets) {
  const SparseTensor t = MakeTensor();
  const TensorPartitioning tp =
      PartitionTensor(PartitionerKind::kMaxMin, t, 2);
  const size_t mode = 1;
  const ModePartitionData data = BuildModePartitionData(t, tp, mode);
  for (uint32_t q = 0; q < 2; ++q) {
    // Own mode has no access set.
    EXPECT_TRUE(data.needed_rows[q][mode].empty());
    for (size_t k = 0; k < t.order(); ++k) {
      if (k == mode) continue;
      const auto& rows = data.needed_rows[q][k];
      // Sorted and unique.
      for (size_t i = 1; i < rows.size(); ++i) {
        EXPECT_LT(rows[i - 1], rows[i]);
      }
      // Every non-zero's k-index is present.
      const SparseTensor& part = data.part_tensors[q];
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

void ExpectMatchesReference(const SparseTensor& t,
                            const TensorPartitioning& tp) {
  for (size_t mode = 0; mode < t.order(); ++mode) {
    const ModePartitionData data = BuildModePartitionData(t, tp, mode);
    const ModePartition& mp = tp.modes[mode];
    ASSERT_EQ(data.part_tensors.size(), mp.num_parts);
    for (uint32_t q = 0; q < mp.num_parts; ++q) {
      EXPECT_TRUE(data.part_tensors[q] == RowGroupedPart(t, mp, mode, q))
          << "mode " << mode << " part " << q;
      for (size_t k = 0; k < t.order(); ++k) {
        const std::vector<uint64_t> want =
            k == mode ? std::vector<uint64_t>{}
                      : SortUniqueRows(t, mp, mode, q, k);
        EXPECT_EQ(data.needed_rows[q][k], want)
            << "mode " << mode << " part " << q << " factor " << k;
      }
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
  const ModePartitionData data = BuildModePartitionData(t, tp, 0);
  const SparseTensor& part = data.part_tensors[0];
  ASSERT_EQ(part.nnz(), 5u);
  const double want[] = {2.0, 4.0, 1.0, 3.0, 5.0};
  for (size_t e = 0; e < 5; ++e) EXPECT_EQ(part.Value(e), want[e]);
  EXPECT_EQ(data.needed_rows[0][1], (std::vector<uint64_t>{0, 1, 2, 3, 4}));
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
  const ModePartitionData data = BuildModePartitionData(t, tp, 0);
  for (const SparseTensor& part : data.part_tensors) {
    EXPECT_EQ(part.nnz(), 0u);
  }
}

}  // namespace
}  // namespace dismastd
