#include "stream/snapshot.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace dismastd {
namespace {

TEST(ThetaTupleTest, ClassifiesSubTensors) {
  const std::vector<uint64_t> old_dims = {2, 3, 4};
  const uint64_t inside[] = {1, 2, 3};
  EXPECT_EQ(ThetaTuple(inside, old_dims), 0u);
  const uint64_t new_mode0[] = {2, 0, 0};
  EXPECT_EQ(ThetaTuple(new_mode0, old_dims), 1u);
  const uint64_t new_mode1[] = {0, 3, 0};
  EXPECT_EQ(ThetaTuple(new_mode1, old_dims), 2u);
  const uint64_t new_mode2[] = {0, 0, 4};
  EXPECT_EQ(ThetaTuple(new_mode2, old_dims), 4u);
  const uint64_t corner[] = {5, 5, 5};
  EXPECT_EQ(ThetaTuple(corner, old_dims), 7u);
}

TEST(RelativeComplementTest, KeepsOnlyNewEntries) {
  SparseTensor t({4, 4});
  t.Add({0, 0}, 1.0);  // old block
  t.Add({3, 0}, 2.0);  // new in mode 0
  t.Add({0, 3}, 3.0);  // new in mode 1
  t.Add({3, 3}, 4.0);  // new corner
  const SparseTensor delta = RelativeComplement(t, {2, 2});
  EXPECT_EQ(delta.nnz(), 3u);
  EXPECT_EQ(delta.dims(), t.dims());
  for (size_t e = 0; e < delta.nnz(); ++e) {
    EXPECT_NE(ThetaTuple(delta.IndexTuple(e), {2, 2}), 0u);
  }
}

TEST(ThetaTupleTest, SimultaneousMultiModeGrowth) {
  // All modes grow at once (the multi-aspect case the ingest builder
  // produces when a batch extends several modes in one close): theta must
  // set exactly the bits of the modes whose index escaped the old box.
  const std::vector<uint64_t> old_dims = {3, 3, 3, 3};
  const uint64_t all_new[] = {3, 4, 5, 6};
  EXPECT_EQ(ThetaTuple(all_new, old_dims), 0b1111u);
  const uint64_t modes_0_2[] = {7, 0, 9, 2};
  EXPECT_EQ(ThetaTuple(modes_0_2, old_dims), 0b0101u);
  const uint64_t modes_1_3[] = {2, 3, 1, 3};
  EXPECT_EQ(ThetaTuple(modes_1_3, old_dims), 0b1010u);
  // Exactly on the boundary counts as new; one below does not.
  const uint64_t boundary[] = {2, 2, 2, 3};
  EXPECT_EQ(ThetaTuple(boundary, old_dims), 0b1000u);
}

TEST(RelativeComplementTest, SimultaneousMultiModeGrowthPartitions) {
  // Growing every mode at once: the complement must contain each entry
  // outside the old box exactly once, whatever combination of modes put
  // it outside — together with the old box, a partition of the snapshot.
  SparseTensor t({4, 4, 4});
  size_t outside = 0;
  for (uint64_t i = 0; i < 4; ++i) {
    for (uint64_t j = 0; j < 4; ++j) {
      for (uint64_t k = 0; k < 4; ++k) {
        t.Add({i, j, k}, static_cast<double>(1 + i * 16 + j * 4 + k));
        if (i >= 2 || j >= 2 || k >= 2) ++outside;
      }
    }
  }
  const SparseTensor delta = RelativeComplement(t, {2, 2, 2});
  EXPECT_EQ(delta.nnz(), outside);
  EXPECT_EQ(delta.nnz() + RestrictToBox(t, {2, 2, 2}).nnz(), t.nnz());
  for (size_t e = 0; e < delta.nnz(); ++e) {
    const uint64_t theta = ThetaTuple(delta.IndexTuple(e), {2, 2, 2});
    EXPECT_NE(theta, 0u);
    EXPECT_LT(theta, 8u);
  }
}

TEST(RelativeComplementTest, ZeroOldDimsKeepsEverything) {
  SparseTensor t({2, 2});
  t.Add({0, 0}, 1.0);
  t.Add({1, 1}, 2.0);
  EXPECT_EQ(RelativeComplement(t, {0, 0}).nnz(), 2u);
}

TEST(RelativeComplementTest, FullOldDimsKeepsNothing) {
  SparseTensor t({2, 2});
  t.Add({0, 0}, 1.0);
  t.Add({1, 1}, 2.0);
  EXPECT_EQ(RelativeComplement(t, {2, 2}).nnz(), 0u);
}

TEST(RestrictToBoxTest, FiltersAndShrinksDims) {
  SparseTensor t({4, 4});
  t.Add({0, 1}, 1.0);
  t.Add({3, 3}, 2.0);
  t.Add({1, 0}, 3.0);
  const SparseTensor boxed = RestrictToBox(t, {2, 2});
  EXPECT_EQ(boxed.nnz(), 2u);
  EXPECT_EQ(boxed.dims(), (std::vector<uint64_t>{2, 2}));
  EXPECT_TRUE(boxed.Validate().ok());
}

TEST(GrowthScheduleTest, PaperProtocol) {
  const auto schedule = MakeGrowthSchedule({1000, 200, 40}, 0.75, 0.05, 6);
  ASSERT_EQ(schedule.size(), 6u);
  EXPECT_EQ(schedule[0], (std::vector<uint64_t>{750, 150, 30}));
  EXPECT_EQ(schedule[5], (std::vector<uint64_t>{1000, 200, 40}));
  for (size_t t = 1; t < 6; ++t) {
    for (size_t m = 0; m < 3; ++m) {
      EXPECT_GE(schedule[t][m], schedule[t - 1][m]);
    }
  }
}

TEST(GrowthScheduleTest, ClampsAtFullAndAtOne) {
  const auto schedule = MakeGrowthSchedule({10, 1}, 0.5, 0.3, 4);
  EXPECT_EQ(schedule[3], (std::vector<uint64_t>{10, 1}));
  for (const auto& dims : schedule) {
    EXPECT_GE(dims[1], 1u);
  }
}

StreamingTensorSequence MakeSequence() {
  SparseTensor full({8, 8});
  Rng rng(55);
  for (int e = 0; e < 40; ++e) {
    full.Add({rng.NextBounded(8), rng.NextBounded(8)}, rng.NextDouble());
  }
  full.Coalesce();
  return StreamingTensorSequence(
      std::move(full), {{4, 4}, {6, 6}, {8, 8}});
}

TEST(StreamingSequenceTest, SnapshotsAreNested) {
  const StreamingTensorSequence seq = MakeSequence();
  EXPECT_EQ(seq.num_steps(), 3u);
  uint64_t prev_nnz = 0;
  for (size_t t = 0; t < 3; ++t) {
    const SparseTensor snap = seq.SnapshotAt(t);
    EXPECT_EQ(snap.dims(), seq.DimsAt(t));
    EXPECT_GE(snap.nnz(), prev_nnz);
    EXPECT_EQ(snap.nnz(), seq.SnapshotNnz(t));
    prev_nnz = snap.nnz();
  }
}

TEST(StreamingSequenceTest, DeltasPartitionTheSnapshots) {
  const StreamingTensorSequence seq = MakeSequence();
  // nnz(snapshot_t) == Σ_{s<=t} nnz(delta_s): deltas are disjoint and cover.
  uint64_t cumulative = 0;
  for (size_t t = 0; t < seq.num_steps(); ++t) {
    cumulative += seq.DeltaAt(t).nnz();
    EXPECT_EQ(cumulative, seq.SnapshotNnz(t)) << "step " << t;
  }
}

TEST(StreamingSequenceTest, DeltaEntriesAreOutsidePreviousBox) {
  const StreamingTensorSequence seq = MakeSequence();
  for (size_t t = 1; t < seq.num_steps(); ++t) {
    const SparseTensor delta = seq.DeltaAt(t);
    for (size_t e = 0; e < delta.nnz(); ++e) {
      EXPECT_NE(ThetaTuple(delta.IndexTuple(e), seq.DimsAt(t - 1)), 0u);
    }
  }
}

TEST(StreamingSequenceTest, FirstDeltaIsFirstSnapshot) {
  const StreamingTensorSequence seq = MakeSequence();
  EXPECT_TRUE(seq.DeltaAt(0) == seq.SnapshotAt(0));
}

// The arrival index must reproduce the filter-based definitions exactly:
// DeltaAt(t) is RelativeComplement(SnapshotAt(t), DimsAt(t-1)) — same dims,
// same entries, same order, same bits (operator== compares all three) — and
// SnapshotNnz(t) is SnapshotAt(t).nnz().
void ExpectIndexMatchesFilters(const StreamingTensorSequence& seq) {
  for (size_t t = 0; t < seq.num_steps(); ++t) {
    const SparseTensor snapshot = seq.SnapshotAt(t);
    const SparseTensor want =
        t == 0 ? snapshot : RelativeComplement(snapshot, seq.DimsAt(t - 1));
    EXPECT_TRUE(seq.DeltaAt(t) == want) << "step " << t;
    EXPECT_EQ(seq.SnapshotNnz(t), snapshot.nnz()) << "step " << t;
  }
}

SparseTensor RandomTensor(const std::vector<uint64_t>& dims, size_t draws,
                          Rng& rng) {
  SparseTensor t(dims);
  std::vector<uint64_t> idx(dims.size());
  for (size_t e = 0; e < draws; ++e) {
    for (size_t m = 0; m < dims.size(); ++m) idx[m] = rng.NextBounded(dims[m]);
    t.Add(idx, rng.NextDouble(-1.0, 1.0));
  }
  return t;  // unsorted, with duplicates: the index must not assume either
}

TEST(StreamingSequenceTest, ArrivalIndexMatchesFiltersOnRandomSchedules) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t order = 1 + rng.NextBounded(4);
    std::vector<uint64_t> dims(order);
    for (uint64_t& d : dims) d = 1 + rng.NextBounded(9);
    SparseTensor full = RandomTensor(dims, rng.NextBounded(120), rng);
    // Weakly growing schedule: some modes never grow, some steps repeat,
    // and the last box may stop short of the full tensor.
    const size_t steps = 1 + rng.NextBounded(6);
    std::vector<std::vector<uint64_t>> schedule(steps,
                                                std::vector<uint64_t>(order));
    for (size_t m = 0; m < order; ++m) {
      const bool grows = rng.NextBounded(3) != 0;
      uint64_t size = 1 + rng.NextBounded(dims[m]);
      for (size_t t = 0; t < steps; ++t) {
        if (grows && t > 0) size += rng.NextBounded(dims[m] - size + 1);
        schedule[t][m] = size;
      }
    }
    ExpectIndexMatchesFilters(
        StreamingTensorSequence(std::move(full), std::move(schedule)));
  }
}

TEST(StreamingSequenceTest, ArrivalIndexOneStepAndStaticModes) {
  Rng rng(7);
  // One step covering everything.
  ExpectIndexMatchesFilters(
      StreamingTensorSequence(RandomTensor({5, 4}, 30, rng), {{5, 4}}));
  // One step covering part of the tensor.
  ExpectIndexMatchesFilters(
      StreamingTensorSequence(RandomTensor({5, 4}, 30, rng), {{2, 3}}));
  // Only mode 1 grows; mode 0 stays at full size throughout.
  ExpectIndexMatchesFilters(StreamingTensorSequence(
      RandomTensor({6, 6, 3}, 80, rng), {{6, 1, 3}, {6, 3, 3}, {6, 6, 3}}));
  // Nothing grows: every later delta is empty.
  const StreamingTensorSequence flat(RandomTensor({4, 4}, 20, rng),
                                     {{3, 3}, {3, 3}, {3, 3}});
  ExpectIndexMatchesFilters(flat);
  EXPECT_EQ(flat.DeltaAt(2).nnz(), 0u);
  EXPECT_EQ(flat.DeltaAt(2).dims(), flat.DimsAt(2));
  // An empty tensor.
  ExpectIndexMatchesFilters(
      StreamingTensorSequence(SparseTensor({3, 3}), {{1, 1}, {3, 3}}));
}

}  // namespace
}  // namespace dismastd
