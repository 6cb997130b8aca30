#ifndef DISMASTD_STREAM_SNAPSHOT_H_
#define DISMASTD_STREAM_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "tensor/coo_tensor.h"

namespace dismastd {

/// Bitmask identifying the sub-tensor of the paper's Θ = {0,1}^N division
/// (Fig. 2): bit n is set iff index[n] >= old_dims[n], i.e. the entry lies
/// in the "new" range of mode n. Tuple 0 is the previous snapshot X̃.
uint32_t ThetaTuple(const uint64_t* index, const std::vector<uint64_t>& old_dims);

/// Relative complement X \ X̃: the entries of `current` having at least one
/// index beyond `old_dims` (ThetaTuple != 0). The result keeps `current`'s
/// dims and the original entry order.
SparseTensor RelativeComplement(const SparseTensor& current,
                                const std::vector<uint64_t>& old_dims);

/// Restriction of `tensor` to the prefix box `dims` (all indices <
/// dims[n]); the result's dims are `dims`. This is the snapshot X^(T) of a
/// multi-aspect streaming sequence materialized from the final tensor.
SparseTensor RestrictToBox(const SparseTensor& tensor,
                           const std::vector<uint64_t>& dims);

/// A multi-aspect streaming tensor sequence (Def. 4): snapshots are prefix
/// boxes of one final tensor, growing (weakly) in every mode.
///
/// Construction makes one pass over the tensor to index every entry by its
/// arrival step — the first t whose box contains it — as a stable
/// permutation (4 bytes per entry) bucketed by step. A delta is then a
/// gather of one bucket, O(nnz(Δ)) instead of a scan of the whole tensor.
class StreamingTensorSequence {
 public:
  /// `schedule[t]` is the dims vector of snapshot t; must be monotonically
  /// non-decreasing per mode and end at `full.dims()` or below. `full` may
  /// hold at most 2^32 - 1 entries.
  StreamingTensorSequence(SparseTensor full,
                          std::vector<std::vector<uint64_t>> schedule);

  size_t num_steps() const { return schedule_.size(); }
  const std::vector<uint64_t>& DimsAt(size_t step) const {
    return schedule_[step];
  }
  const SparseTensor& full() const { return full_; }

  /// Snapshot tensor X^(step).
  SparseTensor SnapshotAt(size_t step) const;

  /// Relative complement X^(step) \ X^(step-1); for step 0, the whole first
  /// snapshot (old dims treated as all-zero). Dims are DimsAt(step) and the
  /// entries keep full()'s order: exactly
  /// RelativeComplement(SnapshotAt(step), DimsAt(step - 1)).
  SparseTensor DeltaAt(size_t step) const;

  /// nnz of SnapshotAt(step) without materializing it (a prefix sum).
  uint64_t SnapshotNnz(size_t step) const;

 private:
  SparseTensor full_;
  std::vector<std::vector<uint64_t>> schedule_;
  /// Entry ids of full_ grouped by arrival step, full_'s order within a
  /// step; entries outside the last box are not listed.
  std::vector<uint32_t> arrival_order_;
  /// Step t's entries are arrival_order_[arrival_offsets_[t] ..
  /// arrival_offsets_[t + 1]); num_steps() + 1 entries.
  std::vector<uint64_t> arrival_offsets_;
};

/// Builds a growth schedule scaling every mode of `final_dims` by
/// start_fraction, start_fraction + step_fraction, ..., up to 1.0
/// (the paper's 75% -> 100% by 5% protocol). Every mode size is rounded up
/// and at least 1.
std::vector<std::vector<uint64_t>> MakeGrowthSchedule(
    const std::vector<uint64_t>& final_dims, double start_fraction,
    double step_fraction, size_t num_steps);

}  // namespace dismastd

#endif  // DISMASTD_STREAM_SNAPSHOT_H_
