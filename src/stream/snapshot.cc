#include "stream/snapshot.h"

#include <algorithm>
#include <cmath>

namespace dismastd {

uint32_t ThetaTuple(const uint64_t* index,
                    const std::vector<uint64_t>& old_dims) {
  uint32_t mask = 0;
  for (size_t m = 0; m < old_dims.size(); ++m) {
    if (index[m] >= old_dims[m]) mask |= (1u << m);
  }
  return mask;
}

SparseTensor RelativeComplement(const SparseTensor& current,
                                const std::vector<uint64_t>& old_dims) {
  DISMASTD_CHECK(old_dims.size() == current.order());
  return current.Filter([&](size_t e) {
    return ThetaTuple(current.IndexTuple(e), old_dims) != 0;
  });
}

SparseTensor RestrictToBox(const SparseTensor& tensor,
                           const std::vector<uint64_t>& dims) {
  DISMASTD_CHECK(dims.size() == tensor.order());
  SparseTensor out(dims);
  const size_t order = tensor.order();
  for (size_t e = 0; e < tensor.nnz(); ++e) {
    const uint64_t* idx = tensor.IndexTuple(e);
    bool inside = true;
    for (size_t m = 0; m < order; ++m) {
      if (idx[m] >= dims[m]) {
        inside = false;
        break;
      }
    }
    if (inside) out.AddRaw(idx, tensor.Value(e));
  }
  return out;
}

StreamingTensorSequence::StreamingTensorSequence(
    SparseTensor full, std::vector<std::vector<uint64_t>> schedule)
    : full_(std::move(full)), schedule_(std::move(schedule)) {
  DISMASTD_CHECK(!schedule_.empty());
  const size_t order = full_.order();
  const size_t steps = schedule_.size();
  for (size_t t = 0; t < steps; ++t) {
    DISMASTD_CHECK(schedule_[t].size() == order);
    for (size_t m = 0; m < order; ++m) {
      DISMASTD_CHECK(schedule_[t][m] >= 1);
      DISMASTD_CHECK(schedule_[t][m] <= full_.dim(m));
      if (t > 0) DISMASTD_CHECK(schedule_[t][m] >= schedule_[t - 1][m]);
    }
  }
  DISMASTD_CHECK(full_.nnz() < UINT32_MAX);

  // Per mode, the first step whose box covers each index (`steps` when
  // none does). Boxes are nested, so an entry arrives at the latest of its
  // modes' first covering steps.
  std::vector<std::vector<uint32_t>> first_step(order);
  for (size_t m = 0; m < order; ++m) {
    first_step[m].assign(static_cast<size_t>(full_.dim(m)),
                         static_cast<uint32_t>(steps));
    uint64_t covered = 0;
    for (size_t t = 0; t < steps; ++t) {
      for (; covered < schedule_[t][m]; ++covered) {
        first_step[m][covered] = static_cast<uint32_t>(t);
      }
    }
  }
  auto arrival = [&](size_t e) {
    const uint64_t* idx = full_.IndexTuple(e);
    uint32_t step = 0;
    for (size_t m = 0; m < order; ++m) {
      step = std::max(step, first_step[m][idx[m]]);
    }
    return step;
  };

  // Stable counting sort of the entry ids by arrival step.
  std::vector<uint64_t> counts(steps + 1, 0);
  for (size_t e = 0; e < full_.nnz(); ++e) ++counts[arrival(e)];
  arrival_offsets_.assign(steps + 1, 0);
  for (size_t t = 0; t < steps; ++t) {
    arrival_offsets_[t + 1] = arrival_offsets_[t] + counts[t];
  }
  arrival_order_.resize(arrival_offsets_[steps]);
  std::vector<uint64_t> cursor(arrival_offsets_.begin(),
                               arrival_offsets_.end() - 1);
  for (size_t e = 0; e < full_.nnz(); ++e) {
    const uint32_t step = arrival(e);
    if (step < steps) arrival_order_[cursor[step]++] = static_cast<uint32_t>(e);
  }
}

SparseTensor StreamingTensorSequence::SnapshotAt(size_t step) const {
  DISMASTD_CHECK(step < num_steps());
  return RestrictToBox(full_, schedule_[step]);
}

SparseTensor StreamingTensorSequence::DeltaAt(size_t step) const {
  DISMASTD_CHECK(step < num_steps());
  const uint64_t begin = arrival_offsets_[step];
  return full_.Gather(schedule_[step], arrival_order_.data() + begin,
                      static_cast<size_t>(arrival_offsets_[step + 1] - begin));
}

uint64_t StreamingTensorSequence::SnapshotNnz(size_t step) const {
  DISMASTD_CHECK(step < num_steps());
  return arrival_offsets_[step + 1];
}

std::vector<std::vector<uint64_t>> MakeGrowthSchedule(
    const std::vector<uint64_t>& final_dims, double start_fraction,
    double step_fraction, size_t num_steps) {
  DISMASTD_CHECK(num_steps >= 1);
  DISMASTD_CHECK(start_fraction > 0.0 && start_fraction <= 1.0);
  std::vector<std::vector<uint64_t>> schedule(num_steps);
  for (size_t t = 0; t < num_steps; ++t) {
    const double fraction =
        std::min(1.0, start_fraction + step_fraction * static_cast<double>(t));
    schedule[t].resize(final_dims.size());
    for (size_t m = 0; m < final_dims.size(); ++m) {
      const double scaled = std::ceil(fraction * static_cast<double>(final_dims[m]));
      schedule[t][m] =
          std::max<uint64_t>(1, std::min(final_dims[m],
                                         static_cast<uint64_t>(scaled)));
    }
  }
  return schedule;
}

}  // namespace dismastd
