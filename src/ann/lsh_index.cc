#include "ann/lsh_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "common/logging.h"
#include "kernels/kernels.h"

namespace dismastd {
namespace ann {

namespace {

/// ‖row‖² through the dispatched fp64 dot kernel, so the augmentation norm
/// is bit-identical across backends.
double RowNormSquared(const double* row, size_t rank) {
  return kernels::Get().dot_strided(row, 1, row, 1, rank);
}

/// Rows per selection block: one 64-byte line of u16 distances.
constexpr size_t kSelectBlock = 32;

/// Whether any of the kSelectBlock distances at `dists` is <= cut.
/// Branch-free over a fixed-size block, so the compiler vectorizes it.
bool AnyAtMost(const uint16_t* dists, uint16_t cut) {
  unsigned hit = 0;
  for (size_t i = 0; i < kSelectBlock; ++i) hit |= dists[i] <= cut ? 1u : 0u;
  return hit != 0;
}

/// The augmented coordinate sqrt(M² - ‖row‖²), clamped at zero so fp
/// round-off on the max-norm row cannot produce a NaN.
double AugCoordinate(double norm_sq, double aug_norm) {
  const double rest = aug_norm * aug_norm - norm_sq;
  return rest > 0.0 ? std::sqrt(rest) : 0.0;
}

}  // namespace

LshHyperplanes::LshHyperplanes(size_t bits, size_t rank, uint64_t seed)
    : bits_(bits), rank_(rank), seed_(seed) {
  DISMASTD_CHECK(bits >= 1 && bits <= kMaxLshBits);
  // Drawn plane by plane, in the order of Matrix::RandomGaussian(bits,
  // rank + 1), straight into the transposed layout.
  planes_t_ = Matrix(rank + 1, bits);
  Rng rng(seed);
  for (size_t b = 0; b < bits; ++b) {
    for (size_t c = 0; c <= rank; ++c) planes_t_(c, b) = rng.NextGaussian();
  }
}

void LshHyperplanes::Encode(const double* aug, size_t num_rows,
                            uint64_t* codes) const {
  kernels::Get().sign_encode_rows(planes_t_.data(), rank_ + 1, bits_, aug,
                                  num_rows, codes);
}

std::shared_ptr<const AnnIndex> AnnIndex::Build(
    const KruskalTensor& factors, const LshOptions& options,
    const AnnIndex* previous, const KruskalTensor* previous_factors) {
  auto index = std::shared_ptr<AnnIndex>(new AnnIndex());
  index->options_ = options;

  const size_t rank = factors.rank();
  // Reuse the previous hyperplane family when it matches — required for
  // code reuse, and cheaper than re-drawing bits x (rank+1) Gaussians.
  if (previous != nullptr && previous->planes_.Matches(options, rank)) {
    index->planes_ = previous->planes_;
  } else {
    index->planes_ = LshHyperplanes(options.bits, rank, options.seed);
  }
  const LshHyperplanes& planes = index->planes_;
  const size_t num_words = planes.words();

  const bool can_patch = previous != nullptr && previous_factors != nullptr &&
                         previous->planes_.Matches(options, rank) &&
                         previous->modes_.size() == factors.order() &&
                         previous_factors->order() == factors.order() &&
                         previous_factors->rank() == rank;

  // Runs of consecutive rows to (re)hash are gathered as augmented rows,
  // up to kEncodeBatch at a time, and sign-encoded by one batched kernel
  // call straight into the codes.
  constexpr size_t kEncodeBatch = 256;
  const size_t dim = rank + 1;
  std::vector<double> aug(kEncodeBatch * dim);

  index->modes_.resize(factors.order());
  std::vector<double> norms_sq;
  for (size_t m = 0; m < factors.order(); ++m) {
    const Matrix& f = factors.factor(m);
    LshModeIndex& mode = index->modes_[m];
    mode.num_rows = f.rows();
    mode.words = num_words;
    mode.codes.assign(mode.num_rows * num_words, 0);

    norms_sq.resize(mode.num_rows);
    double max_norm_sq = 0.0;
    for (size_t r = 0; r < mode.num_rows; ++r) {
      norms_sq[r] = RowNormSquared(f.RowPtr(r), rank);
      max_norm_sq = std::max(max_norm_sq, norms_sq[r]);
    }
    const double fresh_norm = std::sqrt(max_norm_sq);

    // Patch rule: codes survive only if the row bytes are unchanged AND the
    // previous augmentation norm still dominates the mode (a larger M moves
    // the augmented coordinate of every row, invalidating all codes).
    const LshModeIndex* prev_mode = nullptr;
    const Matrix* prev_factor = nullptr;
    if (can_patch) {
      const LshModeIndex& pm = previous->modes_[m];
      const Matrix& pf = previous_factors->factor(m);
      if (pm.num_rows == pf.rows() && fresh_norm <= pm.aug_norm) {
        prev_mode = &pm;
        prev_factor = &pf;
      }
    }
    mode.aug_norm = prev_mode != nullptr ? prev_mode->aug_norm : fresh_norm;

    size_t run_begin = 0;  // first row of the gathered run
    size_t run_rows = 0;
    auto encode_run = [&] {
      if (run_rows == 0) return;
      planes.Encode(aug.data(), run_rows,
                    mode.codes.data() + run_begin * num_words);
      run_rows = 0;
    };
    for (size_t r = 0; r < mode.num_rows; ++r) {
      const double* row = f.RowPtr(r);
      if (prev_mode != nullptr && r < prev_mode->num_rows &&
          std::memcmp(row, prev_factor->RowPtr(r), rank * sizeof(double)) ==
              0) {
        encode_run();
        std::memcpy(mode.codes.data() + r * num_words, prev_mode->RowCode(r),
                    num_words * sizeof(uint64_t));
        ++mode.reused_rows;
        continue;
      }
      if (run_rows == 0) run_begin = r;
      double* a = aug.data() + run_rows * dim;
      std::memcpy(a, row, rank * sizeof(double));
      a[rank] = AugCoordinate(norms_sq[r], mode.aug_norm);
      ++run_rows;
      ++mode.hashed_rows;
      if (run_rows == kEncodeBatch) encode_run();
    }
    encode_run();
  }
  return index;
}

uint64_t AnnIndex::reused_rows() const {
  uint64_t total = 0;
  for (const LshModeIndex& m : modes_) total += m.reused_rows;
  return total;
}

uint64_t AnnIndex::hashed_rows() const {
  uint64_t total = 0;
  for (const LshModeIndex& m : modes_) total += m.hashed_rows;
  return total;
}

std::vector<uint32_t> AnnIndex::Shortlist(size_t mode_index,
                                          const double* weights,
                                          size_t shortlist_size) const {
  const LshModeIndex& mode = modes_[mode_index];
  if (mode.num_rows == 0 || shortlist_size == 0) return {};
  if (shortlist_size >= mode.num_rows) {
    std::vector<uint32_t> all(mode.num_rows);
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }

  // Query code: the MIPS augmentation of a query is [w, 0].
  const size_t rank = planes_.rank();
  std::vector<double> aug(rank + 1, 0.0);
  std::memcpy(aug.data(), weights, rank * sizeof(double));
  std::vector<uint64_t> qcode(mode.words);
  planes_.Encode(aug.data(), 1, qcode.data());

  // One pass over the codes yields the distances and their histogram. The
  // scan writes every distance, so the buffer is left uninitialized.
  std::unique_ptr<uint16_t[]> dists(new uint16_t[mode.num_rows]);
  std::vector<uint32_t> hist(mode.words * 64 + 1, 0);
  kernels::Get().hamming_scan(mode.codes.data(), mode.num_rows, mode.words,
                              qcode.data(), dists.get(), hist.data());

  // Counting-select over the distance range: find the cut-off distance,
  // then take every row strictly below it plus the lowest-indexed ties at
  // the cut-off. O(J), no heap, and deterministic regardless of scan order
  // or selection-algorithm implementation.
  size_t cutoff = 0;
  size_t below = 0;
  while (below + hist[cutoff] < shortlist_size) {
    below += hist[cutoff];
    ++cutoff;
  }
  size_t ties_budget = shortlist_size - below;

  // Selection walks the distances in blocks of kSelectBlock and skips
  // every full block with no distance <= cutoff (most of them: the
  // shortlist is a small fraction of J). It stops once the shortlist is
  // full, which happens only after the last row below the cut-off.
  const uint16_t cut = static_cast<uint16_t>(cutoff);
  std::vector<uint32_t> shortlist;
  shortlist.reserve(shortlist_size);
  for (size_t begin = 0;
       begin < mode.num_rows && shortlist.size() < shortlist_size;
       begin += kSelectBlock) {
    const size_t end = std::min(mode.num_rows, begin + kSelectBlock);
    if (end - begin == kSelectBlock && !AnyAtMost(dists.get() + begin, cut)) {
      continue;
    }
    for (size_t r = begin; r < end; ++r) {
      const uint16_t d = dists[r];
      if (d < cut) {
        shortlist.push_back(static_cast<uint32_t>(r));
      } else if (d == cut && ties_budget > 0) {
        shortlist.push_back(static_cast<uint32_t>(r));
        --ties_budget;
      }
    }
  }
  return shortlist;
}

}  // namespace ann
}  // namespace dismastd
