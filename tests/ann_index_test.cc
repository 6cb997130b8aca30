#include "ann/lsh_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <set>
#include <thread>

#include "kernels/kernels.h"
#include "serve/query_engine.h"
#include "serve/servable_model.h"

namespace dismastd {
namespace ann {
namespace {

KruskalTensor MakeFactors(uint64_t seed,
                          std::vector<uint64_t> dims = {300, 40, 12},
                          size_t rank = 6) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (uint64_t d : dims) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  return KruskalTensor(std::move(factors));
}

constexpr kernels::Backend kAllBackends[] = {
    kernels::Backend::kScalar, kernels::Backend::kAvx2,
    kernels::Backend::kAvx512};

/// Reference Hamming distances, straight __builtin_popcountll.
std::vector<uint32_t> ReferenceHamming(const std::vector<uint64_t>& codes,
                                       size_t words,
                                       const std::vector<uint64_t>& query) {
  const size_t rows = codes.size() / words;
  std::vector<uint32_t> dists(rows);
  for (size_t j = 0; j < rows; ++j) {
    uint32_t d = 0;
    for (size_t w = 0; w < words; ++w) {
      d += static_cast<uint32_t>(
          __builtin_popcountll(codes[j * words + w] ^ query[w]));
    }
    dists[j] = d;
  }
  return dists;
}

/// The per-bit sign encode the batched kernel replaced: one dispatched
/// dot_strided(plane_b, 1, aug, 1, R+1) per bit, on the hyperplanes the
/// index draws (bits x (R+1) Gaussians from Rng(seed)).
std::vector<uint64_t> ReferenceEncode(const LshOptions& options, size_t rank,
                                      const double* aug, size_t num_rows) {
  Rng rng(options.seed);
  const Matrix planes = Matrix::RandomGaussian(options.bits, rank + 1, rng);
  const size_t words = (options.bits + 63) / 64;
  std::vector<uint64_t> codes(num_rows * words, 0);
  for (size_t j = 0; j < num_rows; ++j) {
    for (size_t b = 0; b < options.bits; ++b) {
      const double dot = kernels::Get().dot_strided(
          planes.RowPtr(b), 1, aug + j * (rank + 1), 1, rank + 1);
      if (dot >= 0.0) codes[j * words + b / 64] |= uint64_t{1} << (b % 64);
    }
  }
  return codes;
}

/// Reference codes of a whole mode: every row augmented with
/// sqrt(M² - ‖row‖²) under the mode's recorded augmentation norm M.
std::vector<uint64_t> ReferenceModeCodes(const Matrix& factor,
                                         const LshOptions& options,
                                         double aug_norm) {
  const size_t rank = factor.cols();
  std::vector<double> aug(factor.rows() * (rank + 1));
  for (size_t r = 0; r < factor.rows(); ++r) {
    const double* row = factor.RowPtr(r);
    const double norm_sq = kernels::Get().dot_strided(row, 1, row, 1, rank);
    const double rest = aug_norm * aug_norm - norm_sq;
    std::copy(row, row + rank, aug.begin() + r * (rank + 1));
    aug[r * (rank + 1) + rank] = rest > 0.0 ? std::sqrt(rest) : 0.0;
  }
  return ReferenceEncode(options, rank, aug.data(), factor.rows());
}

/// The selection the fused scan replaced: u32 distances, a separate
/// histogram pass, then the counting-select with lowest-index ties.
std::vector<uint32_t> ReferenceShortlist(const LshModeIndex& mode,
                                         const LshOptions& options,
                                         size_t rank, const double* weights,
                                         size_t shortlist_size) {
  if (mode.num_rows == 0 || shortlist_size == 0) return {};
  if (shortlist_size >= mode.num_rows) {
    std::vector<uint32_t> all(mode.num_rows);
    for (uint32_t r = 0; r < mode.num_rows; ++r) all[r] = r;
    return all;
  }
  std::vector<double> aug(rank + 1, 0.0);
  std::copy(weights, weights + rank, aug.begin());
  const std::vector<uint64_t> qcode =
      ReferenceEncode(options, rank, aug.data(), 1);
  const std::vector<uint32_t> dists =
      ReferenceHamming(mode.codes, mode.words, qcode);
  std::vector<size_t> hist(options.bits + 2, 0);
  for (uint32_t d : dists) ++hist[d];
  size_t cutoff = 0;
  size_t below = 0;
  while (below + hist[cutoff] < shortlist_size) {
    below += hist[cutoff];
    ++cutoff;
  }
  size_t ties_budget = shortlist_size - below;
  std::vector<uint32_t> shortlist;
  for (uint32_t r = 0; r < mode.num_rows; ++r) {
    if (dists[r] < cutoff) {
      shortlist.push_back(r);
    } else if (dists[r] == cutoff && ties_budget > 0) {
      shortlist.push_back(r);
      --ties_budget;
    }
  }
  return shortlist;
}

uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t h = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

TEST(HammingKernelTest, ScanMatchesReferenceOnEveryBackend) {
  Rng rng(11);
  for (size_t words = 1; words <= 5; ++words) {
    // Full-width codes and codes whose last word carries 51 live bits
    // (padding bits zero in rows and query, as the encoder leaves them).
    for (size_t bits : {words * 64, words * 64 - 13}) {
      const uint64_t live = bits % 64 == 0
                                ? ~uint64_t{0}
                                : (uint64_t{1} << (bits % 64)) - 1;
      // Random codes, and heavily tied ones drawn from three patterns.
      for (bool tied : {false, true}) {
        for (size_t rows : {0, 1, 7, 8, 9, 1001}) {
          std::vector<uint64_t> patterns(3 * words);
          for (auto& c : patterns) c = rng.NextU64();
          std::vector<uint64_t> codes(rows * words);
          for (size_t j = 0; j < rows; ++j) {
            const size_t pick = rng.NextU64() % 3;
            for (size_t w = 0; w < words; ++w) {
              codes[j * words + w] =
                  tied ? patterns[pick * words + w] : rng.NextU64();
            }
            codes[j * words + words - 1] &= live;
          }
          std::vector<uint64_t> query(words);
          for (auto& q : query) q = rng.NextU64();
          query[words - 1] &= live;

          const std::vector<uint32_t> expected =
              ReferenceHamming(codes, words, query);
          // The kernel adds into the histogram: start from a non-zero one.
          const size_t buckets = words * 64 + 1;
          std::vector<uint32_t> expected_hist(buckets);
          for (size_t b = 0; b < buckets; ++b) expected_hist[b] = 3 * b + 1;
          std::vector<uint32_t> start_hist = expected_hist;
          for (uint32_t d : expected) ++expected_hist[d];

          for (kernels::Backend backend : kAllBackends) {
            if (!kernels::Supported(backend)) continue;
            std::vector<uint16_t> dists(rows, 0xFFFF);
            std::vector<uint32_t> hist = start_hist;
            kernels::Get(backend).hamming_scan(codes.data(), rows, words,
                                               query.data(), dists.data(),
                                               hist.data());
            const std::string where =
                std::string(kernels::BackendName(backend)) + " words=" +
                std::to_string(words) + " bits=" + std::to_string(bits) +
                " rows=" + std::to_string(rows) +
                (tied ? " tied" : " random");
            EXPECT_EQ(std::vector<uint32_t>(dists.begin(), dists.end()),
                      expected)
                << where;
            EXPECT_EQ(hist, expected_hist) << where;
          }
        }
      }
    }
  }
}

TEST(LshEncodeTest, BatchedEncodeMatchesPerBitDotsOnEveryBackend) {
  Rng rng(12);
  for (size_t rank : {1, 7, 8, 10, 17}) {
    for (size_t bits : {1, 63, 64, 65, 256}) {
      LshOptions options;
      options.bits = bits;
      const LshHyperplanes planes(bits, rank, options.seed);
      // Signed inputs, an all-zero row (every dot is +-0.0, so every bit
      // is set) and a row with a negative zero.
      const size_t num_rows = 37;
      std::vector<double> aug(num_rows * (rank + 1));
      for (auto& v : aug) v = rng.NextDouble(-1.0, 1.0);
      std::fill(aug.begin() + 3 * (rank + 1), aug.begin() + 4 * (rank + 1),
                0.0);
      aug[5 * (rank + 1)] = -0.0;

      for (kernels::Backend backend : kAllBackends) {
        if (!kernels::Supported(backend)) continue;
        ASSERT_TRUE(kernels::ForceBackend(backend).ok());
        const std::vector<uint64_t> expected =
            ReferenceEncode(options, rank, aug.data(), num_rows);
        std::vector<uint64_t> batched(expected.size(), ~uint64_t{0});
        planes.Encode(aug.data(), num_rows, batched.data());
        const std::string where = std::string(kernels::BackendName(backend)) +
                                  " R=" + std::to_string(rank) +
                                  " bits=" + std::to_string(bits);
        EXPECT_EQ(batched, expected) << where;
        // The one-row call is the query path.
        std::vector<uint64_t> one(planes.words(), ~uint64_t{0});
        planes.Encode(aug.data() + 6 * (rank + 1), 1, one.data());
        EXPECT_EQ(one, std::vector<uint64_t>(
                           expected.begin() + 6 * planes.words(),
                           expected.begin() + 7 * planes.words()))
            << where;
      }
      kernels::ResetDispatch();
    }
  }
}

TEST(LshEncodeTest, IndexCodesMatchPerBitEncodeThroughIncrementalPatch) {
  for (size_t rank : {1, 7, 8, 10, 17}) {
    for (size_t bits : {1, 63, 64, 65, 256}) {
      LshOptions options;
      options.bits = bits;
      const KruskalTensor base_factors = MakeFactors(13, {700, 40, 9}, rank);
      KruskalTensor updated = base_factors;
      Matrix& f0 = updated.mutable_factor(0);
      for (size_t r = 0; r < 300; r += 7) {  // patched rows, norms stay small
        for (size_t c = 0; c < rank; ++c) f0(r, c) = 0.001 * (r + c + 1);
      }
      for (kernels::Backend backend : kAllBackends) {
        if (!kernels::Supported(backend)) continue;
        ASSERT_TRUE(kernels::ForceBackend(backend).ok());
        const auto base =
            AnnIndex::Build(base_factors, options, nullptr, nullptr);
        const auto patched =
            AnnIndex::Build(updated, options, base.get(), &base_factors);
        ASSERT_EQ(patched->mode(0).hashed_rows, 43u);
        for (size_t m = 0; m < updated.order(); ++m) {
          EXPECT_EQ(patched->mode(m).codes,
                    ReferenceModeCodes(updated.factor(m), options,
                                       patched->mode(m).aug_norm))
              << kernels::BackendName(backend) << " R=" << rank
              << " bits=" << bits << " mode " << m;
        }
      }
      kernels::ResetDispatch();
    }
  }
}

TEST(LshIndexTest, ShortlistMatchesCountingSelectReferenceOnTiedCodes) {
  // Mode 0 repeats five distinct rows, so its codes (and distances) are
  // heavily tied; the selection must still take the lowest-index ties.
  const size_t rank = 6;
  Rng rng(14);
  const Matrix distinct = Matrix::Random(5, rank, rng);
  Matrix tied(2003, rank);
  for (size_t r = 0; r < tied.rows(); ++r) {
    const size_t pick = rng.NextU64() % distinct.rows();
    for (size_t c = 0; c < rank; ++c) tied(r, c) = distinct(pick, c);
  }
  std::vector<Matrix> factors = {tied, Matrix::Random(1500, rank, rng),
                                 Matrix::Random(40, rank, rng)};
  const KruskalTensor model(std::move(factors));
  for (size_t bits : {64, 96, 256}) {
    LshOptions options;
    options.bits = bits;
    for (kernels::Backend backend : kAllBackends) {
      if (!kernels::Supported(backend)) continue;
      ASSERT_TRUE(kernels::ForceBackend(backend).ok());
      const auto index = AnnIndex::Build(model, options, nullptr, nullptr);
      for (size_t m = 0; m < model.order(); ++m) {
        const size_t rows = index->mode(m).num_rows;
        for (uint64_t q = 0; q < 4; ++q) {
          std::vector<double> weights(rank);
          for (auto& w : weights) w = rng.NextDouble(-1.0, 1.0);
          for (size_t size : {size_t{1}, size_t{10}, rows - 1}) {
            EXPECT_EQ(index->Shortlist(m, weights.data(), size),
                      ReferenceShortlist(index->mode(m), options, rank,
                                         weights.data(), size))
                << kernels::BackendName(backend) << " bits=" << bits
                << " mode " << m << " size " << size;
          }
        }
      }
    }
    kernels::ResetDispatch();
  }
}

TEST(LshIndexTest, GoldenCodesAndShortlistsAfterTwoPublishes) {
  // Values pinned from the per-bit encode, u32 distance scan and
  // three-pass counting-select that the batched encode and fused scan
  // replaced; every backend must reproduce them bit for bit.
  struct Golden {
    size_t bits;
    uint64_t codes[3];
    uint64_t shortlists;
  };
  const Golden goldens[] = {
      {96,
       {0xacabbfd238b4381full, 0x8092b3276857961aull, 0x5d5e424c428cb134ull},
       0x34bfecf3cd7eb575ull},
      {256,
       {0x740d4a6228fc375eull, 0x3033d4c75c666278ull, 0xacd3db11ce397e8bull},
       0x185e1f5e5428cc47ull},
  };
  const KruskalTensor first = MakeFactors(21, {3000, 400, 64}, 10);
  KruskalTensor second = first;
  Matrix& f0 = second.mutable_factor(0);
  for (size_t r = 0; r < 20; ++r) {  // patched rows of mode 0
    for (size_t c = 0; c < f0.cols(); ++c) {
      f0(r * 97, c) = 0.01 * static_cast<double>(r + c + 1);
    }
  }
  Matrix& f1 = second.mutable_factor(1);  // max-norm growth: mode 1 rehashed
  for (size_t c = 0; c < f1.cols(); ++c) f1(5, c) *= 4.0;

  for (kernels::Backend backend : kAllBackends) {
    if (!kernels::Supported(backend)) continue;
    ASSERT_TRUE(kernels::ForceBackend(backend).ok());
    for (const Golden& golden : goldens) {
      LshOptions options;
      options.bits = golden.bits;
      const auto base = AnnIndex::Build(first, options, nullptr, nullptr);
      const auto patched = AnnIndex::Build(second, options, base.get(), &first);
      const std::string where = std::string(kernels::BackendName(backend)) +
                                " bits=" + std::to_string(golden.bits);
      EXPECT_EQ(patched->mode(0).hashed_rows, 20u) << where;
      EXPECT_EQ(patched->mode(1).reused_rows, 0u) << where;
      EXPECT_EQ(patched->mode(2).hashed_rows, 0u) << where;
      for (size_t m = 0; m < 3; ++m) {
        const std::vector<uint64_t>& codes = patched->mode(m).codes;
        EXPECT_EQ(Fnv1a(codes.data(), codes.size() * sizeof(uint64_t)),
                  golden.codes[m])
            << where << " mode " << m;
      }
      uint64_t shortlists = Fnv1a(nullptr, 0);
      for (uint64_t q = 0; q < 3; ++q) {
        Rng rng(100 + q);
        std::vector<double> weights(10);
        for (double& w : weights) w = rng.NextDouble(-1.0, 1.0);
        for (size_t m = 0; m < 3; ++m) {
          const size_t rows = patched->mode(m).num_rows;
          for (size_t size : {size_t{1}, size_t{50}, rows - 1}) {
            const std::vector<uint32_t> s =
                patched->Shortlist(m, weights.data(), size);
            const uint64_t n = s.size();
            shortlists = Fnv1a(&n, sizeof(n), shortlists);
            shortlists =
                Fnv1a(s.data(), s.size() * sizeof(uint32_t), shortlists);
          }
        }
      }
      EXPECT_EQ(shortlists, golden.shortlists) << where;
    }
  }
  kernels::ResetDispatch();
}

TEST(LshIndexTest, RejectsCodesWiderThanTheDistanceType) {
  EXPECT_EQ(LshHyperplanes(kMaxLshBits, 3, 1).words(), kMaxLshBits / 64);
  EXPECT_DEATH(LshHyperplanes(kMaxLshBits + 1, 3, 1), "kMaxLshBits");
  EXPECT_DEATH(LshHyperplanes(0, 3, 1), "kMaxLshBits");
}

TEST(LshIndexTest, BuildIsDeterministicAcrossRepeatsAndBackends) {
  const KruskalTensor factors = MakeFactors(1);
  LshOptions options;
  options.bits = 96;  // multi-word codes
  const auto a = AnnIndex::Build(factors, options, nullptr, nullptr);
  const auto b = AnnIndex::Build(factors, options, nullptr, nullptr);
  ASSERT_EQ(a->num_modes(), b->num_modes());
  for (size_t m = 0; m < a->num_modes(); ++m) {
    EXPECT_EQ(a->mode(m).codes, b->mode(m).codes) << "mode " << m;
    EXPECT_EQ(a->mode(m).aug_norm, b->mode(m).aug_norm);
  }

  // Forcing each compiled-in backend must reproduce the same index bytes:
  // the encode kernel keeps the fp64 blocked-8 dot contract.
  for (kernels::Backend backend : kAllBackends) {
    if (!kernels::Supported(backend)) continue;
    ASSERT_TRUE(kernels::ForceBackend(backend).ok());
    const auto forced = AnnIndex::Build(factors, options, nullptr, nullptr);
    for (size_t m = 0; m < a->num_modes(); ++m) {
      EXPECT_EQ(forced->mode(m).codes, a->mode(m).codes)
          << kernels::BackendName(backend) << " mode " << m;
    }
  }
  kernels::ResetDispatch();
}

TEST(LshIndexTest, ShortlistIsExactCountingSelect) {
  const KruskalTensor factors = MakeFactors(2);
  LshOptions options;
  const auto index = AnnIndex::Build(factors, options, nullptr, nullptr);
  const size_t mode = 0;
  const size_t rows = factors.factor(mode).rows();

  std::vector<double> weights(factors.rank());
  Rng rng(5);
  for (auto& w : weights) w = rng.NextDouble(-1.0, 1.0);

  const size_t want = 37;
  const std::vector<uint32_t> shortlist =
      index->Shortlist(mode, weights.data(), want);
  ASSERT_EQ(shortlist.size(), want);
  EXPECT_TRUE(std::is_sorted(shortlist.begin(), shortlist.end()));

  // Recompute distances by hand and check the selection rule: everything
  // strictly below the cut-off distance is in, ties at the cut-off fill
  // the remainder lowest-index-first.
  std::vector<double> aug(factors.rank() + 1, 0.0);
  std::copy(weights.begin(), weights.end(), aug.begin());
  std::vector<uint64_t> qcode(index->planes().words(), 0);
  index->planes().Encode(aug.data(), 1, qcode.data());
  std::vector<uint16_t> dists(rows);
  std::vector<uint32_t> hist(index->mode(mode).words * 64 + 1, 0);
  kernels::Get().hamming_scan(index->mode(mode).codes.data(), rows,
                              index->mode(mode).words, qcode.data(),
                              dists.data(), hist.data());
  std::set<uint32_t> chosen(shortlist.begin(), shortlist.end());
  uint16_t cutoff = 0;
  for (uint32_t r : shortlist) cutoff = std::max(cutoff, dists[r]);
  size_t ties_chosen = 0;
  uint32_t highest_chosen_tie = 0;
  for (uint32_t r = 0; r < rows; ++r) {
    if (dists[r] < cutoff) {
      EXPECT_TRUE(chosen.count(r)) << "row " << r << " below cutoff missing";
    } else if (dists[r] == cutoff && chosen.count(r)) {
      ++ties_chosen;
      highest_chosen_tie = r;
    }
  }
  // Lowest-index tie-breaking: no unchosen tie may precede a chosen one.
  for (uint32_t r = 0; r < highest_chosen_tie; ++r) {
    if (dists[r] == cutoff) {
      EXPECT_TRUE(chosen.count(r)) << "tie at row " << r << " skipped";
    }
  }
  EXPECT_GT(ties_chosen, 0u);
}

TEST(LshIndexTest, ShortlistClampsAndHandlesEmptyMode) {
  std::vector<Matrix> factors;
  Rng rng(3);
  factors.push_back(Matrix::Random(20, 4, rng));
  factors.push_back(Matrix(0, 4));
  const KruskalTensor model(std::move(factors));
  const auto index = AnnIndex::Build(model, LshOptions{}, nullptr, nullptr);

  std::vector<double> weights(4, 0.5);
  const auto all = index->Shortlist(0, weights.data(), 1000);
  ASSERT_EQ(all.size(), 20u);
  for (uint32_t r = 0; r < 20; ++r) EXPECT_EQ(all[r], r);
  EXPECT_TRUE(index->Shortlist(0, weights.data(), 0).empty());
  EXPECT_TRUE(index->Shortlist(1, weights.data(), 5).empty());
}

TEST(LshIndexTest, IncrementalPatchReusesUnchangedRows) {
  KruskalTensor factors = MakeFactors(4);
  const auto base = AnnIndex::Build(factors, LshOptions{}, nullptr, nullptr);
  EXPECT_EQ(base->reused_rows(), 0u);

  // Touch 7 rows of mode 0 with small values so the mode's max row norm
  // cannot grow; every untouched row must keep its code.
  KruskalTensor updated = factors;
  Matrix& f0 = updated.mutable_factor(0);
  for (size_t r = 0; r < 7; ++r) {
    for (size_t c = 0; c < f0.cols(); ++c) f0(r * 31, c) = 0.01 * (r + 1);
  }
  const auto patched =
      AnnIndex::Build(updated, LshOptions{}, base.get(), &factors);
  const size_t rows0 = f0.rows();
  EXPECT_EQ(patched->mode(0).hashed_rows, 7u);
  EXPECT_EQ(patched->mode(0).reused_rows, rows0 - 7);
  // Other modes are byte-identical: full reuse.
  EXPECT_EQ(patched->mode(1).reused_rows, updated.factor(1).rows());
  EXPECT_EQ(patched->mode(2).reused_rows, updated.factor(2).rows());

  // Because the augmentation norm did not change, the patched index must
  // be bit-identical to a from-scratch build of the updated factors.
  const auto fresh =
      AnnIndex::Build(updated, LshOptions{}, nullptr, nullptr);
  for (size_t m = 0; m < fresh->num_modes(); ++m) {
    EXPECT_EQ(patched->mode(m).codes, fresh->mode(m).codes) << "mode " << m;
  }
}

TEST(LshIndexTest, GrownModeReusesOldRowsAndHashesNewOnes) {
  KruskalTensor factors = MakeFactors(5);
  const auto base = AnnIndex::Build(factors, LshOptions{}, nullptr, nullptr);

  // Append 25 small-valued rows to mode 0 (norms below the existing max,
  // so the augmentation norm is stable).
  const Matrix& f0 = factors.factor(0);
  Matrix grown(f0.rows() + 25, f0.cols());
  for (size_t r = 0; r < f0.rows(); ++r) {
    for (size_t c = 0; c < f0.cols(); ++c) grown(r, c) = f0(r, c);
  }
  Rng rng(6);
  for (size_t r = f0.rows(); r < grown.rows(); ++r) {
    for (size_t c = 0; c < grown.cols(); ++c) {
      grown(r, c) = 0.05 * rng.NextDouble();
    }
  }
  std::vector<Matrix> updated_factors = factors.factors();
  updated_factors[0] = std::move(grown);
  const KruskalTensor updated(std::move(updated_factors));

  const auto patched =
      AnnIndex::Build(updated, LshOptions{}, base.get(), &factors);
  EXPECT_EQ(patched->mode(0).reused_rows, factors.factor(0).rows());
  EXPECT_EQ(patched->mode(0).hashed_rows, 25u);
}

TEST(LshIndexTest, MaxNormGrowthRehashesTheWholeMode) {
  KruskalTensor factors = MakeFactors(7);
  const auto base = AnnIndex::Build(factors, LshOptions{}, nullptr, nullptr);

  KruskalTensor updated = factors;
  Matrix& f0 = updated.mutable_factor(0);
  for (size_t c = 0; c < f0.cols(); ++c) f0(3, c) = 50.0;  // new max norm
  const auto patched =
      AnnIndex::Build(updated, LshOptions{}, base.get(), &factors);
  // Every row of mode 0 re-hashed under the new augmentation norm.
  EXPECT_EQ(patched->mode(0).reused_rows, 0u);
  EXPECT_EQ(patched->mode(0).hashed_rows, updated.factor(0).rows());
  EXPECT_GT(patched->mode(0).aug_norm, base->mode(0).aug_norm);
  // The result matches a fresh build exactly (patching never leaves the
  // index in a state a fresh build could not produce when M grows).
  const auto fresh =
      AnnIndex::Build(updated, LshOptions{}, nullptr, nullptr);
  EXPECT_EQ(patched->mode(0).codes, fresh->mode(0).codes);
}

TEST(LshIndexTest, AnnRecallIsHighOnSkinnyFactors) {
  using serve::Precision;
  using serve::ServableModel;
  const auto model = ServableModel::Build(MakeFactors(8, {2000, 30, 10}, 8),
                                          1, 0);
  const size_t k = 10;
  size_t hits = 0, total = 0;
  for (uint64_t anchor1 = 0; anchor1 < 20; ++anchor1) {
    const std::vector<uint64_t> anchor = {0, anchor1, anchor1 % 10};
    const auto exact = model->TopK(0, anchor, k);
    const auto ann =
        model->TopKAnn(0, anchor, k, Precision::kF64, /*probes=*/16);
    ASSERT_TRUE(ann.ok()) << ann.status();
    std::set<uint64_t> exact_ids;
    for (const auto& item : exact) exact_ids.insert(item.index);
    for (const auto& item : ann.value().items) {
      hits += exact_ids.count(item.index);
    }
    total += k;
    // The shortlist scanned far fewer rows than the exact scan.
    EXPECT_LE(ann.value().rows_scored, 16 * k);
  }
  const double recall =
      static_cast<double>(hits) / static_cast<double>(total);
  EXPECT_GE(recall, 0.8) << "recall@10 " << recall;
}

TEST(LshIndexTest, ConcurrentPublishWhileAnnQuerying) {
  // TSan target: one publisher streams modified factors while reader
  // threads run ANN + cached queries. Every answer must come from a
  // coherent snapshot (index and factors travel together), so no torn
  // reads and no errors once the first model is live.
  serve::ModelStore store;
  store.Publish(MakeFactors(9, {400, 30, 10}, 5), 0);
  serve::ServeMetrics metrics;
  serve::TopKResultCache cache(256);
  serve::QueryEngine engine(&store, nullptr, &metrics, nullptr, &cache);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      serve::TopKQuery query;
      query.target_mode = 0;
      query.k = 5;
      query.search = t == 0 ? serve::SearchMode::kAnnCached
                            : serve::SearchMode::kAnn;
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        query.anchor = {0, i % 30, i % 10};
        ++i;
        if (!engine.TopKWithBound(query).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (uint64_t step = 1; step <= 20; ++step) {
    KruskalTensor factors = MakeFactors(9, {400, 30, 10}, 5);
    Matrix& f0 = factors.mutable_factor(0);
    for (size_t c = 0; c < f0.cols(); ++c) {
      f0(step % f0.rows(), c) = 0.001 * static_cast<double>(step);
    }
    store.Publish(std::move(factors), step);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  // The incremental patch path ran: later publishes reused codes.
  EXPECT_GT(store.Current()->ann_index()->reused_rows(), 0u);
}

}  // namespace
}  // namespace ann
}  // namespace dismastd
