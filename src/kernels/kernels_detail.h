#ifndef DISMASTD_KERNELS_KERNELS_DETAIL_H_
#define DISMASTD_KERNELS_KERNELS_DETAIL_H_

// Shared pieces of the kernel backends: the blocked-8 fp64 reduction
// contract, the bf16 <-> float conversions, and the scalar reference
// implementations the SIMD backends fall back to for strided inputs and
// remainder lanes. Everything here must stay free of FMA contraction —
// backend translation units are compiled with -ffp-contract=off so that
// these helpers round identically everywhere.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "kernels/kernels.h"

namespace dismastd {
namespace kernels {
namespace detail {

/// Combine tree of the blocked-8 reduction: exactly what an 8-lane vector
/// accumulator yields when reduced 512 -> 256 -> 128 -> 64 bits.
inline double CombinePartials8(const double p[8]) {
  const double q0 = p[0] + p[4];
  const double q1 = p[1] + p[5];
  const double q2 = p[2] + p[6];
  const double q3 = p[3] + p[7];
  return (q0 + q2) + (q1 + q3);
}

/// The fp64 dot contract, in scalar form: lane l accumulates elements
/// l, l+8, ...; tail element i lands in lane i mod 8.
inline double DotBlocked(const double* x, size_t incx, const double* y,
                         size_t incy, size_t n) {
  double p[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      p[l] += x[(i + l) * incx] * y[(i + l) * incy];
    }
  }
  for (; i < n; ++i) p[i - n8] += x[i * incx] * y[i * incy];
  return CombinePartials8(p);
}

inline void HadamardCombineScalar(const double* const* rows, size_t num_rows,
                                  size_t rank, double* out) {
  for (size_t f = 0; f < rank; ++f) {
    double v = 1.0;
    for (size_t m = 0; m < num_rows; ++m) v *= rows[m][f];
    out[f] = v;
  }
}

inline void MttkrpCooScalar(const uint64_t* indices, const double* values,
                            size_t nnz, size_t order, size_t mode,
                            const double* const* factors, size_t rank,
                            double* out) {
  for (size_t e = 0; e < nnz; ++e) {
    const uint64_t* idx = indices + e * order;
    double* row = out + idx[mode] * rank;
    for (size_t f = 0; f < rank; ++f) {
      double v = values[e];
      for (size_t m = 0; m < order; ++m) {
        if (m != mode) v *= factors[m][idx[m] * rank + f];
      }
      row[f] += v;
    }
  }
}

inline void MttkrpRowsScalar(const uint32_t* rows, const uint32_t* row_begin,
                             size_t num_rows, const uint32_t* indices,
                             const double* values, size_t order, size_t mode,
                             const double* const* factors, size_t rank,
                             double* out) {
  const size_t others = order - 1;
  for (size_t j = 0; j < num_rows; ++j) {
    double* row = out + static_cast<size_t>(rows[j]) * rank;
    for (size_t e = row_begin[j]; e < row_begin[j + 1]; ++e) {
      const uint32_t* idx = indices + e * others;
      for (size_t f = 0; f < rank; ++f) {
        double v = values[e];
        for (size_t t = 0; t < others; ++t) {
          v *= factors[t < mode ? t : t + 1][idx[t] * rank + f];
        }
        row[f] += v;
      }
    }
  }
}

inline void GramUpdateRowsScalar(const double* x, const double* y,
                                 const uint64_t* rows, size_t num_rows,
                                 size_t rank, double* out) {
  for (size_t j = 0; j < num_rows; ++j) {
    const double* xr = x + rows[j] * rank;
    const double* yr = y + rows[j] * rank;
    for (size_t i = 0; i < rank; ++i) {
      const double xi = xr[i];
      double* row = out + i * rank;
      for (size_t k = 0; k < rank; ++k) row[k] += xi * yr[k];
    }
  }
}

/// The blocked-8 dot of x against column c of the rank x rank matrix m,
/// for every column: dot_strided(x, 1, m + c, rank, rank).
inline void RowTimesMatrixScalar(const double* x, const double* m,
                                 size_t rank, double* out) {
  for (size_t c = 0; c < rank; ++c) {
    out[c] = DotBlocked(x, 1, m + c, rank, rank);
  }
}

/// One row of the Cholesky row solve, in place: forward substitution
/// L y = b into z, then back substitution Lᵀ z = y. Each y[i] / z[i]
/// overwrites b[i] only after the last read of b[i].
inline void CholeskySolveRowScalar(const double* lower, size_t rank,
                                   double* z) {
  for (size_t i = 0; i < rank; ++i) {
    double sum = z[i];
    for (size_t k = 0; k < i; ++k) sum -= lower[i * rank + k] * z[k];
    z[i] = sum / lower[i * rank + i];
  }
  for (size_t ii = rank; ii-- > 0;) {
    double sum = z[ii];
    for (size_t k = ii + 1; k < rank; ++k) sum -= lower[k * rank + ii] * z[k];
    z[ii] = sum / lower[ii * rank + ii];
  }
}

inline void CholeskySolveRowsScalar(const double* lower, size_t rank,
                                    const double* rhs, size_t num_rows,
                                    double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    double* z = out + r * rank;
    if (z != rhs + r * rank) {
      std::memcpy(z, rhs + r * rank, rank * sizeof(double));
    }
    CholeskySolveRowScalar(lower, rank, z);
  }
}

/// Hints the cache to load the `rank` doubles at `row` (its first and last
/// element), for writing when `write`.
inline void PrefetchRow(const double* row, size_t rank, bool write) {
  if (write) {
    __builtin_prefetch(row, 1);
    __builtin_prefetch(row + rank - 1, 1);
  } else {
    __builtin_prefetch(row);
    __builtin_prefetch(row + rank - 1);
  }
}

/// KernelTable::update_rows over blocks of kBlock rows, composed from one
/// backend's numerator (kRowTimesMatrix: out[c] = the blocked-8 dot of x
/// with column c of m), solve (kSolveRows: cholesky_solve_rows) and Gram
/// (kGramRows: gram_update_rows) code, passed as template arguments so
/// each backend's translation unit compiles its own copy. A block's
/// numerators are formed in a stack buffer and solved in place there; the
/// solved rows are written to the factor, and the Gram partials read them
/// (and the old rows' previous rows) back while they are still in L1. The
/// next block's scattered rows are prefetched meanwhile. Each piece runs
/// the composed kernel's own operation sequence on the same rows in the
/// same order, so the bits are those of the composition.
template <size_t kBlock, auto kRowTimesMatrix, auto kSolveRows,
          auto kGramRows>
void UpdateRowsBlocked(const uint64_t* rows, size_t num_rows, size_t rank,
                       const double* prev, const double* had_h, double mu,
                       const double* mttkrp, const double* lower,
                       double* factor, double* gram, double* cross) {
  // Up to kStackRank the block lives on the stack; larger ranks borrow a
  // heap buffer and run the same code.
  constexpr size_t kStackRank = 64;
  alignas(64) double stack_block[kBlock * kStackRank];
  std::vector<double> heap_block;
  double* block = stack_block;
  if (rank > kStackRank) {
    heap_block.resize(kBlock * rank);
    block = heap_block.data();
  }
  for (size_t j0 = 0; j0 < num_rows; j0 += kBlock) {
    const size_t width = std::min(kBlock, num_rows - j0);
    const uint64_t* block_rows = rows + j0;
    const size_t ahead_end = std::min(num_rows, j0 + 2 * kBlock);
    for (size_t j = j0 + kBlock; j < ahead_end; ++j) {
      const size_t offset = rows[j] * rank;
      if (lower != nullptr) PrefetchRow(mttkrp + offset, rank, false);
      if (prev != nullptr) PrefetchRow(prev + offset, rank, false);
      PrefetchRow(factor + offset, rank, true);
    }
    if (lower == nullptr) {
      std::fill(block, block + width * rank, 0.0);
    } else {
      for (size_t l = 0; l < width; ++l) {
        double* b = block + l * rank;
        const double* m = mttkrp + block_rows[l] * rank;
        if (prev != nullptr) {
          kRowTimesMatrix(prev + block_rows[l] * rank, had_h, rank, b);
          for (size_t c = 0; c < rank; ++c) b[c] = mu * b[c] + m[c];
        } else {
          std::memcpy(b, m, rank * sizeof(double));
        }
      }
      kSolveRows(lower, rank, block, width, block);
    }
    for (size_t l = 0; l < width; ++l) {
      std::memcpy(factor + block_rows[l] * rank, block + l * rank,
                  rank * sizeof(double));
    }
    kGramRows(factor, factor, block_rows, width, rank, gram);
    if (prev != nullptr) {
      kGramRows(prev, factor, block_rows, width, rank, cross);
    }
  }
}

/// float64 -> bf16 with round-to-nearest-even (via float32); NaN payloads
/// are quieted so a NaN never rounds into an infinity.
inline Bf16 F64ToBf16(double v) {
  const float f = static_cast<float>(v);
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  if ((bits & 0x7FFFFFFFu) > 0x7F800000u) {
    return static_cast<Bf16>((bits >> 16) | 0x0040u);
  }
  bits += 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<Bf16>(bits >> 16);
}

inline double Bf16ToF64(Bf16 b) {
  const uint32_t bits = static_cast<uint32_t>(b) << 16;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return static_cast<double>(f);
}

inline double Bf16DotScalar(const Bf16* x, const double* weights, size_t n) {
  double p[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      p[l] += Bf16ToF64(x[i + l]) * weights[i + l];
    }
  }
  for (; i < n; ++i) p[i - n8] += Bf16ToF64(x[i]) * weights[i];
  return CombinePartials8(p);
}

inline uint32_t Popcount64(uint64_t v) {
  return static_cast<uint32_t>(__builtin_popcountll(v));
}

/// The histogram half of hamming_scan. Consecutive rows are counted into
/// four interleaved sub-histograms ("ways"), so a run of equal distances
/// updates four counters instead of one load-add-store chain serialized on
/// store-to-load forwarding. The scans hand over distances packed four to
/// a u64 straight from their registers. FlushInto adds the ways into the
/// caller's histogram; the counts are integers, so the result does not
/// depend on the split.
class HammingHistogram {
 public:
  explicit HammingHistogram(size_t words)
      : buckets_(words * 64 + 1), counts_(4 * buckets_, 0) {}

  /// Counts four distances held as the u16 lanes of `packed`, lowest
  /// first, one into each way.
  void AddPacked4(uint64_t packed) {
    uint32_t* ways = counts_.data();
    ++ways[packed & 0xFFFF];
    ++ways[buckets_ + ((packed >> 16) & 0xFFFF)];
    ++ways[2 * buckets_ + ((packed >> 32) & 0xFFFF)];
    ++ways[3 * buckets_ + (packed >> 48)];
  }

  void Add(uint16_t dist) { ++counts_[dist]; }

  void FlushInto(uint32_t* hist) const {
    const uint32_t* ways = counts_.data();
    for (size_t b = 0; b < buckets_; ++b) {
      hist[b] += (ways[b] + ways[buckets_ + b]) +
                 (ways[2 * buckets_ + b] + ways[3 * buckets_ + b]);
    }
  }

 private:
  size_t buckets_;
  std::vector<uint32_t> counts_;  // 4 ways of buckets_ counters
};

/// Prefetches the `lines` cache lines 4 KiB past `block` (a SIMD scan's
/// current block of codes) unless that runs past `end`. Between queries
/// the codes fall out of cache; the hardware streamer alone then leaves the
/// scan about a quarter short of the core's read rate.
inline void PrefetchCodes(const uint64_t* block, size_t lines,
                          const uint64_t* end) {
  constexpr size_t kAheadWords = 4096 / sizeof(uint64_t);
  if (static_cast<size_t>(end - block) <= kAheadWords + 8 * lines) return;
  for (size_t l = 0; l < lines; ++l) {
    __builtin_prefetch(block + kAheadWords + 8 * l);
  }
}

inline uint16_t HammingRowScalar(const uint64_t* row, size_t words,
                                 const uint64_t* query) {
  uint32_t d = 0;
  for (size_t w = 0; w < words; ++w) d += Popcount64(row[w] ^ query[w]);
  return static_cast<uint16_t>(d);
}

/// Rows [j, num_rows) one at a time: the scalar scan, and the SIMD scans'
/// remainder rows.
inline void HammingScanTail(const uint64_t* codes, size_t j, size_t num_rows,
                            size_t words, const uint64_t* query,
                            uint16_t* dists, HammingHistogram* histogram) {
  for (; j < num_rows; ++j) {
    dists[j] = HammingRowScalar(codes + j * words, words, query);
    histogram->Add(dists[j]);
  }
}

inline void HammingScanScalar(const uint64_t* codes, size_t num_rows,
                              size_t words, const uint64_t* query,
                              uint16_t* dists, uint32_t* hist) {
  HammingHistogram histogram(words);
  const size_t n4 = num_rows & ~static_cast<size_t>(3);
  for (size_t j = 0; j < n4; j += 4) {
    uint64_t packed = 0;
    for (size_t l = 0; l < 4; ++l) {
      const uint16_t d =
          HammingRowScalar(codes + (j + l) * words, words, query);
      dists[j + l] = d;
      packed |= static_cast<uint64_t>(d) << (16 * l);
    }
    histogram.AddPacked4(packed);
  }
  HammingScanTail(codes, n4, num_rows, words, query, dists, &histogram);
  histogram.FlushInto(hist);
}

/// The sign-encode contract in scalar form: one blocked-8 dot per plane.
inline void SignEncodeRowsScalar(const double* planes_t, size_t dim,
                                 size_t bits, const double* rows,
                                 size_t num_rows, uint64_t* codes) {
  const size_t words = (bits + 63) / 64;
  for (size_t j = 0; j < num_rows; ++j) {
    uint64_t* code = codes + j * words;
    for (size_t w = 0; w < words; ++w) code[w] = 0;
    for (size_t b = 0; b < bits; ++b) {
      if (DotBlocked(rows + j * dim, 1, planes_t + b, bits, dim) >= 0.0) {
        code[b / 64] |= uint64_t{1} << (b % 64);
      }
    }
  }
}

inline double I8DotScalar(const int8_t* x, const double* wscaled, size_t n) {
  double p[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      p[l] += static_cast<double>(x[i + l]) * wscaled[i + l];
    }
  }
  for (; i < n; ++i) p[i - n8] += static_cast<double>(x[i]) * wscaled[i];
  return CombinePartials8(p);
}

}  // namespace detail

/// Internal: per-backend table constructors. Only the backends compiled
/// into this build are defined (see src/CMakeLists.txt); kernels.cc gates
/// on DISMASTD_KERNELS_HAVE_AVX2 / _AVX512.
const KernelTable& ScalarKernels();
const KernelTable& Avx2Kernels();
const KernelTable& Avx512Kernels();

}  // namespace kernels
}  // namespace dismastd

#endif  // DISMASTD_KERNELS_KERNELS_DETAIL_H_
