// AVX-512 kernel backend. Compiled with -mavx512f -mavx512bw -mavx512dq
// -mavx512vl -ffp-contract=off (see src/CMakeLists.txt). Like the AVX2
// backend it never uses FMA: element-wise kernels are lane-parallel over
// independent outputs and reductions keep one 8-lane accumulator whose
// lanes are exactly the blocked-8 partial sums, reduced 512 -> 256 -> 128
// -> 64 in the contract's combine-tree order.

#include "kernels/kernels_detail.h"

#if defined(__AVX512F__)
#include <immintrin.h>

#include <algorithm>
#include <vector>

namespace dismastd {
namespace kernels {
namespace {

/// Reduces an 8-lane accumulator plus a scalar tail. The lanes of `acc`
/// are the blocked-8 partials p0..p7; spilling and reusing
/// CombinePartials8 keeps the combine tree identical to every backend.
inline double ReduceWithTail(__m512d acc, const double* x, size_t incx,
                             const double* y, size_t incy, size_t n,
                             size_t n8) {
  alignas(64) double p[8];
  _mm512_store_pd(p, acc);
  for (size_t i = n8; i < n; ++i) {
    p[i - n8] += x[i * incx] * y[i * incy];
  }
  return detail::CombinePartials8(p);
}

void HadamardCombineAvx512(const double* const* rows, size_t num_rows,
                           size_t rank, double* out) {
  const size_t r8 = rank & ~static_cast<size_t>(7);
  size_t f = 0;
  for (; f < r8; f += 8) {
    __m512d v = _mm512_set1_pd(1.0);
    for (size_t m = 0; m < num_rows; ++m) {
      v = _mm512_mul_pd(v, _mm512_loadu_pd(rows[m] + f));
    }
    _mm512_storeu_pd(out + f, v);
  }
  for (; f < rank; ++f) {
    double v = 1.0;
    for (size_t m = 0; m < num_rows; ++m) v *= rows[m][f];
    out[f] = v;
  }
}

/// Lane mask covering columns [f, min(f + 8, rank)): 0xFF for a full block,
/// the low rank - f bits for the last one. The row kernels below use it
/// only as the in-width mask of a tail (see Cols); the per-column numerator
/// of ranks above 16 (BlockedDotColumns8), the sign encode and the Hamming
/// scan still run their last block as a masked 512-bit access.
inline __mmask8 ColumnMask(size_t f, size_t rank) {
  const size_t left = rank - f;
  return left >= 8 ? static_cast<__mmask8>(0xFF)
                   : static_cast<__mmask8>((1u << left) - 1u);
}

/// How the row kernels load and store one block of at most 8 columns of an
/// R-wide row: a full block as one unmasked zmm, a tail of t < 8 columns
/// at the narrowest width that covers it (xmm for t <= 2, ymm for t <= 4,
/// zmm otherwise), masked within that width, and no block not at all. The
/// value is always a zmm whose lanes past the block are zero, exactly what
/// a 512-bit masked load gives, so every lane sees the same operations
/// whatever the width. (A 512-bit masked tail at R = 10 measured about 1.6x
/// slower in the row-run MTTKRP than a 128-bit one.)
enum class Cols { kNone, kXmm, kYmm, kZmm, kFull };

/// The class of a block of n columns, 1 <= n <= 8.
constexpr Cols BlockCols(size_t n) {
  return n == 8 ? Cols::kFull
         : n > 4 ? Cols::kZmm
         : n > 2 ? Cols::kYmm
                 : Cols::kXmm;
}

/// The first column of a rank-column row's last 16-column chunk (rank >= 1).
inline size_t LastChunkBegin(size_t rank) { return rank - (rank - 1) % 16 - 1; }

// GCC 12's zext/cast intrinsics pass a self-initialized "undefined" vector
// to their builtins, which -Wuninitialized flags once inlined (GCC PR105593,
// the header noise the -Wno-maybe-uninitialized flag of this file covers).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
template <Cols kCols>
__attribute__((always_inline)) inline __m512d LoadCols(const double* p,
                                                       __mmask8 mask) {
  if constexpr (kCols == Cols::kNone) {
    return _mm512_setzero_pd();
  } else if constexpr (kCols == Cols::kXmm) {
    return _mm512_zextpd128_pd512(_mm_maskz_loadu_pd(mask, p));
  } else if constexpr (kCols == Cols::kYmm) {
    return _mm512_zextpd256_pd512(_mm256_maskz_loadu_pd(mask, p));
  } else if constexpr (kCols == Cols::kZmm) {
    return _mm512_maskz_loadu_pd(mask, p);
  } else {
    return _mm512_loadu_pd(p);
  }
}

template <Cols kCols>
__attribute__((always_inline)) inline void StoreCols(double* p, __mmask8 mask,
                                                     __m512d v) {
  // The empty asm keeps the low part in a register: GCC would otherwise
  // fold the cast and the store into a masked VEXTRACTF64X4 (or X2) to
  // memory, which faults on masked-off lanes past the row's end.
  if constexpr (kCols == Cols::kXmm) {
    __m128d low = _mm512_castpd512_pd128(v);
    asm("" : "+v"(low));
    _mm_mask_storeu_pd(p, mask, low);
  } else if constexpr (kCols == Cols::kYmm) {
    __m256d low = _mm512_castpd512_pd256(v);
    asm("" : "+v"(low));
    _mm256_mask_storeu_pd(p, mask, low);
  } else if constexpr (kCols == Cols::kZmm) {
    _mm512_mask_storeu_pd(p, mask, v);
  } else if constexpr (kCols == Cols::kFull) {
    _mm512_storeu_pd(p, v);
  }
}
#pragma GCC diagnostic pop

/// The row kernels walk a row in chunks of 16 columns, two blocks each;
/// every chunk but the last is two full blocks. Calls
/// body.template operator()<kLo, kHi>() with the classes of the last
/// chunk's two blocks (rank >= 1), so the loops inside run branch-free.
template <typename Body>
__attribute__((always_inline)) inline void WithLastChunk(size_t rank,
                                                         Body&& body) {
  const size_t cols = rank - LastChunkBegin(rank);  // 1 to 16
  if (cols <= 8) {
    switch (BlockCols(cols)) {
      case Cols::kXmm:
        return body.template operator()<Cols::kXmm, Cols::kNone>();
      case Cols::kYmm:
        return body.template operator()<Cols::kYmm, Cols::kNone>();
      case Cols::kZmm:
        return body.template operator()<Cols::kZmm, Cols::kNone>();
      default:
        return body.template operator()<Cols::kFull, Cols::kNone>();
    }
  }
  switch (BlockCols(cols - 8)) {
    case Cols::kXmm:
      return body.template operator()<Cols::kFull, Cols::kXmm>();
    case Cols::kYmm:
      return body.template operator()<Cols::kFull, Cols::kYmm>();
    case Cols::kZmm:
      return body.template operator()<Cols::kFull, Cols::kZmm>();
    default:
      return body.template operator()<Cols::kFull, Cols::kFull>();
  }
}

/// Columns [f, f + 16) of MttkrpCooAvx512's pass, the blocks of classes
/// kLo and kHi: the current output row stays in two accumulators while
/// consecutive entries share it.
template <Cols kLo, Cols kHi>
void MttkrpCooChunkAvx512(const uint64_t* indices, const double* values,
                          size_t nnz, size_t order, size_t mode,
                          const double* const* factors, size_t rank, size_t f,
                          double* out) {
  const __mmask8 mask0 = ColumnMask(f, rank);
  const __mmask8 mask1 =
      f + 8 < rank ? ColumnMask(f + 8, rank) : static_cast<__mmask8>(0);
  double* row = nullptr;
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  for (size_t e = 0; e < nnz; ++e) {
    const uint64_t* idx = indices + e * order;
    double* target = out + idx[mode] * rank + f;
    if (target != row) {
      if (row != nullptr) {
        StoreCols<kLo>(row, mask0, acc0);
        StoreCols<kHi>(row + 8, mask1, acc1);
      }
      row = target;
      acc0 = LoadCols<kLo>(row, mask0);
      acc1 = LoadCols<kHi>(row + 8, mask1);
    }
    __m512d v0 = _mm512_set1_pd(values[e]);
    __m512d v1 = v0;
    for (size_t m = 0; m < order; ++m) {
      if (m == mode) continue;
      const double* src = factors[m] + idx[m] * rank + f;
      v0 = _mm512_mul_pd(v0, LoadCols<kLo>(src, mask0));
      if constexpr (kHi != Cols::kNone) {
        v1 = _mm512_mul_pd(v1, LoadCols<kHi>(src + 8, mask1));
      }
    }
    acc0 = _mm512_add_pd(acc0, v0);
    if constexpr (kHi != Cols::kNone) acc1 = _mm512_add_pd(acc1, v1);
  }
  if (row != nullptr) {
    StoreCols<kLo>(row, mask0, acc0);
    StoreCols<kHi>(row + 8, mask1, acc1);
  }
}

void MttkrpCooAvx512(const uint64_t* indices, const double* values,
                     size_t nnz, size_t order, size_t mode,
                     const double* const* factors, size_t rank,
                     double* out) {
  // Sixteen columns per pass over the entries.
  if (rank == 0) return;
  WithLastChunk(rank, [&]<Cols kLo, Cols kHi>() {
    const size_t last_chunk = LastChunkBegin(rank);
    for (size_t f = 0; f < last_chunk; f += 16) {
      MttkrpCooChunkAvx512<Cols::kFull, Cols::kFull>(
          indices, values, nnz, order, mode, factors, rank, f, out);
    }
    MttkrpCooChunkAvx512<kLo, kHi>(indices, values, nnz, order, mode,
                                   factors, rank, last_chunk, out);
  });
}

/// Adds entry e's product into acc0/acc1, columns [f, f + 16) in blocks of
/// classes kLo and kHi: the value times the entry's factor rows in
/// ascending mode order, as MttkrpCooAvx512 forms it. kOthers is the number
/// of modes other than `mode`, or 0 to read it from `others`.
template <size_t kOthers, Cols kLo, Cols kHi>
__attribute__((always_inline)) inline void AddRunEntryAvx512(
    size_t e, const uint32_t* indices, const double* values, size_t others,
    size_t mode, const double* const* factors, size_t rank, size_t f,
    __mmask8 mask0, __mmask8 mask1, __m512d* acc0, __m512d* acc1) {
  const size_t n = kOthers != 0 ? kOthers : others;
  const uint32_t* idx = indices + e * n;
  __m512d v0 = _mm512_set1_pd(values[e]);
  __m512d v1 = v0;
  for (size_t t = 0; t < n; ++t) {
    const double* src = factors[t < mode ? t : t + 1] +
                        static_cast<size_t>(idx[t]) * rank + f;
    v0 = _mm512_mul_pd(v0, LoadCols<kLo>(src, mask0));
    if constexpr (kHi != Cols::kNone) {
      v1 = _mm512_mul_pd(v1, LoadCols<kHi>(src + 8, mask1));
    }
  }
  *acc0 = _mm512_add_pd(*acc0, v0);
  if constexpr (kHi != Cols::kNone) *acc1 = _mm512_add_pd(*acc1, v1);
}

/// Columns [f, f + 16) of one run, the output row held in two
/// accumulators across the run.
template <size_t kOthers, Cols kLo, Cols kHi>
__attribute__((always_inline)) inline void MttkrpRunChunkAvx512(
    double* row, size_t begin, size_t end, const uint32_t* indices,
    const double* values, size_t others, size_t mode,
    const double* const* factors, size_t rank, size_t f, __mmask8 mask0,
    __mmask8 mask1) {
  __m512d acc0 = LoadCols<kLo>(row + f, mask0);
  __m512d acc1 = LoadCols<kHi>(row + f + 8, mask1);
  for (size_t e = begin; e < end; ++e) {
    AddRunEntryAvx512<kOthers, kLo, kHi>(e, indices, values, others, mode,
                                         factors, rank, f, mask0, mask1,
                                         &acc0, &acc1);
  }
  StoreCols<kLo>(row + f, mask0, acc0);
  StoreCols<kHi>(row + f + 8, mask1, acc1);
}

/// One run at a time, 16 columns at a time, the last chunk's blocks of
/// classes kLo and kHi. (Pairing two runs' independent chains measured no
/// faster: the factor-row loads, not the additions, bound it.)
template <size_t kOthers, Cols kLo, Cols kHi>
void MttkrpRowsAvx512Impl(const uint32_t* rows, const uint32_t* row_begin,
                          size_t num_rows, const uint32_t* indices,
                          const double* values, size_t order, size_t mode,
                          const double* const* factors, size_t rank,
                          double* out) {
  const size_t others = order - 1;
  const size_t last_chunk = LastChunkBegin(rank);
  const __mmask8 mask0 = ColumnMask(last_chunk, rank);
  const __mmask8 mask1 = last_chunk + 8 < rank
                             ? ColumnMask(last_chunk + 8, rank)
                             : static_cast<__mmask8>(0);
  for (size_t j = 0; j < num_rows; ++j) {
    double* row = out + static_cast<size_t>(rows[j]) * rank;
    for (size_t f = 0; f < last_chunk; f += 16) {
      MttkrpRunChunkAvx512<kOthers, Cols::kFull, Cols::kFull>(
          row, row_begin[j], row_begin[j + 1], indices, values, others, mode,
          factors, rank, f, 0xFF, 0xFF);
    }
    MttkrpRunChunkAvx512<kOthers, kLo, kHi>(
        row, row_begin[j], row_begin[j + 1], indices, values, others, mode,
        factors, rank, last_chunk, mask0, mask1);
  }
}

void MttkrpRowsAvx512(const uint32_t* rows, const uint32_t* row_begin,
                      size_t num_rows, const uint32_t* indices,
                      const double* values, size_t order, size_t mode,
                      const double* const* factors, size_t rank,
                      double* out) {
  if (rank == 0) return;
  WithLastChunk(rank, [&]<Cols kLo, Cols kHi>() {
    if (order == 3) {
      MttkrpRowsAvx512Impl<2, kLo, kHi>(rows, row_begin, num_rows, indices,
                                        values, order, mode, factors, rank,
                                        out);
    } else {
      MttkrpRowsAvx512Impl<0, kLo, kHi>(rows, row_begin, num_rows, indices,
                                        values, order, mode, factors, rank,
                                        out);
    }
  });
}

/// Adds rows [j0, j1) into output rows [i0, i0 + kRows), columns
/// [c, c + 16) in blocks of classes kLo and kHi: 2 * kRows independent
/// accumulator chains, each seeing its additions in row order.
template <size_t kRows, Cols kLo, Cols kHi>
inline void GramTileAvx512(const double* x, const double* y,
                           const uint64_t* rows, size_t j0, size_t j1,
                           size_t rank, size_t i0, size_t c, double* out) {
  const __mmask8 mask0 = ColumnMask(c, rank);
  const __mmask8 mask1 =
      c + 8 < rank ? ColumnMask(c + 8, rank) : static_cast<__mmask8>(0);
  __m512d acc0[kRows], acc1[kRows];
  for (size_t u = 0; u < kRows; ++u) {
    acc0[u] = LoadCols<kLo>(out + (i0 + u) * rank + c, mask0);
    acc1[u] = LoadCols<kHi>(out + (i0 + u) * rank + c + 8, mask1);
  }
  for (size_t j = j0; j < j1; ++j) {
    const size_t base = rows[j] * rank;
    const __m512d y0 = LoadCols<kLo>(y + base + c, mask0);
    const __m512d y1 = LoadCols<kHi>(y + base + c + 8, mask1);
    for (size_t u = 0; u < kRows; ++u) {
      const __m512d xb = _mm512_set1_pd(x[base + i0 + u]);
      acc0[u] = _mm512_add_pd(acc0[u], _mm512_mul_pd(xb, y0));
      if constexpr (kHi != Cols::kNone) {
        acc1[u] = _mm512_add_pd(acc1[u], _mm512_mul_pd(xb, y1));
      }
    }
  }
  for (size_t u = 0; u < kRows; ++u) {
    StoreCols<kLo>(out + (i0 + u) * rank + c, mask0, acc0[u]);
    StoreCols<kHi>(out + (i0 + u) * rank + c + 8, mask1, acc1[u]);
  }
}

/// Output rows [0, rank) in tiles of 4 over columns [c, c + 16).
template <Cols kLo, Cols kHi>
inline void GramChunkAvx512(const double* x, const double* y,
                            const uint64_t* rows, size_t j0, size_t j1,
                            size_t rank, size_t c, double* out) {
  for (size_t i0 = 0; i0 < rank; i0 += 4) {
    switch (std::min<size_t>(4, rank - i0)) {
      case 4:
        GramTileAvx512<4, kLo, kHi>(x, y, rows, j0, j1, rank, i0, c, out);
        break;
      case 3:
        GramTileAvx512<3, kLo, kHi>(x, y, rows, j0, j1, rank, i0, c, out);
        break;
      case 2:
        GramTileAvx512<2, kLo, kHi>(x, y, rows, j0, j1, rank, i0, c, out);
        break;
      default:
        GramTileAvx512<1, kLo, kHi>(x, y, rows, j0, j1, rank, i0, c, out);
        break;
    }
  }
}

void GramUpdateRowsAvx512(const double* x, const double* y,
                          const uint64_t* rows, size_t num_rows, size_t rank,
                          double* out) {
  // Tiles of 4 output rows x 16 columns run over a cache-resident block of
  // input rows with their accumulators in registers.
  if (rank == 0) return;
  constexpr size_t kRowBlock = 128;
  WithLastChunk(rank, [&]<Cols kLo, Cols kHi>() {
    const size_t last_chunk = LastChunkBegin(rank);
    for (size_t j0 = 0; j0 < num_rows; j0 += kRowBlock) {
      const size_t j1 = std::min(num_rows, j0 + kRowBlock);
      for (size_t c = 0; c < last_chunk; c += 16) {
        GramChunkAvx512<Cols::kFull, Cols::kFull>(x, y, rows, j0, j1, rank, c,
                                                  out);
      }
      GramChunkAvx512<kLo, kHi>(x, y, rows, j0, j1, rank, last_chunk, out);
    }
  });
}

/// The blocked-8 dots of x (n doubles) against columns [c, c + 8) of the
/// row-major matrix m (row stride `stride`), masked to `mask`: p[l] holds
/// blocked-8 partial l of eight columns at once.
/// Always inlined: as an out-of-line call GCC keeps p[] in memory.
__attribute__((always_inline)) inline __m512d BlockedDotColumns8(
    const double* x, const double* m, size_t n, size_t stride, size_t c,
    __mmask8 mask) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  __m512d p[8];
  for (__m512d& lane : p) lane = _mm512_setzero_pd();
  for (size_t i = 0; i < n8; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      p[l] = _mm512_add_pd(
          p[l], _mm512_mul_pd(_mm512_set1_pd(x[i + l]),
                              _mm512_maskz_loadu_pd(
                                  mask, m + (i + l) * stride + c)));
    }
  }
  // Tail element n8 + l folds into partial l. The constant-bound loop
  // keeps every p[l] in a register.
  for (size_t l = 0; l < 8; ++l) {
    if (n8 + l < n) {
      p[l] = _mm512_add_pd(
          p[l], _mm512_mul_pd(_mm512_set1_pd(x[n8 + l]),
                              _mm512_maskz_loadu_pd(
                                  mask, m + (n8 + l) * stride + c)));
    }
  }
  const __m512d q0 = _mm512_add_pd(p[0], p[4]);
  const __m512d q1 = _mm512_add_pd(p[1], p[5]);
  const __m512d q2 = _mm512_add_pd(p[2], p[6]);
  const __m512d q3 = _mm512_add_pd(p[3], p[7]);
  return _mm512_add_pd(_mm512_add_pd(q0, q2), _mm512_add_pd(q1, q3));
}

void RowTimesMatrixAvx512(const double* x, const double* m, size_t rank,
                          double* out) {
  for (size_t c = 0; c < rank; c += 8) {
    const __mmask8 mask = ColumnMask(c, rank);
    _mm512_mask_storeu_pd(out + c, mask,
                          BlockedDotColumns8(x, m, rank, rank, c, mask));
  }
}

/// Eight planes per vector: the sign of each plane's blocked-8 dot lands
/// in the code as one byte-aligned 8-bit mask.
void SignEncodeRowsAvx512(const double* planes_t, size_t dim, size_t bits,
                          const double* rows, size_t num_rows,
                          uint64_t* codes) {
  const size_t words = (bits + 63) / 64;
  for (size_t j = 0; j < num_rows; ++j) {
    const double* x = rows + j * dim;
    uint64_t* code = codes + j * words;
    for (size_t w = 0; w < words; ++w) code[w] = 0;
    for (size_t b = 0; b < bits; b += 8) {
      const __mmask8 mask = ColumnMask(b, bits);
      const __m512d dots = BlockedDotColumns8(x, planes_t, dim, bits, b, mask);
      const __mmask8 signs =
          _mm512_mask_cmp_pd_mask(mask, dots, _mm512_setzero_pd(), _CMP_GE_OQ);
      code[b / 64] |= static_cast<uint64_t>(signs) << (b % 64);
    }
  }
}

/// Solves the rows held transposed in `lanes` (rank x 8 * kVecs) in place:
/// element i of every row is kVecs vectors, and lane l runs row l's
/// forward/back substitution. kVecs independent chains hide the divider
/// latency.
template <size_t kVecs>
inline void CholeskySolveLanesAvx512(const double* lower, size_t rank,
                                     double* lanes) {
  constexpr size_t kLanes = 8 * kVecs;
  for (size_t i = 0; i < rank; ++i) {
    __m512d sum[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      sum[v] = _mm512_loadu_pd(lanes + i * kLanes + 8 * v);
    }
    for (size_t k = 0; k < i; ++k) {
      const __m512d lik = _mm512_set1_pd(lower[i * rank + k]);
      for (size_t v = 0; v < kVecs; ++v) {
        sum[v] = _mm512_sub_pd(
            sum[v],
            _mm512_mul_pd(lik, _mm512_loadu_pd(lanes + k * kLanes + 8 * v)));
      }
    }
    const __m512d pivot = _mm512_set1_pd(lower[i * rank + i]);
    for (size_t v = 0; v < kVecs; ++v) {
      _mm512_storeu_pd(lanes + i * kLanes + 8 * v,
                       _mm512_div_pd(sum[v], pivot));
    }
  }
  for (size_t ii = rank; ii-- > 0;) {
    __m512d sum[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      sum[v] = _mm512_loadu_pd(lanes + ii * kLanes + 8 * v);
    }
    for (size_t k = ii + 1; k < rank; ++k) {
      const __m512d lki = _mm512_set1_pd(lower[k * rank + ii]);
      for (size_t v = 0; v < kVecs; ++v) {
        sum[v] = _mm512_sub_pd(
            sum[v],
            _mm512_mul_pd(lki, _mm512_loadu_pd(lanes + k * kLanes + 8 * v)));
      }
    }
    const __m512d pivot = _mm512_set1_pd(lower[ii * rank + ii]);
    for (size_t v = 0; v < kVecs; ++v) {
      _mm512_storeu_pd(lanes + ii * kLanes + 8 * v,
                       _mm512_div_pd(sum[v], pivot));
    }
  }
}

/// Solves rows [r0, r0 + width) (width <= 8 * kVecs) transposed into
/// `lanes` (rank x 8 * kVecs). Padded lanes are zero and never written
/// back.
template <size_t kVecs>
inline void CholeskySolveBlockAvx512(const double* lower, size_t rank,
                                     const double* rhs, size_t width,
                                     double* out, double* lanes) {
  constexpr size_t kLanes = 8 * kVecs;
  for (size_t i = 0; i < rank; ++i) {
    for (size_t l = 0; l < kLanes; ++l) {
      lanes[i * kLanes + l] = l < width ? rhs[l * rank + i] : 0.0;
    }
  }
  CholeskySolveLanesAvx512<kVecs>(lower, rank, lanes);
  for (size_t l = 0; l < width; ++l) {
    for (size_t i = 0; i < rank; ++i) out[l * rank + i] = lanes[i * kLanes + l];
  }
}

void CholeskySolveRowsAvx512(const double* lower, size_t rank,
                             const double* rhs, size_t num_rows,
                             double* out) {
  // The transposed block lives on the stack up to kStackRank; larger
  // systems borrow a heap buffer and run the same code.
  constexpr size_t kStackRank = 64;
  alignas(64) double stack_lanes[kStackRank * 16];
  std::vector<double> heap_lanes;
  double* lanes = stack_lanes;
  if (rank > kStackRank) {
    heap_lanes.resize(rank * 16);
    lanes = heap_lanes.data();
  }
  for (size_t r0 = 0; r0 < num_rows;) {
    const size_t left = num_rows - r0;
    const double* src = rhs + r0 * rank;
    double* dst = out + r0 * rank;
    if (left > 8) {
      const size_t width = std::min<size_t>(16, left);
      CholeskySolveBlockAvx512<2>(lower, rank, src, width, dst, lanes);
      r0 += width;
    } else {
      CholeskySolveBlockAvx512<1>(lower, rank, src, left, dst, lanes);
      r0 += left;
    }
  }
}

double DotContiguousAvx512(const double* x, const double* y, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    acc = _mm512_add_pd(
        acc, _mm512_mul_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  return ReduceWithTail(acc, x, 1, y, 1, n, n8);
}

double DotStridedAvx512(const double* x, size_t incx, const double* y,
                        size_t incy, size_t n) {
  if (incx == 1 && incy == 1) return DotContiguousAvx512(x, y, n);
  return detail::DotBlocked(x, incx, y, incy, n);
}

void TopKScoreBlockAvx512(const double* rows, size_t num_rows, size_t rank,
                          const double* weights, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = DotContiguousAvx512(rows + j * rank, weights, rank);
  }
}

/// Widens 8 bf16 lanes to 8 doubles: u16 -> u32 << 16 reinterpreted as
/// float32 (exact), then converted to float64 (exact).
inline __m512d WidenBf16x8(const Bf16* x) {
  const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x));
  const __m256i fbits = _mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16);
  return _mm512_cvtps_pd(_mm256_castsi256_ps(fbits));
}

double Bf16DotAvx512(const Bf16* x, const double* weights, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    acc = _mm512_add_pd(
        acc, _mm512_mul_pd(WidenBf16x8(x + i), _mm512_loadu_pd(weights + i)));
  }
  alignas(64) double p[8];
  _mm512_store_pd(p, acc);
  for (; i < n; ++i) p[i - n8] += detail::Bf16ToF64(x[i]) * weights[i];
  return detail::CombinePartials8(p);
}

void TopKScoreBlockBf16Avx512(const Bf16* rows, size_t num_rows, size_t rank,
                              const double* weights, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = Bf16DotAvx512(rows + j * rank, weights, rank);
  }
}

double I8DotAvx512(const int8_t* x, const double* wscaled, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i));
    const __m512d v = _mm512_cvtepi32_pd(_mm256_cvtepi8_epi32(raw));
    acc = _mm512_add_pd(acc,
                        _mm512_mul_pd(v, _mm512_loadu_pd(wscaled + i)));
  }
  alignas(64) double p[8];
  _mm512_store_pd(p, acc);
  for (; i < n; ++i) p[i - n8] += static_cast<double>(x[i]) * wscaled[i];
  return detail::CombinePartials8(p);
}

void TopKScoreBlockI8Avx512(const int8_t* rows, size_t num_rows, size_t rank,
                            const double* wscaled, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = I8DotAvx512(rows + j * rank, wscaled, rank);
  }
}

void F64ToBf16Plain(const double* src, size_t n, Bf16* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = detail::F64ToBf16(src[i]);
}

void Bf16ToF64Plain(const Bf16* src, size_t n, double* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = detail::Bf16ToF64(src[i]);
}

#if defined(DISMASTD_KERNELS_HAVE_VPOPCNTDQ)
// The VPOPCNTDQ Hamming scan is compiled with a per-function target
// attribute: the base AVX-512 feature set this TU is built with does not
// include VPOPCNTDQ, so the table constructor checks CPUID before
// installing it.
#define DISMASTD_VPOPCNTDQ __attribute__((target("avx512vpopcntdq")))

/// Order-preserving pairwise lane sums of two vectors: lanes 0..3 of the
/// result are the sums of x's adjacent lane pairs, lanes 4..7 those of y.
inline __m512i PairSums(__m512i x, __m512i y) {
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  return _mm512_add_epi64(_mm512_permutex2var_epi64(x, even, y),
                          _mm512_permutex2var_epi64(x, odd, y));
}

/// Per-lane popcounts of one row of any width against the query, in
/// masked 8-word chunks summed lane-wise: the row's distance is the sum of
/// the lanes.
DISMASTD_VPOPCNTDQ __attribute__((always_inline)) inline __m512i
HammingRowLanes(const uint64_t* row, size_t words, const uint64_t* query) {
  __m512i acc = _mm512_setzero_si512();
  for (size_t c = 0; c < words; c += 8) {
    const __mmask8 mask = ColumnMask(c, words);
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(
                 _mm512_xor_si512(_mm512_maskz_loadu_epi64(mask, row + c),
                                  _mm512_maskz_loadu_epi64(mask, query + c))));
  }
  return acc;
}

/// Hamming distances of the 8 rows at `rows`, as 8 u64 lanes in row order.
/// kSlot lanes carry one row. For a compile-time width kWords in {1, 4}
/// (kSlot = kWords) the 8 rows are kSlot contiguous vectors of 8 / kSlot
/// rows each (four 256-bit rows fit in 2 zmm), XORed with the query
/// repeated in every slot. For any other width (kWords = 0, kSlot = 8)
/// vector r is row r's HammingRowLanes. Either way log2(kSlot) levels of
/// PairSums fold each row's lanes into one, keeping row order.
template <size_t kWords>
DISMASTD_VPOPCNTDQ inline __m512i HammingRows8(const uint64_t* rows,
                                               size_t words,
                                               const uint64_t* query,
                                               __m512i query_slots) {
  constexpr size_t kSlot = kWords == 0 ? 8 : kWords;
  __m512i v[kSlot];
  if constexpr (kWords != 0) {
    for (size_t s = 0; s < kSlot; ++s) {
      v[s] = _mm512_popcnt_epi64(_mm512_xor_si512(
          _mm512_loadu_si512(rows + 8 * s), query_slots));
    }
  } else {
    // Fully unrolled, so v[] lives in registers.
#pragma GCC unroll 8
    for (size_t r = 0; r < 8; ++r) {
      v[r] = HammingRowLanes(rows + r * words, words, query);
    }
  }
  for (size_t n = kSlot; n > 1; n /= 2) {
    for (size_t i = 0; i < n / 2; ++i) v[i] = PairSums(v[2 * i], v[2 * i + 1]);
  }
  return v[0];
}

template <size_t kWords>
DISMASTD_VPOPCNTDQ void HammingScanBlocks(const uint64_t* codes,
                                          size_t num_rows, size_t words,
                                          const uint64_t* query,
                                          uint16_t* dists, uint32_t* hist) {
  alignas(64) uint64_t repeated[8];
  for (size_t l = 0; l < 8; ++l) {
    repeated[l] = query[l % std::min<size_t>(words, 8)];
  }
  const __m512i query_slots = _mm512_load_si512(repeated);
  detail::HammingHistogram histogram(words);
  const size_t n8 = num_rows & ~static_cast<size_t>(7);
  size_t j = 0;
  for (; j < n8; j += 8) {
    detail::PrefetchCodes(codes + j * words, words, codes + num_rows * words);
    const __m128i d = _mm512_cvtepi64_epi16(
        HammingRows8<kWords>(codes + j * words, words, query, query_slots));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dists + j), d);
    // Counted from registers: reloading the just-stored u16s would stall
    // on store-to-load forwarding.
    histogram.AddPacked4(static_cast<uint64_t>(_mm_cvtsi128_si64(d)));
    histogram.AddPacked4(static_cast<uint64_t>(_mm_extract_epi64(d, 1)));
  }
  detail::HammingScanTail(codes, j, num_rows, words, query, dists,
                          &histogram);
  histogram.FlushInto(hist);
}

DISMASTD_VPOPCNTDQ void HammingScanVpopcntdq(const uint64_t* codes,
                                             size_t num_rows, size_t words,
                                             const uint64_t* query,
                                             uint16_t* dists,
                                             uint32_t* hist) {
  switch (words) {
    case 1:
      return HammingScanBlocks<1>(codes, num_rows, words, query, dists, hist);
    case 4:
      return HammingScanBlocks<4>(codes, num_rows, words, query, dists, hist);
    default:
      return HammingScanBlocks<0>(codes, num_rows, words, query, dists, hist);
  }
}

bool CpuHasVpopcntdq() { return __builtin_cpu_supports("avx512vpopcntdq"); }
#endif  // DISMASTD_KERNELS_HAVE_VPOPCNTDQ

/// Transposes the 8 x 8 block of doubles held as 8 row vectors in place:
/// afterwards v[c] holds column c. Pure data movement, so exact.
inline void Transpose8x8(__m512d v[8]) {
  // Row pairs interleaved per 128-bit lane: t0 = r0c0 r1c0 | r0c2 r1c2 |
  // r0c4 r1c4 | r0c6 r1c6, t1 the same for the odd columns.
  const __m512d t0 = _mm512_unpacklo_pd(v[0], v[1]);
  const __m512d t1 = _mm512_unpackhi_pd(v[0], v[1]);
  const __m512d t2 = _mm512_unpacklo_pd(v[2], v[3]);
  const __m512d t3 = _mm512_unpackhi_pd(v[2], v[3]);
  const __m512d t4 = _mm512_unpacklo_pd(v[4], v[5]);
  const __m512d t5 = _mm512_unpackhi_pd(v[4], v[5]);
  const __m512d t6 = _mm512_unpacklo_pd(v[6], v[7]);
  const __m512d t7 = _mm512_unpackhi_pd(v[6], v[7]);
  // u0 = (r0,r1)c0 | (r0,r1)c4 | (r2,r3)c0 | (r2,r3)c4, and so on.
  const __m512d u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
  const __m512d u1 = _mm512_shuffle_f64x2(t1, t3, 0x88);
  const __m512d u2 = _mm512_shuffle_f64x2(t0, t2, 0xDD);
  const __m512d u3 = _mm512_shuffle_f64x2(t1, t3, 0xDD);
  const __m512d u4 = _mm512_shuffle_f64x2(t4, t6, 0x88);
  const __m512d u5 = _mm512_shuffle_f64x2(t5, t7, 0x88);
  const __m512d u6 = _mm512_shuffle_f64x2(t4, t6, 0xDD);
  const __m512d u7 = _mm512_shuffle_f64x2(t5, t7, 0xDD);
  v[0] = _mm512_shuffle_f64x2(u0, u4, 0x88);
  v[4] = _mm512_shuffle_f64x2(u0, u4, 0xDD);
  v[1] = _mm512_shuffle_f64x2(u1, u5, 0x88);
  v[5] = _mm512_shuffle_f64x2(u1, u5, 0xDD);
  v[2] = _mm512_shuffle_f64x2(u2, u6, 0x88);
  v[6] = _mm512_shuffle_f64x2(u2, u6, 0xDD);
  v[3] = _mm512_shuffle_f64x2(u3, u7, 0x88);
  v[7] = _mm512_shuffle_f64x2(u3, u7, 0xDD);
}

/// The fused row update keeps a row in two vectors, so it runs at ranks up
/// to 16; larger ranks compose the kernels block by block.
constexpr size_t kFusedMaxRank = 16;
/// 8-row groups per block: independent chains through the solve.
constexpr size_t kFusedGroups = 2;
constexpr size_t kFusedBlock = 8 * kFusedGroups;

/// Rows rows[0, count) (count <= 8) of the row-major `rank`-column m,
/// transposed: column i of the 8-row group lands in lanes + i * kFusedBlock
/// (lanes past count are zero). Columns [0, 8) and [8, rank) are blocks of
/// classes kLo and kHi.
template <Cols kLo, Cols kHi>
inline void GatherColumns(const double* m, const uint64_t* rows, size_t count,
                          size_t rank, double* lanes) {
  const __mmask8 lo = ColumnMask(0, rank);
  const __mmask8 hi =
      rank > 8 ? ColumnMask(8, rank) : static_cast<__mmask8>(0);
  __m512d a[8], b[8];
  for (size_t l = 0; l < 8; ++l) {
    a[l] = _mm512_setzero_pd();
    b[l] = _mm512_setzero_pd();
    if (l < count) {
      const double* row = m + rows[l] * rank;
      a[l] = LoadCols<kLo>(row, lo);
      b[l] = LoadCols<kHi>(row + 8, hi);
    }
  }
  Transpose8x8(a);
  for (size_t i = 0; i < 8 && i < rank; ++i) {
    _mm512_storeu_pd(lanes + i * kFusedBlock, a[i]);
  }
  if constexpr (kHi != Cols::kNone) {
    Transpose8x8(b);
    for (size_t i = 8; i < rank; ++i) {
      _mm512_storeu_pd(lanes + i * kFusedBlock, b[i - 8]);
    }
  }
}

/// The old rows' numerators of one 8-row group, in place over the group's
/// transposed MTTKRP rows in `lanes`: lane l of column c becomes mu *
/// d + mttkrp[r_l][c], where d is the blocked-8 dot of prev[r_l] with
/// column c of had_h — partial k accumulates elements k, k + 8 in order and
/// the partials combine in the contract's tree, as in BlockedDotColumns8
/// (lane-parallel over rows here instead of over columns).
inline void NumeratorColumns(const double* prev_lanes, const double* had_h,
                             double mu, size_t rank, double* lanes) {
  __m512d x[kFusedMaxRank];
  for (size_t i = 0; i < kFusedMaxRank; ++i) {
    x[i] = i < rank ? _mm512_loadu_pd(prev_lanes + i * kFusedBlock)
                    : _mm512_setzero_pd();
  }
  const __m512d mu_v = _mm512_set1_pd(mu);
  for (size_t c = 0; c < rank; ++c) {
    __m512d p[8];
    for (__m512d& lane : p) lane = _mm512_setzero_pd();
    for (size_t i = 0; i < kFusedMaxRank; ++i) {
      if (i < rank) {
        p[i % 8] = _mm512_add_pd(
            p[i % 8],
            _mm512_mul_pd(x[i], _mm512_set1_pd(had_h[i * rank + c])));
      }
    }
    const __m512d q0 = _mm512_add_pd(p[0], p[4]);
    const __m512d q1 = _mm512_add_pd(p[1], p[5]);
    const __m512d q2 = _mm512_add_pd(p[2], p[6]);
    const __m512d q3 = _mm512_add_pd(p[3], p[7]);
    const __m512d d =
        _mm512_add_pd(_mm512_add_pd(q0, q2), _mm512_add_pd(q1, q3));
    double* m = lanes + c * kFusedBlock;
    _mm512_storeu_pd(m, _mm512_add_pd(_mm512_mul_pd(mu_v, d),
                                      _mm512_loadu_pd(m)));
  }
}

/// Writes the solved rows of one 8-row group (transposed in `lanes`) to
/// factor[rows[l]] and adds them into the Gram partials: for each Gram row
/// i, the rows' rank-1 terms z[i] * z (and prev[r][i] * z into `cross`,
/// with the previous rows transposed in prev_lanes, or none when null) in
/// row order, the accumulators held in registers across the group. kFull
/// groups have all 8 rows, so the row loops unroll and the transposed rows
/// stay in registers. Every R-wide row (factor, gram and cross) is
/// accessed in blocks of classes kLo and kHi.
template <bool kFull, Cols kLo, Cols kHi>
__attribute__((always_inline)) inline void WriteBackAndGram(
    const double* lanes, const double* prev_lanes, const uint64_t* rows,
    size_t count, size_t rank, double* factor, double* gram, double* cross) {
  const size_t n = kFull ? 8 : count;
  const __mmask8 lo = ColumnMask(0, rank);
  const __mmask8 hi =
      rank > 8 ? ColumnMask(8, rank) : static_cast<__mmask8>(0);
  __m512d a[8], b[8];
  for (size_t i = 0; i < 8; ++i) {
    a[i] = i < rank ? _mm512_loadu_pd(lanes + i * kFusedBlock)
                    : _mm512_setzero_pd();
    b[i] = i + 8 < rank ? _mm512_loadu_pd(lanes + (i + 8) * kFusedBlock)
                        : _mm512_setzero_pd();
  }
  Transpose8x8(a);
  if constexpr (kHi != Cols::kNone) Transpose8x8(b);
  for (size_t l = 0; l < n; ++l) {
    double* row = factor + rows[l] * rank;
    StoreCols<kLo>(row, lo, a[l]);
    StoreCols<kHi>(row + 8, hi, b[l]);
  }
  for (size_t i = 0; i < rank; ++i) {
    double* g = gram + i * rank;
    __m512d g0 = LoadCols<kLo>(g, lo);
    __m512d g1 = LoadCols<kHi>(g + 8, hi);
    for (size_t l = 0; l < n; ++l) {
      const __m512d zi = _mm512_set1_pd(lanes[i * kFusedBlock + l]);
      g0 = _mm512_add_pd(g0, _mm512_mul_pd(zi, a[l]));
      if constexpr (kHi != Cols::kNone) {
        g1 = _mm512_add_pd(g1, _mm512_mul_pd(zi, b[l]));
      }
    }
    StoreCols<kLo>(g, lo, g0);
    StoreCols<kHi>(g + 8, hi, g1);
    if (prev_lanes == nullptr) continue;
    double* h = cross + i * rank;
    __m512d h0 = LoadCols<kLo>(h, lo);
    __m512d h1 = LoadCols<kHi>(h + 8, hi);
    for (size_t l = 0; l < n; ++l) {
      const __m512d pi = _mm512_set1_pd(prev_lanes[i * kFusedBlock + l]);
      h0 = _mm512_add_pd(h0, _mm512_mul_pd(pi, a[l]));
      if constexpr (kHi != Cols::kNone) {
        h1 = _mm512_add_pd(h1, _mm512_mul_pd(pi, b[l]));
      }
    }
    StoreCols<kLo>(h, lo, h0);
    StoreCols<kHi>(h + 8, hi, h1);
  }
}

/// update_rows at rank <= 16, one pass over blocks of 16 rows: each 8-row
/// group's MTTKRP (and previous) rows are loaded once and transposed in
/// registers, the numerators are formed lane-parallel over rows, both
/// groups are solved together in the transposed block, and the solved rows
/// are transposed back, written to the factor and added into the Gram
/// partials while still in registers. Each lane runs the scalar
/// reference's operation sequence, so the bits are the composition's. The
/// row's one 16-column chunk has blocks of classes kLo and kHi.
template <Cols kLo, Cols kHi>
void UpdateRowsFusedAvx512(const uint64_t* rows, size_t num_rows, size_t rank,
                           const double* prev, const double* had_h, double mu,
                           const double* mttkrp, const double* lower,
                           double* factor, double* gram, double* cross) {
  alignas(64) double lanes[kFusedMaxRank * kFusedBlock];
  alignas(64) double prev_lanes[kFusedMaxRank * kFusedBlock];
  for (size_t j0 = 0; j0 < num_rows; j0 += kFusedBlock) {
    const size_t width = std::min(kFusedBlock, num_rows - j0);
    const size_t ahead_end = std::min(num_rows, j0 + 2 * kFusedBlock);
    for (size_t j = j0 + kFusedBlock; j < ahead_end; ++j) {
      const size_t offset = rows[j] * rank;
      if (lower != nullptr) detail::PrefetchRow(mttkrp + offset, rank, false);
      if (prev != nullptr) detail::PrefetchRow(prev + offset, rank, false);
      detail::PrefetchRow(factor + offset, rank, true);
    }
    for (size_t g = 0; prev != nullptr && g * 8 < width; ++g) {
      GatherColumns<kLo, kHi>(prev, rows + j0 + 8 * g,
                              std::min<size_t>(8, width - 8 * g), rank,
                              prev_lanes + 8 * g);
    }
    if (lower == nullptr) {
      std::fill(lanes, lanes + rank * kFusedBlock, 0.0);
    } else {
      for (size_t g = 0; g * 8 < width; ++g) {
        GatherColumns<kLo, kHi>(mttkrp, rows + j0 + 8 * g,
                                std::min<size_t>(8, width - 8 * g), rank,
                                lanes + 8 * g);
        if (prev != nullptr) {
          NumeratorColumns(prev_lanes + 8 * g, had_h, mu, rank,
                           lanes + 8 * g);
        }
      }
      if (width <= 8) {
        // Clear the second group so its lanes solve harmlessly.
        for (size_t i = 0; i < rank; ++i) {
          _mm512_storeu_pd(lanes + i * kFusedBlock + 8, _mm512_setzero_pd());
        }
      }
      CholeskySolveLanesAvx512<kFusedGroups>(lower, rank, lanes);
    }
    for (size_t g = 0; g * 8 < width; ++g) {
      const size_t count = std::min<size_t>(8, width - 8 * g);
      const double* group_prev = prev != nullptr ? prev_lanes + 8 * g : nullptr;
      if (count == 8) {
        WriteBackAndGram<true, kLo, kHi>(lanes + 8 * g, group_prev,
                                         rows + j0 + 8 * g, 8, rank, factor,
                                         gram, cross);
      } else {
        WriteBackAndGram<false, kLo, kHi>(lanes + 8 * g, group_prev,
                                          rows + j0 + 8 * g, count, rank,
                                          factor, gram, cross);
      }
    }
  }
}

void UpdateRowsAvx512(const uint64_t* rows, size_t num_rows, size_t rank,
                      const double* prev, const double* had_h, double mu,
                      const double* mttkrp, const double* lower,
                      double* factor, double* gram, double* cross) {
  if (rank == 0) return;
  if (rank <= kFusedMaxRank) {
    WithLastChunk(rank, [&]<Cols kLo, Cols kHi>() {
      UpdateRowsFusedAvx512<kLo, kHi>(rows, num_rows, rank, prev, had_h, mu,
                                      mttkrp, lower, factor, gram, cross);
    });
    return;
  }
  detail::UpdateRowsBlocked<16, RowTimesMatrixAvx512, CholeskySolveRowsAvx512,
                            GramUpdateRowsAvx512>(
      rows, num_rows, rank, prev, had_h, mu, mttkrp, lower, factor, gram,
      cross);
}

}  // namespace

const KernelTable& Avx512Kernels() {
  static const KernelTable table = [] {
    KernelTable t;
    t.backend = Backend::kAvx512;
    t.hadamard_combine = HadamardCombineAvx512;
    t.mttkrp_coo = MttkrpCooAvx512;
    t.mttkrp_rows = MttkrpRowsAvx512;
    t.gram_update_rows = GramUpdateRowsAvx512;
    t.cholesky_solve_rows = CholeskySolveRowsAvx512;
    t.update_rows = UpdateRowsAvx512;
    t.dot_strided = DotStridedAvx512;
    t.topk_score_block = TopKScoreBlockAvx512;
    t.f64_to_bf16 = F64ToBf16Plain;
    t.bf16_to_f64 = Bf16ToF64Plain;
    t.bf16_dot = Bf16DotAvx512;
    t.topk_score_block_bf16 = TopKScoreBlockBf16Avx512;
    t.i8_dot = I8DotAvx512;
    t.topk_score_block_i8 = TopKScoreBlockI8Avx512;
    t.sign_encode_rows = SignEncodeRowsAvx512;
    // Without VPOPCNTDQ the AVX2 nibble-LUT scan (every AVX-512 CPU has
    // AVX2) is the fastest exact one.
    t.hamming_scan = detail::HammingScanScalar;
#if defined(DISMASTD_KERNELS_HAVE_AVX2)
    t.hamming_scan = Avx2Kernels().hamming_scan;
#endif
#if defined(DISMASTD_KERNELS_HAVE_VPOPCNTDQ)
    if (CpuHasVpopcntdq()) t.hamming_scan = HammingScanVpopcntdq;
#endif
    return t;
  }();
  return table;
}

}  // namespace kernels
}  // namespace dismastd

#endif  // defined(__AVX512F__)
