// AVX2 kernel backend. Compiled with -mavx2 -ffp-contract=off (see
// src/CMakeLists.txt) and uses separate mul/add intrinsics — never FMA —
// so every fp64 entry point is bit-exact against the scalar backend:
// element-wise kernels run the same per-element operation chains
// lane-parallel, and reductions keep the blocked-8 lane classes (accA =
// classes 0..3, accB = classes 4..7) with scalar tails folding into the
// same partial sums.

#include "kernels/kernels_detail.h"

#if defined(__AVX2__)
#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

namespace dismastd {
namespace kernels {
namespace {

void HadamardCombineAvx2(const double* const* rows, size_t num_rows,
                         size_t rank, double* out) {
  const size_t r4 = rank & ~static_cast<size_t>(3);
  size_t f = 0;
  for (; f < r4; f += 4) {
    __m256d v = _mm256_set1_pd(1.0);
    for (size_t m = 0; m < num_rows; ++m) {
      v = _mm256_mul_pd(v, _mm256_loadu_pd(rows[m] + f));
    }
    _mm256_storeu_pd(out + f, v);
  }
  for (; f < rank; ++f) {
    double v = 1.0;
    for (size_t m = 0; m < num_rows; ++m) v *= rows[m][f];
    out[f] = v;
  }
}

/// Column block [f, min(f + 4, rank)) of a row: full blocks use plain
/// loads/stores, the last block masks off the columns past `rank`, so the
/// remainder runs through the same vector code (masked lanes are neither
/// loaded nor stored, and the active lanes see exactly the scalar ops).
struct ColumnBlock {
  ColumnBlock(size_t f, size_t rank)
      : full(rank - f >= 4),
        mask(_mm256_set_epi64x(rank - f > 3 ? -1 : 0, rank - f > 2 ? -1 : 0,
                               rank - f > 1 ? -1 : 0, -1)) {}
  __m256d Load(const double* p) const {
    return full ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, mask);
  }
  void Store(double* p, __m256d v) const {
    if (full) {
      _mm256_storeu_pd(p, v);
    } else {
      _mm256_maskstore_pd(p, mask, v);
    }
  }
  bool full;
  __m256i mask;
};

void MttkrpCooAvx2(const uint64_t* indices, const double* values,
                   size_t nnz, size_t order, size_t mode,
                   const double* const* factors, size_t rank, double* out) {
  // Eight columns per pass over the entries: two 4-lane accumulators, the
  // second (or both) masked down to the columns left.
  for (size_t f = 0; f < rank; f += 8) {
    const ColumnBlock block0(f, rank);
    const bool has_hi = f + 4 < rank;
    const ColumnBlock block1(has_hi ? f + 4 : f, rank);
    double* row = nullptr;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t e = 0; e < nnz; ++e) {
      const uint64_t* idx = indices + e * order;
      double* target = out + idx[mode] * rank + f;
      if (target != row) {
        if (row != nullptr) {
          block0.Store(row, acc0);
          if (has_hi) block1.Store(row + 4, acc1);
        }
        row = target;
        acc0 = block0.Load(row);
        if (has_hi) acc1 = block1.Load(row + 4);
      }
      __m256d v0 = _mm256_set1_pd(values[e]);
      __m256d v1 = v0;
      for (size_t m = 0; m < order; ++m) {
        if (m == mode) continue;
        const double* src = factors[m] + idx[m] * rank + f;
        v0 = _mm256_mul_pd(v0, block0.Load(src));
        if (has_hi) v1 = _mm256_mul_pd(v1, block1.Load(src + 4));
      }
      acc0 = _mm256_add_pd(acc0, v0);
      acc1 = _mm256_add_pd(acc1, v1);
    }
    if (row != nullptr) {
      block0.Store(row, acc0);
      if (has_hi) block1.Store(row + 4, acc1);
    }
  }
}

/// Adds entry e's product into acc0/acc1, columns [f, f + 8) of `block0`
/// and `block1` (the high block only when has_hi): the value times the
/// entry's factor rows in ascending mode order, as MttkrpCooAvx2 forms it.
/// kOthers is the number of modes other than `mode`, or 0 to read it from
/// `others`.
template <size_t kOthers>
__attribute__((always_inline)) inline void AddRunEntryAvx2(
    size_t e, const uint32_t* indices, const double* values, size_t others,
    size_t mode, const double* const* factors, size_t rank, size_t f,
    const ColumnBlock& block0, const ColumnBlock& block1, bool has_hi,
    __m256d* acc0, __m256d* acc1) {
  const size_t n = kOthers != 0 ? kOthers : others;
  const uint32_t* idx = indices + e * n;
  __m256d v0 = _mm256_set1_pd(values[e]);
  __m256d v1 = v0;
  for (size_t t = 0; t < n; ++t) {
    const double* src = factors[t < mode ? t : t + 1] +
                        static_cast<size_t>(idx[t]) * rank + f;
    v0 = _mm256_mul_pd(v0, block0.Load(src));
    if (has_hi) v1 = _mm256_mul_pd(v1, block1.Load(src + 4));
  }
  *acc0 = _mm256_add_pd(*acc0, v0);
  *acc1 = _mm256_add_pd(*acc1, v1);
}

/// One run at a time, like MttkrpRowsAvx512Impl: the output row's columns
/// [f, f + 8) stay in two accumulators across the run.
template <size_t kOthers>
void MttkrpRowsAvx2Impl(const uint32_t* rows, const uint32_t* row_begin,
                        size_t num_rows, const uint32_t* indices,
                        const double* values, size_t order, size_t mode,
                        const double* const* factors, size_t rank,
                        double* out) {
  const size_t others = order - 1;
  for (size_t j = 0; j < num_rows; ++j) {
    double* row = out + static_cast<size_t>(rows[j]) * rank;
    for (size_t f = 0; f < rank; f += 8) {
      const ColumnBlock block0(f, rank);
      const bool has_hi = f + 4 < rank;
      const ColumnBlock block1(has_hi ? f + 4 : f, rank);
      __m256d acc0 = block0.Load(row + f);
      __m256d acc1 =
          has_hi ? block1.Load(row + f + 4) : _mm256_setzero_pd();
      for (size_t e = row_begin[j]; e < row_begin[j + 1]; ++e) {
        AddRunEntryAvx2<kOthers>(e, indices, values, others, mode, factors,
                                 rank, f, block0, block1, has_hi, &acc0,
                                 &acc1);
      }
      block0.Store(row + f, acc0);
      if (has_hi) block1.Store(row + f + 4, acc1);
    }
  }
}

void MttkrpRowsAvx2(const uint32_t* rows, const uint32_t* row_begin,
                    size_t num_rows, const uint32_t* indices,
                    const double* values, size_t order, size_t mode,
                    const double* const* factors, size_t rank, double* out) {
  if (order == 3) {
    MttkrpRowsAvx2Impl<2>(rows, row_begin, num_rows, indices, values, order,
                          mode, factors, rank, out);
  } else {
    MttkrpRowsAvx2Impl<0>(rows, row_begin, num_rows, indices, values, order,
                          mode, factors, rank, out);
  }
}

/// Adds rows [j0, j1) into output rows [i0, i0 + kRows), columns
/// [c, c + 8) (lanes past `rank` masked off): 2 * kRows independent
/// accumulator chains, each seeing its additions in row order.
template <size_t kRows>
inline void GramTileAvx2(const double* x, const double* y,
                         const uint64_t* rows, size_t j0, size_t j1,
                         size_t rank, size_t i0, size_t c, double* out) {
  const ColumnBlock block0(c, rank);
  const bool has_hi = c + 4 < rank;
  const ColumnBlock block1(has_hi ? c + 4 : c, rank);
  __m256d acc0[kRows], acc1[kRows];
  for (size_t u = 0; u < kRows; ++u) {
    acc0[u] = block0.Load(out + (i0 + u) * rank + c);
    acc1[u] = has_hi ? block1.Load(out + (i0 + u) * rank + c + 4)
                     : _mm256_setzero_pd();
  }
  for (size_t j = j0; j < j1; ++j) {
    const size_t base = rows[j] * rank;
    const __m256d y0 = block0.Load(y + base + c);
    const __m256d y1 =
        has_hi ? block1.Load(y + base + c + 4) : _mm256_setzero_pd();
    for (size_t u = 0; u < kRows; ++u) {
      const __m256d xb = _mm256_set1_pd(x[base + i0 + u]);
      acc0[u] = _mm256_add_pd(acc0[u], _mm256_mul_pd(xb, y0));
      acc1[u] = _mm256_add_pd(acc1[u], _mm256_mul_pd(xb, y1));
    }
  }
  for (size_t u = 0; u < kRows; ++u) {
    block0.Store(out + (i0 + u) * rank + c, acc0[u]);
    if (has_hi) block1.Store(out + (i0 + u) * rank + c + 4, acc1[u]);
  }
}

void GramUpdateRowsAvx2(const double* x, const double* y,
                        const uint64_t* rows, size_t num_rows, size_t rank,
                        double* out) {
  // Tiles of 4 output rows x 8 columns run over a cache-resident block of
  // input rows with their accumulators in registers.
  constexpr size_t kRowBlock = 128;
  for (size_t j0 = 0; j0 < num_rows; j0 += kRowBlock) {
    const size_t j1 = std::min(num_rows, j0 + kRowBlock);
    for (size_t c = 0; c < rank; c += 8) {
      for (size_t i0 = 0; i0 < rank; i0 += 4) {
        switch (std::min<size_t>(4, rank - i0)) {
          case 4:
            GramTileAvx2<4>(x, y, rows, j0, j1, rank, i0, c, out);
            break;
          case 3:
            GramTileAvx2<3>(x, y, rows, j0, j1, rank, i0, c, out);
            break;
          case 2:
            GramTileAvx2<2>(x, y, rows, j0, j1, rank, i0, c, out);
            break;
          default:
            GramTileAvx2<1>(x, y, rows, j0, j1, rank, i0, c, out);
            break;
        }
      }
    }
  }
}

/// The blocked-8 dots of x (n doubles) against the columns of `block`
/// (starting at column c) of the row-major matrix m with row stride
/// `stride`: p[l] holds blocked-8 partial l of four columns at once.
/// Always inlined: as an out-of-line call GCC keeps p[] in memory.
__attribute__((always_inline)) inline __m256d BlockedDotColumns4(
    const double* x, const double* m, size_t n, size_t stride, size_t c,
    const ColumnBlock& block) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  __m256d p[8];
  for (__m256d& lane : p) lane = _mm256_setzero_pd();
  for (size_t i = 0; i < n8; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      p[l] = _mm256_add_pd(
          p[l], _mm256_mul_pd(_mm256_set1_pd(x[i + l]),
                              block.Load(m + (i + l) * stride + c)));
    }
  }
  // Tail element n8 + l folds into partial l. The constant-bound loop
  // keeps every p[l] in a register.
  for (size_t l = 0; l < 8; ++l) {
    if (n8 + l < n) {
      p[l] = _mm256_add_pd(
          p[l], _mm256_mul_pd(_mm256_set1_pd(x[n8 + l]),
                              block.Load(m + (n8 + l) * stride + c)));
    }
  }
  const __m256d q0 = _mm256_add_pd(p[0], p[4]);
  const __m256d q1 = _mm256_add_pd(p[1], p[5]);
  const __m256d q2 = _mm256_add_pd(p[2], p[6]);
  const __m256d q3 = _mm256_add_pd(p[3], p[7]);
  return _mm256_add_pd(_mm256_add_pd(q0, q2), _mm256_add_pd(q1, q3));
}

void RowTimesMatrixAvx2(const double* x, const double* m, size_t rank,
                        double* out) {
  for (size_t c = 0; c < rank; c += 4) {
    const ColumnBlock block(c, rank);
    block.Store(out + c, BlockedDotColumns4(x, m, rank, rank, c, block));
  }
}

/// Four planes per vector: the signs of their blocked-8 dots land in the
/// code as one 4-bit movemask. Lanes past `bits` are masked to +0.0 and
/// their bits dropped.
void SignEncodeRowsAvx2(const double* planes_t, size_t dim, size_t bits,
                        const double* rows, size_t num_rows,
                        uint64_t* codes) {
  const size_t words = (bits + 63) / 64;
  for (size_t j = 0; j < num_rows; ++j) {
    const double* x = rows + j * dim;
    uint64_t* code = codes + j * words;
    for (size_t w = 0; w < words; ++w) code[w] = 0;
    for (size_t b = 0; b < bits; b += 4) {
      const ColumnBlock block(b, bits);
      const __m256d dots = BlockedDotColumns4(x, planes_t, dim, bits, b, block);
      const uint64_t live =
          bits - b >= 4 ? 0xF : (uint64_t{1} << (bits - b)) - 1;
      const uint64_t signs = static_cast<uint64_t>(_mm256_movemask_pd(
          _mm256_cmp_pd(dots, _mm256_setzero_pd(), _CMP_GE_OQ)));
      code[b / 64] |= (signs & live) << (b % 64);
    }
  }
}

/// Solves rows [r0, r0 + width) (width <= 4 * kVecs) transposed into
/// `lanes` (rank x 4 * kVecs): element i of every row is kVecs vectors, and
/// lane l runs row l's forward/back substitution. kVecs independent chains
/// hide the divider latency. Padded lanes are never written back.
template <size_t kVecs>
inline void CholeskySolveBlockAvx2(const double* lower, size_t rank,
                                   const double* rhs, size_t width,
                                   double* out, double* lanes) {
  constexpr size_t kLanes = 4 * kVecs;
  for (size_t i = 0; i < rank; ++i) {
    for (size_t l = 0; l < kLanes; ++l) {
      lanes[i * kLanes + l] = l < width ? rhs[l * rank + i] : 0.0;
    }
  }
  for (size_t i = 0; i < rank; ++i) {
    __m256d sum[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      sum[v] = _mm256_loadu_pd(lanes + i * kLanes + 4 * v);
    }
    for (size_t k = 0; k < i; ++k) {
      const __m256d lik = _mm256_set1_pd(lower[i * rank + k]);
      for (size_t v = 0; v < kVecs; ++v) {
        sum[v] = _mm256_sub_pd(
            sum[v],
            _mm256_mul_pd(lik, _mm256_loadu_pd(lanes + k * kLanes + 4 * v)));
      }
    }
    const __m256d pivot = _mm256_set1_pd(lower[i * rank + i]);
    for (size_t v = 0; v < kVecs; ++v) {
      _mm256_storeu_pd(lanes + i * kLanes + 4 * v,
                       _mm256_div_pd(sum[v], pivot));
    }
  }
  for (size_t ii = rank; ii-- > 0;) {
    __m256d sum[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      sum[v] = _mm256_loadu_pd(lanes + ii * kLanes + 4 * v);
    }
    for (size_t k = ii + 1; k < rank; ++k) {
      const __m256d lki = _mm256_set1_pd(lower[k * rank + ii]);
      for (size_t v = 0; v < kVecs; ++v) {
        sum[v] = _mm256_sub_pd(
            sum[v],
            _mm256_mul_pd(lki, _mm256_loadu_pd(lanes + k * kLanes + 4 * v)));
      }
    }
    const __m256d pivot = _mm256_set1_pd(lower[ii * rank + ii]);
    for (size_t v = 0; v < kVecs; ++v) {
      _mm256_storeu_pd(lanes + ii * kLanes + 4 * v,
                       _mm256_div_pd(sum[v], pivot));
    }
  }
  for (size_t l = 0; l < width; ++l) {
    for (size_t i = 0; i < rank; ++i) out[l * rank + i] = lanes[i * kLanes + l];
  }
}

void CholeskySolveRowsAvx2(const double* lower, size_t rank,
                           const double* rhs, size_t num_rows, double* out) {
  // The transposed block lives on the stack up to kStackRank; larger
  // systems borrow a heap buffer and run the same code.
  constexpr size_t kStackRank = 64;
  alignas(32) double stack_lanes[kStackRank * 8];
  std::vector<double> heap_lanes;
  double* lanes = stack_lanes;
  if (rank > kStackRank) {
    heap_lanes.resize(rank * 8);
    lanes = heap_lanes.data();
  }
  for (size_t r0 = 0; r0 < num_rows;) {
    const size_t left = num_rows - r0;
    const double* src = rhs + r0 * rank;
    double* dst = out + r0 * rank;
    if (left > 4) {
      const size_t width = std::min<size_t>(8, left);
      CholeskySolveBlockAvx2<2>(lower, rank, src, width, dst, lanes);
      r0 += width;
    } else {
      CholeskySolveBlockAvx2<1>(lower, rank, src, left, dst, lanes);
      r0 += left;
    }
  }
}

double DotContiguousAvx2(const double* x, const double* y, size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    acc_a = _mm256_add_pd(
        acc_a, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    acc_b = _mm256_add_pd(
        acc_b, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                             _mm256_loadu_pd(y + i + 4)));
  }
  alignas(32) double p[8];
  _mm256_store_pd(p, acc_a);
  _mm256_store_pd(p + 4, acc_b);
  for (; i < n; ++i) p[i - n8] += x[i] * y[i];
  return detail::CombinePartials8(p);
}

double DotStridedAvx2(const double* x, size_t incx, const double* y,
                      size_t incy, size_t n) {
  if (incx == 1 && incy == 1) return DotContiguousAvx2(x, y, n);
  // Strided access gains nothing from gathers at these ranks; the scalar
  // blocked loop follows the same contract, so the result is identical.
  return detail::DotBlocked(x, incx, y, incy, n);
}

void TopKScoreBlockAvx2(const double* rows, size_t num_rows, size_t rank,
                        const double* weights, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = DotContiguousAvx2(rows + j * rank, weights, rank);
  }
}

/// Widens 8 bf16 lanes (u16) to 8 doubles: u16 -> u32 << 16 reinterpreted
/// as float32 (exact), then converted to float64 (exact).
inline void WidenBf16x8(const Bf16* x, __m256d* lo, __m256d* hi) {
  const __m128i raw =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(x));
  const __m256i fbits =
      _mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16);
  const __m256 f32 = _mm256_castsi256_ps(fbits);
  *lo = _mm256_cvtps_pd(_mm256_castps256_ps128(f32));
  *hi = _mm256_cvtps_pd(_mm256_extractf128_ps(f32, 1));
}

double Bf16DotAvx2(const Bf16* x, const double* weights, size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    __m256d lo, hi;
    WidenBf16x8(x + i, &lo, &hi);
    acc_a = _mm256_add_pd(acc_a,
                          _mm256_mul_pd(lo, _mm256_loadu_pd(weights + i)));
    acc_b = _mm256_add_pd(
        acc_b, _mm256_mul_pd(hi, _mm256_loadu_pd(weights + i + 4)));
  }
  alignas(32) double p[8];
  _mm256_store_pd(p, acc_a);
  _mm256_store_pd(p + 4, acc_b);
  for (; i < n; ++i) p[i - n8] += detail::Bf16ToF64(x[i]) * weights[i];
  return detail::CombinePartials8(p);
}

void TopKScoreBlockBf16Avx2(const Bf16* rows, size_t num_rows, size_t rank,
                            const double* weights, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = Bf16DotAvx2(rows + j * rank, weights, rank);
  }
}

double I8DotAvx2(const int8_t* x, const double* wscaled, size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i));
    const __m256i i32 = _mm256_cvtepi8_epi32(raw);
    const __m256d lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(i32));
    const __m256d hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(i32, 1));
    acc_a = _mm256_add_pd(acc_a,
                          _mm256_mul_pd(lo, _mm256_loadu_pd(wscaled + i)));
    acc_b = _mm256_add_pd(
        acc_b, _mm256_mul_pd(hi, _mm256_loadu_pd(wscaled + i + 4)));
  }
  alignas(32) double p[8];
  _mm256_store_pd(p, acc_a);
  _mm256_store_pd(p + 4, acc_b);
  for (; i < n; ++i) {
    p[i - n8] += static_cast<double>(x[i]) * wscaled[i];
  }
  return detail::CombinePartials8(p);
}

void TopKScoreBlockI8Avx2(const int8_t* rows, size_t num_rows, size_t rank,
                          const double* wscaled, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = I8DotAvx2(rows + j * rank, wscaled, rank);
  }
}

/// Per-64-bit-lane popcount via the classic nibble lookup
/// (_mm256_shuffle_epi8 against a 0..15 bit-count table, then horizontal
/// byte sums with _mm256_sad_epu8). Exact, like every popcount.
inline __m256i Popcount64x4(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, mask));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

/// Order-preserving pairwise lane sums of two vectors:
/// [x0+x1, x2+x3, y0+y1, y2+y3].
inline __m256i PairSums(__m256i x, __m256i y) {
  const __m256i sums = _mm256_add_epi64(_mm256_unpacklo_epi64(x, y),
                                        _mm256_unpackhi_epi64(x, y));
  return _mm256_permute4x64_epi64(sums, _MM_SHUFFLE(3, 1, 2, 0));
}

/// Hamming distances of the 4 rows of kWords (1 or 4) words at `rows`, as
/// 4 u64 lanes in row order. The rows are kWords contiguous vectors,
/// XORed with the query repeated in every kWords-lane slot; log2(kWords)
/// levels of PairSums fold each row's lanes into one, keeping row order.
template <size_t kWords>
inline __m256i HammingRows4(const uint64_t* rows, __m256i query_slots) {
  __m256i v[kWords];
  for (size_t s = 0; s < kWords; ++s) {
    v[s] = Popcount64x4(_mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + 4 * s)),
        query_slots));
  }
  for (size_t n = kWords; n > 1; n /= 2) {
    for (size_t i = 0; i < n / 2; ++i) v[i] = PairSums(v[2 * i], v[2 * i + 1]);
  }
  return v[0];
}

template <size_t kWords>
void HammingScanBlocks(const uint64_t* codes, size_t num_rows,
                       const uint64_t* query, uint16_t* dists,
                       uint32_t* hist) {
  const __m256i query_slots = _mm256_setr_epi64x(
      static_cast<long long>(query[0]),
      static_cast<long long>(query[1 % kWords]),
      static_cast<long long>(query[2 % kWords]),
      static_cast<long long>(query[3 % kWords]));
  detail::HammingHistogram histogram(kWords);
  const size_t n4 = num_rows & ~static_cast<size_t>(3);
  size_t j = 0;
  for (; j < n4; j += 4) {
    detail::PrefetchCodes(codes + j * kWords, (kWords + 1) / 2,
                          codes + num_rows * kWords);
    // The low 32 bits of the four u64 distances, narrowed to u16 and
    // packed into one u64 that is both stored and counted from registers.
    const __m256i d = _mm256_permutevar8x32_epi32(
        HammingRows4<kWords>(codes + j * kWords, query_slots),
        _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
    const __m128i d32 = _mm256_castsi256_si128(d);
    const uint64_t packed =
        static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_packus_epi32(d32, d32)));
    std::memcpy(dists + j, &packed, sizeof(packed));
    histogram.AddPacked4(packed);
  }
  detail::HammingScanTail(codes, j, num_rows, kWords, query, dists,
                          &histogram);
  histogram.FlushInto(hist);
}

/// The nibble-LUT scan covers the 64- and 256-bit codes; every other width
/// runs the scalar hardware-popcount loop, which measured faster than a
/// masked per-row LUT scan there.
void HammingScanAvx2(const uint64_t* codes, size_t num_rows, size_t words,
                     const uint64_t* query, uint16_t* dists, uint32_t* hist) {
  switch (words) {
    case 1:
      return HammingScanBlocks<1>(codes, num_rows, query, dists, hist);
    case 4:
      return HammingScanBlocks<4>(codes, num_rows, query, dists, hist);
    default:
      return detail::HammingScanScalar(codes, num_rows, words, query, dists,
                                       hist);
  }
}

void F64ToBf16Plain(const double* src, size_t n, Bf16* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = detail::F64ToBf16(src[i]);
}

void Bf16ToF64Plain(const Bf16* src, size_t n, double* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = detail::Bf16ToF64(src[i]);
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table = [] {
    KernelTable t;
    t.backend = Backend::kAvx2;
    t.hadamard_combine = HadamardCombineAvx2;
    t.mttkrp_coo = MttkrpCooAvx2;
    t.mttkrp_rows = MttkrpRowsAvx2;
    t.gram_update_rows = GramUpdateRowsAvx2;
    t.cholesky_solve_rows = CholeskySolveRowsAvx2;
    t.update_rows =
        detail::UpdateRowsBlocked<8, RowTimesMatrixAvx2,
                                  CholeskySolveRowsAvx2, GramUpdateRowsAvx2>;
    t.dot_strided = DotStridedAvx2;
    t.topk_score_block = TopKScoreBlockAvx2;
    t.f64_to_bf16 = F64ToBf16Plain;
    t.bf16_to_f64 = Bf16ToF64Plain;
    t.bf16_dot = Bf16DotAvx2;
    t.topk_score_block_bf16 = TopKScoreBlockBf16Avx2;
    t.i8_dot = I8DotAvx2;
    t.topk_score_block_i8 = TopKScoreBlockI8Avx2;
    t.sign_encode_rows = SignEncodeRowsAvx2;
    t.hamming_scan = HammingScanAvx2;
    return t;
  }();
  return table;
}

}  // namespace kernels
}  // namespace dismastd

#endif  // defined(__AVX2__)
