#ifndef DISMASTD_KERNELS_KERNELS_H_
#define DISMASTD_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace dismastd {
namespace kernels {

/// bf16 (bfloat16) storage: the top 16 bits of an IEEE float32, rounded to
/// nearest-even. 8 significand bits -> relative error <= 2^-8 per element
/// over the float32 normal range.
using Bf16 = uint16_t;

/// The SIMD backends a kernel table can be built from. kScalar is always
/// available and is the semantic reference: every fp64 kernel in every
/// backend is bit-exact against it (see the determinism contract below).
enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};
inline constexpr size_t kNumBackends = 3;

const char* BackendName(Backend backend);
Result<Backend> ParseBackend(const std::string& text);

/// One table of function pointers per backend — the single place where a
/// flop happens on a factor row. Callers fetch the dispatched table once
/// (kernels::Get()) and call through it; they never branch on CPU features
/// themselves.
///
/// Determinism contract (fp64 kernels): element-wise kernels (mttkrp_coo,
/// mttkrp_rows, hadamard_combine, gram_update_rows, cholesky_solve_rows)
/// perform the same scalar operations in the same order in every backend,
/// lane-parallel over independent outputs, so they are bit-exact across
/// backends by construction. Reductions (dot_strided, update_rows'
/// numerator, sign_encode_rows, topk_score_block) share a fixed
/// blocking: 8 independent partial sums, lane l accumulating elements l,
/// l+8, l+16, ... with the tail element i folded into lane i mod 8, combined as
/// ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)) — exactly the tree an 8-lane
/// vector reduction produces. No FMA contraction anywhere (backends are
/// compiled with -ffp-contract=off and use separate mul/add intrinsics),
/// so fp64 results are bit-identical across scalar, AVX2 and AVX-512.
///
/// Quantized kernels (bf16/int8) follow the same blocking, so their scores
/// are also backend-invariant, but they are *not* bit-exact against the
/// fp64 kernels; their error is bounded per query instead (see
/// quantized.h).
struct KernelTable {
  Backend backend = Backend::kScalar;

  /// out[f] = prod_m rows[m][f] (empty product = 1.0). The combination
  /// weights w[f] = prod_n A_n[i_n, f] of point predictions and top-K.
  void (*hadamard_combine)(const double* const* rows, size_t num_rows,
                           size_t rank, double* out);

  /// Sparse MTTKRP (Eq. 6) over `nnz` COO entries (`order` indices each),
  /// in order: out[i * rank + f] += values[e] * prod_{m != mode}
  /// factors[m][indices[e * order + m] * rank + f] with i = indices[e *
  /// order + mode]; factors[m] and out are row-major with `rank` columns.
  /// The current output row stays in registers while consecutive entries
  /// share it, so row-grouped input touches each output row once. Each
  /// entry's product is formed in mode order (starting from the value) and
  /// added in entry order.
  void (*mttkrp_coo)(const uint64_t* indices, const double* values,
                     size_t nnz, size_t order, size_t mode,
                     const double* const* factors, size_t rank, double* out);

  /// Sparse MTTKRP over row runs (partition/factor_assign.h's layout): for
  /// j in [0, num_rows), for e in [row_begin[j], row_begin[j + 1]) in
  /// order, out[rows[j] * rank + f] += values[e] * prod_t
  /// factors[m_t][indices[e * (order - 1) + t] * rank + f], where m_0 < m_1
  /// < ... are the modes other than `mode` (factors has `order` entries;
  /// factors[mode] is not read). The run's output row stays in registers
  /// across the run. Each product is formed as in mttkrp_coo, so a
  /// row-grouped COO and its row runs give bit-identical output.
  void (*mttkrp_rows)(const uint32_t* rows, const uint32_t* row_begin,
                      size_t num_rows, const uint32_t* indices,
                      const double* values, size_t order, size_t mode,
                      const double* const* factors, size_t rank,
                      double* out);

  /// Gram (y == x) or cross-Gram partial over a row set: for j in
  /// [0, num_rows), in order, out[i*rank + k] += x[rows[j]*rank + i] *
  /// y[rows[j]*rank + k], with x and y row-major matrices of `rank`
  /// columns. Each output element sees its rank-1 additions in row order.
  void (*gram_update_rows)(const double* x, const double* y,
                           const uint64_t* rows, size_t num_rows, size_t rank,
                           double* out);

  /// Solves z · L Lᵀ = b for each of the num_rows rows b of the row-major
  /// `rhs` (rank columns), writing z to `out` (which may alias rhs): forward
  /// substitution L y = b, then back substitution Lᵀ z = y, with true
  /// division by the pivots. `lower` is the row-major rank x rank Cholesky
  /// factor. Lane-parallel across rows; every row runs the operation
  /// sequence of the one-row scalar reference, so results are bit-exact.
  void (*cholesky_solve_rows)(const double* lower, size_t rank,
                              const double* rhs, size_t num_rows,
                              double* out);

  /// The Eq. 5 row update of one part, fused into one pass over its rows.
  /// For j in [0, num_rows) in order, with r = rows[j] (distinct rows of
  /// the row-major, `rank`-column matrices prev, mttkrp and factor):
  ///   - numerator b: with prev (old rows), b[c] = mu * d[c] + mttkrp[r][c]
  ///     where d[c] = dot_strided(prev[r], 1, had_h + c, rank, rank) under
  ///     the blocked-8 contract, one mul then one add; without prev (new
  ///     rows, had_h and mu unused), b = mttkrp[r];
  ///   - z = b · (L Lᵀ)⁻¹ by cholesky_solve_rows' operation sequence, or
  ///     z = 0 when `lower` is null (the zero-update fallback);
  ///   - factor[r] = z;
  ///   - gram[i*rank + k] += z[i] * z[k], and with prev cross[i*rank + k]
  ///     += prev[r][i] * z[k]: gram_update_rows' additions, in row order.
  /// So the result is bit-identical to forming every numerator, solving
  /// them with cholesky_solve_rows, scattering z and two gram_update_rows
  /// calls, while each scattered row is fetched from memory once.
  void (*update_rows)(const uint64_t* rows, size_t num_rows, size_t rank,
                      const double* prev, const double* had_h, double mu,
                      const double* mttkrp, const double* lower,
                      double* factor, double* gram, double* cross);

  /// Strided dot product sum_i x[i*incx] * y[i*incy] under the blocked-8
  /// reduction contract. incx/incy may be 0 (broadcast) or any stride.
  double (*dot_strided)(const double* x, size_t incx, const double* y,
                        size_t incy, size_t n);

  /// scores[j] = dot(rows + j*rank, weights) for j in [0, num_rows):
  /// the serve-side candidate scan over a contiguous row-major factor
  /// block.
  void (*topk_score_block)(const double* rows, size_t num_rows, size_t rank,
                           const double* weights, double* scores);

  /// Element-wise conversions (round-to-nearest-even via float32).
  void (*f64_to_bf16)(const double* src, size_t n, Bf16* dst);
  void (*bf16_to_f64)(const Bf16* src, size_t n, double* dst);

  /// sum_i widen(x[i]) * weights[i], accumulated in fp64 under the
  /// blocked-8 contract.
  double (*bf16_dot)(const Bf16* x, const double* weights, size_t n);

  /// scores[j] = bf16_dot(rows + j*rank, weights, rank): the quantized
  /// candidate scan (4x less factor-row traffic than fp64).
  void (*topk_score_block_bf16)(const Bf16* rows, size_t num_rows,
                                size_t rank, const double* weights,
                                double* scores);

  /// sum_i double(x[i]) * wscaled[i] where wscaled[f] already folds the
  /// per-column dequantization scale into the combination weight.
  double (*i8_dot)(const int8_t* x, const double* wscaled, size_t n);

  /// scores[j] = i8_dot(rows + j*rank, wscaled, rank) (8x less traffic).
  void (*topk_score_block_i8)(const int8_t* rows, size_t num_rows,
                              size_t rank, const double* wscaled,
                              double* scores);

  /// The ANN shortlist scan (src/ann/): for j in [0, num_rows),
  /// dists[j] = Σ_w popcount(codes[j*words + w] ^ query[w]) — the Hamming
  /// distance between every packed row code and the query code — and
  /// ++hist[dists[j]] in the same pass. `hist` has words*64 + 1 buckets and
  /// is added into, not cleared. Requires words*64 <= 65535 so distances
  /// fit u16. Handles any `words`: AVX-512 runs VPOPCNTDQ on every width
  /// (when the CPU has it), AVX2 the nibble-LUT popcount on 1- and 4-word
  /// codes and the scalar popcount loop on the others. Pure integer
  /// arithmetic, so every backend is exact and bit-identical by
  /// construction.
  void (*hamming_scan)(const uint64_t* codes, size_t num_rows, size_t words,
                       const uint64_t* query, uint16_t* dists,
                       uint32_t* hist);

  /// Random-hyperplane sign codes of num_rows row-major vectors of `dim`
  /// doubles: bit b of row j's code (codes + j*ceil(bits/64); padding bits
  /// zero) is set iff dot_strided(rows + j*dim, 1, planes_t + b, bits, dim)
  /// >= 0, where planes_t is the dim x bits row-major (transposed) plane
  /// matrix. Lane-parallel over planes under the blocked-8 contract, like
  /// update_rows' numerator, so each bit equals the per-plane dot's sign on
  /// every backend.
  void (*sign_encode_rows)(const double* planes_t, size_t dim, size_t bits,
                           const double* rows, size_t num_rows,
                           uint64_t* codes);
};

/// The table selected at startup: best CPUID-supported backend, overridden
/// by DISMASTD_KERNEL=scalar|avx2|avx512 (invalid or unsupported values
/// fall back to the CPUID choice; "native"/"best"/"" mean auto) or by
/// ForceBackend (the --kernel flag). Thread-safe to call concurrently;
/// the first call performs the dispatch.
const KernelTable& Get();

/// The table of one specific backend. DISMASTD_CHECKs Supported(backend).
const KernelTable& Get(Backend backend);

/// The backend Get() currently resolves to.
Backend Dispatched();

/// Best backend this host + build supports (ignores overrides).
Backend BestSupported();

/// Whether `backend` is compiled in and the CPU supports it.
bool Supported(Backend backend);

/// Routes Get() to `backend` until the next ForceBackend/ResetDispatch.
/// Fails with FailedPrecondition naming the missing CPUID bits if the
/// backend is unavailable. Not safe to call concurrently with running
/// kernels — call it at startup or in test setup.
Status ForceBackend(Backend backend);

/// Re-runs the startup dispatch (CPUID + DISMASTD_KERNEL), discarding any
/// ForceBackend override. For tests.
void ResetDispatch();

/// Human-readable dispatch rationale, e.g.
/// "avx512 (cpuid avx2+avx512f+avx512bw+avx512dq+avx512vl)" or
/// "scalar (forced via DISMASTD_KERNEL=scalar; cpuid avx2)".
std::string DispatchExplanation();

}  // namespace kernels
}  // namespace dismastd

#endif  // DISMASTD_KERNELS_KERNELS_H_
