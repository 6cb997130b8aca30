// Scalar kernel backend: the portable reference every other backend must
// match bit-exactly on the fp64 entry points. The implementations live in
// kernels_detail.h so the SIMD backends can reuse them for strided inputs
// and remainder lanes.

#include "kernels/kernels_detail.h"

namespace dismastd {
namespace kernels {
namespace {

void F64ToBf16Scalar(const double* src, size_t n, Bf16* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = detail::F64ToBf16(src[i]);
}

void Bf16ToF64Scalar(const Bf16* src, size_t n, double* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = detail::Bf16ToF64(src[i]);
}

void TopKScoreBlockScalar(const double* rows, size_t num_rows, size_t rank,
                          const double* weights, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = detail::DotBlocked(rows + j * rank, 1, weights, 1, rank);
  }
}

void TopKScoreBlockBf16Scalar(const Bf16* rows, size_t num_rows, size_t rank,
                              const double* weights, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = detail::Bf16DotScalar(rows + j * rank, weights, rank);
  }
}

void TopKScoreBlockI8Scalar(const int8_t* rows, size_t num_rows, size_t rank,
                            const double* wscaled, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = detail::I8DotScalar(rows + j * rank, wscaled, rank);
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = [] {
    KernelTable t;
    t.backend = Backend::kScalar;
    t.hadamard_combine = detail::HadamardCombineScalar;
    t.mttkrp_coo = detail::MttkrpCooScalar;
    t.mttkrp_rows = detail::MttkrpRowsScalar;
    t.gram_update_rows = detail::GramUpdateRowsScalar;
    t.cholesky_solve_rows = detail::CholeskySolveRowsScalar;
    t.update_rows =
        detail::UpdateRowsBlocked<16, detail::RowTimesMatrixScalar,
                                  detail::CholeskySolveRowsScalar,
                                  detail::GramUpdateRowsScalar>;
    t.dot_strided = detail::DotBlocked;
    t.topk_score_block = TopKScoreBlockScalar;
    t.f64_to_bf16 = F64ToBf16Scalar;
    t.bf16_to_f64 = Bf16ToF64Scalar;
    t.bf16_dot = detail::Bf16DotScalar;
    t.topk_score_block_bf16 = TopKScoreBlockBf16Scalar;
    t.i8_dot = detail::I8DotScalar;
    t.topk_score_block_i8 = TopKScoreBlockI8Scalar;
    t.hamming_scan = detail::HammingScanScalar;
    t.sign_encode_rows = detail::SignEncodeRowsScalar;
    return t;
  }();
  return table;
}

}  // namespace kernels
}  // namespace dismastd
