#ifndef DISMASTD_CORE_DTD_H_
#define DISMASTD_CORE_DTD_H_

#include <vector>

#include "core/cp_als.h"
#include "core/options.h"
#include "tensor/coo_tensor.h"
#include "tensor/kruskal.h"

namespace dismastd {

/// Centralized Dynamic Tensor Decomposition (Algorithm 1), for arbitrary
/// tensor order.
///
/// Inputs:
///   - `delta`   : the relative complement X \ X̃ — only the *new* non-zeros
///                 — with the *current* snapshot dims.
///   - `old_dims`: the previous snapshot's dims I_n (old_dims[n] <=
///                 delta.dim(n)). Pass all-zeros for a cold start; DTD then
///                 degenerates exactly to static CP-ALS.
///   - `prev`    : the previous snapshot's CP factors Ã_n (old_dims[n] rows
///                 each). Ignored (may be default-constructed) when
///                 old_dims is all-zero.
///
/// Each factor A_n = [A_n^(0); A_n^(1)] stacks the old-range rows over the
/// d_n new rows. A_n^(0) is seeded from Ã_n, A_n^(1) uniformly at random
/// (Alg. 1 lines 1-2); both are refined by the ALS update rules (Eq. 5),
/// where the previous snapshot tensor never appears — only its factors,
/// weighted by the forgetting factor μ.
///
/// The returned loss is Eq. 4's objective; with
/// `options.reuse_intermediates` it is assembled entirely from cached Gram
/// products and the last mode's MTTKRP result (§IV-B4).
AlsResult DynamicTensorDecomposition(const SparseTensor& delta,
                                     const std::vector<uint64_t>& old_dims,
                                     const KruskalTensor& prev,
                                     const DecompositionOptions& options);

/// Deterministic initialization shared by the centralized and distributed
/// implementations: factor n is [prev.factor(n); Random(d_n, R)], with the
/// random rows drawn mode-by-mode from Rng(options.seed). Exposed so that
/// DisMASTD can be validated bit-for-bit against the same starting point.
std::vector<Matrix> InitializeDtdFactors(const std::vector<uint64_t>& new_dims,
                                         const std::vector<uint64_t>& old_dims,
                                         const KruskalTensor& prev,
                                         const DecompositionOptions& options);

// R x R algebra of the update rules and the loss, shared by the DTD above
// and the distributed step (core/dismastd.cc) so both run the same
// operations in the same order.

/// Hadamard products over modes k != `skip` (skip >= order: every mode) of
/// the cached Grams g0[k] = A_k^(0)ᵀA_k^(0), g1[k] = A_k^(1)ᵀA_k^(1) and
/// h[k] = Ã_kᵀA_k^(0).
struct GramHadamards {
  Matrix h;    // ⊛ h[k]
  Matrix g01;  // ⊛ (g0[k] + g1[k]); the new-row system of Eq. 5
  Matrix g0;   // ⊛ g0[k]
};
GramHadamards HadamardOverModes(const std::vector<Matrix>& g0,
                                const std::vector<Matrix>& g1,
                                const std::vector<Matrix>& h, size_t skip);

/// The old-row system of Eq. 5: had.g01 - (1 - μ)·had.g0.
Matrix OldRowSystem(const GramHadamards& had, double mu);

/// Loss terms fixed across one step's sweeps (§IV-B4).
struct DtdLossBase {
  bool has_prev = false;            // any old_dims[n] > 0
  double prev_model_norm_sq = 0.0;  // ‖[[Ã_1..Ã_N]]‖²
  double delta_norm_sq = 0.0;       // ‖X \ X̃‖²
};
DtdLossBase MakeDtdLossBase(const SparseTensor& delta,
                            const std::vector<uint64_t>& old_dims,
                            const KruskalTensor& prev);

/// Eq. 4 from maintained intermediates (§IV-B4), clamped at 0:
///   L = μ‖[[Ã]] - [[A^(0)]]‖² + ‖X\X̃‖² + (‖Y‖² - ‖Y^(0..0)‖²) - 2⟨X\X̃, Y⟩
/// with `all` = HadamardOverModes(.., skip = order), `inner` = ⟨X\X̃, Y⟩.
double DtdLoss(const DtdLossBase& base, const GramHadamards& all,
               double inner, double mu);

/// The ALS stopping rule: the loss moved by less than `tolerance` relative
/// to the previous sweep's (`prev_loss` < 0: no previous sweep).
bool LossConverged(double prev_loss, double loss, double tolerance);

}  // namespace dismastd

#endif  // DISMASTD_CORE_DTD_H_
