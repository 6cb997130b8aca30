#ifndef DISMASTD_LA_SOLVE_H_
#define DISMASTD_LA_SOLVE_H_

#include "la/matrix.h"

namespace dismastd {

/// Cholesky factorization of a symmetric positive-definite matrix:
/// writes the lower triangle L with A = L Lᵀ. Fails (returns non-OK) if a
/// pivot is not positive.
Status CholeskyFactor(const Matrix& a, Matrix* lower);

/// The ALS normal equations X · A = RHS prepared once for any number of
/// right-hand sides: the Cholesky factor of A plus the first ridge of the
/// retry ladder that lets it factor, or — when no ridge rescues A — the
/// zero-update fallback.
struct FactoredNormalEquations {
  Matrix lower;       // R x R lower triangle; all zeros when `zero`
  bool zero = false;  // every solve yields zeros (never NaNs)
};

/// Factors A for SolveFactoredRowsInPlace. A is a small (R x R) symmetric
/// matrix that is positive definite in exact arithmetic but can be
/// near-singular in practice. Tries Cholesky first; on failure retries with
/// a diagonal ridge `jitter * trace(A)/R` increased geometrically, and after
/// 12 failed attempts (e.g. all-zero Grams) falls back to a zero update.
FactoredNormalEquations FactorNormalEquations(const Matrix& a);

/// Overwrites every row b of `rows` (M x R) with b · A⁻¹ under `factored`:
/// forward then back substitution with the Cholesky factor, run by the
/// dispatched row-batched kernel (kernels::KernelTable::cholesky_solve_rows),
/// bit-exact on every backend.
void SolveFactoredRowsInPlace(const FactoredNormalEquations& factored,
                              Matrix* rows);

/// Solves the ALS normal equations X · A = RHS for X, i.e. X = RHS · A⁻¹:
/// FactorNormalEquations then SolveFactoredRowsInPlace. This is the
/// "division" in the paper's update rules (Eq. 3/5).
Matrix SolveNormalEquationsRows(const Matrix& a, const Matrix& rhs_rows);

/// General LU solve with partial pivoting: returns X with A X = B.
/// A must be square and non-singular (checked with a tolerance).
Status LuSolve(const Matrix& a, const Matrix& b, Matrix* x);

/// Matrix inverse via LU; fails on singular input.
Status Inverse(const Matrix& a, Matrix* inv);

}  // namespace dismastd

#endif  // DISMASTD_LA_SOLVE_H_
