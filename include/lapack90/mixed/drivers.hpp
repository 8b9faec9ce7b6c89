// lapack90/mixed/drivers.hpp
//
// Mixed-precision iterative-refinement drivers (the DSGESV / ZCGESV /
// DSPOSV / ZCPOSV pattern): factor in the lower precision — where the SIMD
// micro-kernels run at roughly twice the FLOP rate — and refine the
// working-precision solution with compensated (extended-precision)
// residuals until the componentwise backward error reaches n*eps scale.
//
// This is the precision *crossing* the paper's F90 generic dispatch cannot
// express: LA_GESV resolves to exactly one of S/D/C/Z at compile time,
// while mixed::gesv<double> runs sgetrf inside a double-precision driver.
//
// ITER protocol (identical to the reference DSGESV):
//   iter >= 0   refinement succeeded after `iter` correction steps
//               (0: the promoted low-precision solve already met the bound);
//   iter == -1  dimension below ilaenv(IterRefineCutoff): not worth
//               demoting, went straight to the full-precision path;
//   iter == -2  demotion overflowed (an entry exceeds the lower
//               precision's range);
//   iter == -3  the low-precision factorization failed (singular U /
//               not positive definite at that precision);
//   iter <= -(maxiter+1)  refinement stalled for maxiter iterations.
//
// Every iter < 0 path falls back to the full-precision factorization and
// produces results BIT-IDENTICAL to the plain driver (lapack::gesv /
// lapack::posv): the fallback runs the exact same getrf/getrs (potrf/
// potrs) sequence on the untouched A and B. The returned info is the
// full-precision factorization's info in that case, 0 otherwise.
//
// Workspaces are per-thread and never shrink (la::detail::work_buffer,
// core/workspace.hpp), so the steady-state driver — and the batch
// tier looping over many small systems — performs no heap allocation.
#pragma once

#include <algorithm>
#include <cmath>

#include "lapack90/blas/mixed.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/core/precision.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/core/workspace.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/lapack/cholesky.hpp"
#include "lapack90/lapack/lu.hpp"
#include "lapack90/lapack/norms.hpp"

namespace la::mixed {

namespace detail {

struct WsLowFactorTag {};  // demoted matrix (factored in low precision)
struct WsLowRhsTag {};     // demoted right-hand sides / residuals
struct WsResidualTag {};   // working-precision residual
struct WsAccTag {};        // compensated accumulators
struct WsRowSumTag {};     // |A| row sums fused into the demotion pass

/// Refinement tuning (shared by gesv/posv and the batch tier): iteration
/// budget and the dimension below which demotion is not attempted. Both
/// ride the ilaenv table (EnvSpec::IterRefineMaxIter / IterRefineCutoff,
/// env LAPACK90_IR_MAXITER / LAPACK90_IR_CUTOFF) keyed on the getrf row.
[[nodiscard]] inline idx max_iter() noexcept {
  return ilaenv(EnvSpec::IterRefineMaxIter, EnvRoutine::getrf, 0);
}
[[nodiscard]] inline idx cutoff() noexcept {
  return ilaenv(EnvSpec::IterRefineCutoff, EnvRoutine::getrf, 0);
}

/// Convergence check, per right-hand side (the DSGESV criterion): column k
/// is converged when ||r_k||_max <= ||x_k||_max * anrm * eps * sqrt(n).
template <Scalar T>
[[nodiscard]] bool converged(idx n, idx nrhs, const T* x, idx ldx,
                             const T* r, idx ldr, real_t<T> cte) noexcept {
  using R = real_t<T>;
  for (idx k = 0; k < nrhs; ++k) {
    const T* xk = x + static_cast<std::size_t>(k) * ldx;
    const T* rk = r + static_cast<std::size_t>(k) * ldr;
    R xnrm(0);
    R rnrm(0);
    for (idx i = 0; i < n; ++i) {
      xnrm = std::max(xnrm, abs1(xk[i]));
      rnrm = std::max(rnrm, abs1(rk[i]));
    }
    if (rnrm > xnrm * cte) {
      return false;
    }
  }
  return true;
}

/// X += C (the promoted correction), column by column.
template <Scalar T>
void add_correction(idx n, idx nrhs, const lower_precision_t<T>* c, idx ldc,
                    T* x, idx ldx) noexcept {
  using R = real_t<T>;
  for (idx k = 0; k < nrhs; ++k) {
    const lower_precision_t<T>* ck = c + static_cast<std::size_t>(k) * ldc;
    T* xk = x + static_cast<std::size_t>(k) * ldx;
    for (idx i = 0; i < n; ++i) {
      if constexpr (is_complex_v<T>) {
        xk[i] += T(static_cast<R>(ck[i].real()), static_cast<R>(ck[i].imag()));
      } else {
        xk[i] += static_cast<T>(ck[i]);
      }
    }
  }
}

/// Shared refine skeleton: `factor_low` factors the demoted matrix,
/// `solve_low` solves against it in place, `resid` writes the compensated
/// working-precision residual, `demote_mat` demotes A (triangle-aware for
/// the Hermitian driver). Returns true when the mixed path produced a
/// converged X; false means fall back (iter already carries the code).
/// `anrm` is read only after demote_mat succeeds, so a caller may have
/// demote_mat itself produce it (the fused demote+norm pass of the real
/// gesv driver) instead of paying a separate sweep over A.
template <Scalar T, class DemoteMat, class FactorLow, class SolveLow,
          class Resid>
bool refine_loop(idx n, idx nrhs, const T* b, idx ldb, T* x, idx ldx,
                 const real_t<T>& anrm, idx& iter, DemoteMat&& demote_mat,
                 FactorLow&& factor_low, SolveLow&& solve_low,
                 Resid&& resid) {
  using R = real_t<T>;
  using S = lower_precision_t<T>;
  const idx itermax = max_iter();
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  const std::size_t nrhs_sz = static_cast<std::size_t>(n) * nrhs;
  S* const sa = la::detail::work_buffer<S, WsLowFactorTag>(nn);
  S* const sx = la::detail::work_buffer<S, WsLowRhsTag>(nrhs_sz);
  T* const r = la::detail::work_buffer<T, WsResidualTag>(nrhs_sz);
  auto* const acc = la::detail::work_buffer<Compensated<R>, WsAccTag>(
      static_cast<std::size_t>(is_complex_v<T> ? 2 : 1) * n);

  // Demote B and A; any entry out of the lower precision's range aborts.
  if (blas::demote<T>(n, nrhs, b, ldb, sx, n) != 0 || !demote_mat(sa)) {
    iter = -2;
    return false;
  }
  if (factor_low(sa) != 0) {
    iter = -3;
    return false;
  }
  // Initial solve in low precision, promoted to working precision.
  solve_low(sa, sx);
  blas::promote<T>(n, nrhs, sx, n, x, ldx);

  const R cte = anrm * eps<T>() * std::sqrt(R(n));
  for (idx it = 0; it <= itermax; ++it) {
    resid(x, r, acc);
    if (converged(n, nrhs, x, ldx, r, n, cte)) {
      iter = it;
      return true;
    }
    if (it == itermax) {
      break;
    }
    // Demote the residual, solve for the correction, accumulate into X.
    // The residual entries are bounded by ~2*anrm*||x||, which can still
    // overflow the lower precision for extreme scalings — treat that like
    // the initial demotion overflow.
    if (blas::demote<T>(n, nrhs, r, n, sx, n) != 0) {
      iter = -2;
      return false;
    }
    solve_low(sa, sx);
    add_correction(n, nrhs, sx, n, x, ldx);
  }
  iter = -(itermax + 1);
  return false;
}

}  // namespace detail

/// Mixed-precision LU solve (xSGESV pattern): factor a demoted copy of A
/// in lower_precision_t<T>, refine X against compensated residuals, fall
/// back to the full-precision lapack::gesv sequence when demotion
/// overflows, the low-precision factorization fails, or refinement stalls
/// (see the ITER protocol in the file comment).
///
/// A is n x n and preserved on the mixed path (the fallback overwrites it
/// with the double-precision LU factors, exactly like lapack::gesv); B is
/// preserved always; X receives the solution. ipiv holds the pivots of
/// whichever factorization was used last. Returns info: 0, or > 0 from the
/// full-precision factorization after a fallback.
template <Scalar T>
  requires has_lower_precision_v<T>
idx gesv(idx n, idx nrhs, T* a, idx lda, idx* ipiv, const T* b, idx ldb,
         T* x, idx ldx, idx& iter) {
  using S = lower_precision_t<T>;
  iter = 0;
  if (n == 0) {
    return 0;
  }
  bool mixed_ok = false;
  if (n < detail::cutoff()) {
    iter = -1;
  } else {
    // For real T the Inf-norm row sums ride the demotion pass (one sweep
    // over A instead of two); demote_mat fills anrm before refine_loop
    // reads it. Complex keeps the separate lange — its Inf-norm needs the
    // complex magnitude the packed demotion does not compute.
    real_t<T> anrm =
        is_complex_v<T> ? lapack::lange(Norm::Inf, n, n, a, lda) : real_t<T>(0);
    mixed_ok = detail::refine_loop(
        n, nrhs, b, ldb, x, ldx, anrm, iter,
        [&](S* sa) {
          if constexpr (is_complex_v<T>) {
            return blas::demote<T>(n, n, a, lda, sa, n) == 0;
          } else {
            real_t<T>* const rs =
                la::detail::work_buffer<real_t<T>, detail::WsRowSumTag>(
                    static_cast<std::size_t>(n));
            std::fill_n(rs, n, real_t<T>(0));
            if (blas::demote<T>(n, n, a, lda, sa, n, rs) != 0) {
              return false;
            }
            anrm = *std::max_element(rs, rs + n);
            return true;
          }
        },
        [&](S* sa) { return lapack::getrf(n, n, sa, n, ipiv); },
        [&](S* sa, S* sx) {
          lapack::getrs(Trans::NoTrans, n, nrhs, sa, n, ipiv, sx, n);
        },
        [&](const T* xc, T* r, Compensated<real_t<T>>* acc) {
          blas::residual(n, nrhs, a, lda, xc, ldx, b, ldb, r, n, acc);
        });
  }
  if (mixed_ok) {
    return 0;
  }
  // Fallback: the exact lapack::gesv sequence on the untouched A/B, so the
  // result is bit-identical to the full-precision driver.
  const idx info = lapack::getrf(n, n, a, lda, ipiv);
  if (info != 0) {
    return info;
  }
  lapack::lacpy(lapack::Part::All, n, nrhs, b, ldb, x, ldx);
  return lapack::getrs(Trans::NoTrans, n, nrhs, a, lda, ipiv, x, ldx);
}

/// Mixed-precision positive definite solve (xSPOSV pattern): Cholesky in
/// the lower precision, compensated-residual refinement, full-precision
/// fallback. Only the `uplo` triangle of A is referenced (and demoted);
/// iter == -3 additionally covers "not positive definite at the lower
/// precision", which the fallback then decides at full precision.
template <Scalar T>
  requires has_lower_precision_v<T>
idx posv(Uplo uplo, idx n, idx nrhs, T* a, idx lda, const T* b, idx ldb,
         T* x, idx ldx, idx& iter) {
  using S = lower_precision_t<T>;
  iter = 0;
  if (n == 0) {
    return 0;
  }
  bool mixed_ok = false;
  if (n < detail::cutoff()) {
    iter = -1;
  } else {
    const real_t<T> anrm = lapack::lanhe(Norm::Inf, uplo, n, a, lda);
    mixed_ok = detail::refine_loop(
        n, nrhs, b, ldb, x, ldx, anrm, iter,
        [&](S* sa) {
          // Triangle-aware demotion: only stored columns are read.
          for (idx j = 0; j < n; ++j) {
            const idx lo = uplo == Uplo::Upper ? 0 : j;
            const idx len = uplo == Uplo::Upper ? j + 1 : n - j;
            if (blas::demote<T>(len, 1,
                                a + static_cast<std::size_t>(j) * lda + lo,
                                lda, sa + static_cast<std::size_t>(j) * n + lo,
                                n) != 0) {
              return false;
            }
          }
          return true;
        },
        [&](S* sa) { return lapack::potrf(uplo, n, sa, n); },
        [&](S* sa, S* sx) { lapack::potrs(uplo, n, nrhs, sa, n, sx, n); },
        [&](const T* xc, T* r, Compensated<real_t<T>>* acc) {
          blas::residual_hermitian(uplo, n, nrhs, a, lda, xc, ldx, b, ldb, r,
                                   n, acc);
        });
  }
  if (mixed_ok) {
    return 0;
  }
  // Fallback: the exact lapack::posv sequence (bit-identical results).
  const idx info = lapack::potrf(uplo, n, a, lda);
  if (info != 0) {
    return info;
  }
  lapack::lacpy(lapack::Part::All, n, nrhs, b, ldb, x, ldx);
  return lapack::potrs(uplo, n, nrhs, a, lda, x, ldx);
}

}  // namespace la::mixed
