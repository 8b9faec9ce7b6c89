// lapack90/lapack/lu.hpp
//
// LU factorization family for general dense matrices — the substrate under
// LA_GESV / LA_GESVX / LA_GETRF / LA_GETRS / LA_GETRI / LA_GERFS /
// LA_GEEQU:
//
//   getf2   unblocked right-looking LU with partial pivoting
//   getrf   tiled LU on the task DAG, tile edge NB from ilaenv
//   getrs   triangular solves against the computed factors
//   getri   matrix inverse from the factors
//   gecon   reciprocal condition number estimate (Higham estimator)
//   geequ   row/column equilibration scalings
//   gerfs   iterative refinement with forward/backward error bounds
//   gesv    driver: factor + solve
//
// Conventions: column-major (pointer, ld) arguments; pivot indices are
// 0-based (C++ convention — the F77-parity layer documents this as the one
// deliberate departure from FORTRAN); the returned `info` follows LAPACK:
// 0 = success, i > 0 = U(i-1, i-1) (0-based) is exactly zero.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "lapack90/blas/level1.hpp"
#include "lapack90/blas/level2.hpp"
#include "lapack90/blas/level3.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/core/precision.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/lapack/conest.hpp"
#include "lapack90/lapack/norms.hpp"
#include "lapack90/lapack/tiled_fwd.hpp"

namespace la::lapack {

/// Unblocked LU with partial pivoting (xGETF2). Factors the m x n matrix A
/// in place as A = P L U; ipiv[i] (0-based) is the row swapped with row i.
/// Returns 0 or the 1-based index of the first exactly-zero pivot.
template <Scalar T>
idx getf2(idx m, idx n, T* a, idx lda, idx* ipiv) noexcept {
  idx info = 0;
  const idx k = std::min(m, n);
  for (idx j = 0; j < k; ++j) {
    T* col = a + static_cast<std::size_t>(j) * lda;
    // Pivot: largest |.| in column j at or below the diagonal.
    const idx p = j + blas::iamax(m - j, col + j, 1);
    ipiv[j] = p;
    if (col[p] != T(0)) {
      if (p != j) {
        blas::swap(n, a + j, lda, a + p, lda);
      }
      // Scale the subdiagonal of column j by 1/pivot.
      const T inv_piv = T(1) / col[j];
      for (idx i = j + 1; i < m; ++i) {
        col[i] *= inv_piv;
      }
    } else if (info == 0) {
      info = j + 1;
    }
    // Trailing rank-1 update.
    if (j < k - 1 || n > k) {
      blas::geru(m - j - 1, n - j - 1, T(-1), col + j + 1, 1,
                 a + static_cast<std::size_t>(j + 1) * lda + j, lda,
                 a + static_cast<std::size_t>(j + 1) * lda + j + 1, lda);
    }
  }
  return info;
}

/// LU with partial pivoting (xGETRF). Same contract as getf2. Past the
/// blocking crossover, when the problem spans at least two tiles of edge
/// NB = ilaenv(BlockSize, getrf), the factorization runs as tile kernels on
/// the task DAG with panel lookahead (lapack/tiled.hpp), so most flops are
/// Level 3; otherwise getf2 runs.
template <Scalar T>
idx getrf(idx m, idx n, T* a, idx lda, idx* ipiv) {
  const idx k = std::min(m, n);
  const idx nb = tiled::detail::tile_edge(EnvRoutine::getrf, k);
  if (nb == 0) {
    return getf2(m, n, a, lda, ipiv);
  }
  tiled::detail::LuTiles<T> t{m, n, k, nb, a, lda, ipiv};
  TaskGraph g;
  tiled::detail::build(g, t);
  g.run();
  return t.finish();
}

/// Solve op(A) X = B from getrf factors (xGETRS). B is n x nrhs.
template <Scalar T>
idx getrs(Trans trans, idx n, idx nrhs, const T* a, idx lda, const idx* ipiv,
          T* b, idx ldb) noexcept {
  if (n <= 0 || nrhs <= 0) {
    return 0;
  }
  if (trans == Trans::NoTrans) {
    laswp(nrhs, b, ldb, 0, n, ipiv);
    blas::trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, n, nrhs,
               T(1), a, lda, b, ldb);
    blas::trsm(Side::Left, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n,
               nrhs, T(1), a, lda, b, ldb);
  } else {
    blas::trsm(Side::Left, Uplo::Upper, trans, Diag::NonUnit, n, nrhs, T(1), a,
               lda, b, ldb);
    blas::trsm(Side::Left, Uplo::Lower, trans, Diag::Unit, n, nrhs, T(1), a,
               lda, b, ldb);
    laswp(nrhs, b, ldb, 0, n, ipiv, -1);
  }
  return 0;
}

/// Invert a triangular matrix in place (xTRTI2, unblocked). Returns the
/// 1-based index of a zero diagonal entry, or 0.
template <Scalar T>
idx trtri(Uplo uplo, Diag diag, idx n, T* a, idx lda) noexcept {
  for (idx i = 0; i < n; ++i) {
    if (diag == Diag::NonUnit &&
        a[static_cast<std::size_t>(i) * lda + i] == T(0)) {
      return i + 1;
    }
  }
  if (uplo == Uplo::Upper) {
    for (idx j = 0; j < n; ++j) {
      T* col = a + static_cast<std::size_t>(j) * lda;
      T ajj;
      if (diag == Diag::NonUnit) {
        col[j] = T(1) / col[j];
        ajj = -col[j];
      } else {
        ajj = T(-1);
      }
      // Column j of the inverse above the diagonal.
      blas::trmv(Uplo::Upper, Trans::NoTrans, diag, j, a, lda, col, 1);
      blas::scal(j, ajj, col, 1);
    }
  } else {
    for (idx j = n - 1; j >= 0; --j) {
      T* col = a + static_cast<std::size_t>(j) * lda;
      T ajj;
      if (diag == Diag::NonUnit) {
        col[j] = T(1) / col[j];
        ajj = -col[j];
      } else {
        ajj = T(-1);
      }
      if (j < n - 1) {
        blas::trmv(Uplo::Lower, Trans::NoTrans, diag, n - j - 1,
                   a + static_cast<std::size_t>(j + 1) * lda + j + 1, lda,
                   col + j + 1, 1);
        blas::scal(n - j - 1, ajj, col + j + 1, 1);
      }
    }
  }
  return 0;
}

/// Matrix inverse from getrf factors (xGETRI). Needs an n-element
/// workspace; the F90 wrapper supplies it (sized via ilaenv, mirroring the
/// paper's LA_GETRI listing).
template <Scalar T>
idx getri(idx n, T* a, idx lda, const idx* ipiv, T* work) noexcept {
  if (n == 0) {
    return 0;
  }
  // Invert U in place; a zero diagonal is the singularity signal.
  const idx info = trtri(Uplo::Upper, Diag::NonUnit, n, a, lda);
  if (info != 0) {
    return info;
  }
  // Solve inv(A) L = inv(U) by sweeping columns right to left.
  for (idx j = n - 1; j >= 0; --j) {
    T* col = a + static_cast<std::size_t>(j) * lda;
    for (idx i = j + 1; i < n; ++i) {
      work[i] = col[i];
      col[i] = T(0);
    }
    if (j < n - 1) {
      blas::gemv(Trans::NoTrans, n, n - j - 1, T(-1),
                 a + static_cast<std::size_t>(j + 1) * lda, lda, work + j + 1,
                 1, T(1), col, 1);
    }
  }
  // Undo the row interchanges by swapping columns in reverse order.
  for (idx j = n - 1; j >= 0; --j) {
    const idx p = ipiv[j];
    if (p != j) {
      blas::swap(n, a + static_cast<std::size_t>(j) * lda, 1,
                 a + static_cast<std::size_t>(p) * lda, 1);
    }
  }
  return 0;
}

/// Reciprocal condition number from getrf factors (xGECON). `anorm` is the
/// norm of the *original* A in the requested norm (One or Inf).
template <Scalar T>
idx gecon(Norm norm, idx n, const T* a, idx lda, const idx* ipiv,
          real_t<T> anorm, real_t<T>& rcond) {
  using R = real_t<T>;
  rcond = R(0);
  if (n == 0) {
    rcond = R(1);
    return 0;
  }
  if (anorm == R(0)) {
    return 0;
  }
  auto solve_n = [&](T* v) { getrs(Trans::NoTrans, n, 1, a, lda, ipiv, v, n); };
  auto solve_h = [&](T* v) {
    getrs(conj_trans_for<T>(), n, 1, a, lda, ipiv, v, n);
  };
  R ainv_norm;
  if (norm == Norm::One) {
    ainv_norm = norm1_estimate<T>(n, solve_n, solve_h);
  } else {
    // ||inv(A)||_inf = ||inv(A)^T||_1: swap the roles of the two solves.
    ainv_norm = norm1_estimate<T>(n, solve_h, solve_n);
  }
  if (ainv_norm != R(0)) {
    rcond = (R(1) / ainv_norm) / anorm;
  }
  return 0;
}

/// Row/column equilibration scalings (xGEEQU). On success r[i], c[j] hold
/// the scalings, rowcnd/colcnd their spread, amax the largest |a_ij|.
/// info = i+1 flags an exactly-zero row i; info = m+j+1 a zero column j.
template <Scalar T>
idx geequ(idx m, idx n, const T* a, idx lda, real_t<T>* r, real_t<T>* c,
          real_t<T>& rowcnd, real_t<T>& colcnd, real_t<T>& amax) noexcept {
  using R = real_t<T>;
  rowcnd = R(1);
  colcnd = R(1);
  amax = R(0);
  if (m == 0 || n == 0) {
    return 0;
  }
  const R smlnum = safmin<T>();
  const R bignum = R(1) / smlnum;

  for (idx i = 0; i < m; ++i) {
    r[i] = R(0);
  }
  for (idx j = 0; j < n; ++j) {
    const T* col = a + static_cast<std::size_t>(j) * lda;
    for (idx i = 0; i < m; ++i) {
      r[i] = std::max(r[i], abs1(col[i]));
    }
  }
  R rcmin = bignum;
  R rcmax = R(0);
  for (idx i = 0; i < m; ++i) {
    rcmax = std::max(rcmax, r[i]);
    rcmin = std::min(rcmin, r[i]);
  }
  amax = rcmax;
  if (rcmin == R(0)) {
    for (idx i = 0; i < m; ++i) {
      if (r[i] == R(0)) {
        return i + 1;
      }
    }
  }
  for (idx i = 0; i < m; ++i) {
    r[i] = R(1) / std::min(std::max(r[i], smlnum), bignum);
  }
  rowcnd = std::max(rcmin, smlnum) / std::min(rcmax, bignum);

  for (idx j = 0; j < n; ++j) {
    const T* col = a + static_cast<std::size_t>(j) * lda;
    R cj(0);
    for (idx i = 0; i < m; ++i) {
      cj = std::max(cj, abs1(col[i]) * r[i]);
    }
    c[j] = cj;
  }
  rcmin = bignum;
  rcmax = R(0);
  for (idx j = 0; j < n; ++j) {
    rcmax = std::max(rcmax, c[j]);
    rcmin = std::min(rcmin, c[j]);
  }
  if (rcmin == R(0)) {
    for (idx j = 0; j < n; ++j) {
      if (c[j] == R(0)) {
        return m + j + 1;
      }
    }
  }
  for (idx j = 0; j < n; ++j) {
    c[j] = R(1) / std::min(std::max(c[j], smlnum), bignum);
  }
  colcnd = std::max(rcmin, smlnum) / std::min(rcmax, bignum);
  return 0;
}

/// Iterative refinement for AX = B with forward/backward error bounds
/// (xGERFS). `a` is the original matrix, `af`/`ipiv` the getrf factors,
/// x the solution to improve (n x nrhs). ferr/berr have nrhs entries.
template <Scalar T>
idx gerfs(Trans trans, idx n, idx nrhs, const T* a, idx lda, const T* af,
          idx ldaf, const idx* ipiv, const T* b, idx ldb, T* x, idx ldx,
          real_t<T>* ferr, real_t<T>* berr) {
  using R = real_t<T>;
  constexpr int kItMax = 5;
  if (n == 0 || nrhs == 0) {
    for (idx j = 0; j < nrhs; ++j) {
      ferr[j] = R(0);
      berr[j] = R(0);
    }
    return 0;
  }
  const R epsv = eps<T>();
  const R safe1 = R(n + 1) * safmin<T>();

  std::vector<T> r(static_cast<std::size_t>(n));
  std::vector<R> w(static_cast<std::size_t>(n));
  const Trans transh = trans == Trans::NoTrans ? conj_trans_for<T>()
                                               : Trans::NoTrans;

  for (idx j = 0; j < nrhs; ++j) {
    T* xj = x + static_cast<std::size_t>(j) * ldx;
    const T* bj = b + static_cast<std::size_t>(j) * ldb;
    R lstres = R(3);
    for (int iter = 0; iter < kItMax; ++iter) {
      // r = b - op(A) x.
      blas::copy(n, bj, 1, r.data(), 1);
      blas::gemv(trans, n, n, T(-1), a, lda, xj, 1, T(1), r.data(), 1);
      // w = |op(A)| |x| + |b|  (componentwise backward-error denominator).
      for (idx i = 0; i < n; ++i) {
        w[i] = abs1(bj[i]);
      }
      for (idx k = 0; k < n; ++k) {
        // accumulate |op(A)| |x| column-by-column
        const R xk = abs1(xj[k]);
        if (trans == Trans::NoTrans) {
          const T* col = a + static_cast<std::size_t>(k) * lda;
          for (idx i = 0; i < n; ++i) {
            w[i] += abs1(col[i]) * xk;
          }
        } else {
          const T* col = a + static_cast<std::size_t>(k) * lda;
          R s(0);
          for (idx i = 0; i < n; ++i) {
            s += abs1(col[i]) * abs1(xj[i]);
          }
          w[k] = abs1(bj[k]) + s;
        }
      }
      // Componentwise backward error.
      R berr_j(0);
      for (idx i = 0; i < n; ++i) {
        if (w[i] > safe1) {
          berr_j = std::max(berr_j, abs1(r[i]) / w[i]);
        } else {
          berr_j = std::max(berr_j, (abs1(r[i]) + safe1) / (w[i] + safe1));
        }
      }
      berr[j] = berr_j;
      const bool done =
          berr_j <= epsv || berr_j >= lstres / R(2) || iter == kItMax - 1;
      if (!done) {
        lstres = berr_j;
      }
      // One more correction even on the final pass (cheap, improves x).
      getrs(trans, n, 1, af, ldaf, ipiv, r.data(), n);
      blas::axpy(n, T(1), r.data(), 1, xj, 1);
      if (done) {
        break;
      }
    }

    // Forward error bound: || inv(op(A)) * diag(w') ||_inf estimated with
    // the 1-norm machinery on the transposed operator (dgerfs scheme),
    // where w'_i = |r_i| + (n+1) eps (|op(A)||x| + |b|)_i.
    blas::copy(n, bj, 1, r.data(), 1);
    blas::gemv(trans, n, n, T(-1), a, lda, xj, 1, T(1), r.data(), 1);
    for (idx i = 0; i < n; ++i) {
      R s = abs1(bj[i]);
      if (trans == Trans::NoTrans) {
        for (idx k = 0; k < n; ++k) {
          s += abs1(a[static_cast<std::size_t>(k) * lda + i]) * abs1(xj[k]);
        }
      } else {
        const T* col = a + static_cast<std::size_t>(i) * lda;
        for (idx k = 0; k < n; ++k) {
          s += abs1(col[k]) * abs1(xj[k]);
        }
      }
      w[i] = abs1(r[i]) + R(n + 1) * epsv * s;
      if (w[i] <= safe1) {
        w[i] += safe1;
      }
    }
    auto apply = [&](T* v) {
      // v := inv(op(A)) (w .* v)
      for (idx i = 0; i < n; ++i) {
        v[i] *= T(w[i]);
      }
      getrs(trans, n, 1, af, ldaf, ipiv, v, n);
    };
    auto applyh = [&](T* v) {
      // v := w .* inv(op(A))^H v
      getrs(transh, n, 1, af, ldaf, ipiv, v, n);
      for (idx i = 0; i < n; ++i) {
        v[i] *= T(w[i]);
      }
    };
    // ||M||_inf = ||M^H||_1 with M = inv(op(A)) diag(w).
    const R est = norm1_estimate<T>(n, applyh, apply);
    const R xnorm = max_abs1(n, xj);
    ferr[j] = xnorm > R(0) ? est / xnorm : R(0);
  }
  return 0;
}

/// Driver: solve A X = B by LU with partial pivoting (xGESV).
template <Scalar T>
idx gesv(idx n, idx nrhs, T* a, idx lda, idx* ipiv, T* b, idx ldb) {
  const idx info = getrf(n, n, a, lda, ipiv);
  if (info != 0) {
    return info;
  }
  return getrs(Trans::NoTrans, n, nrhs, a, lda, ipiv, b, ldb);
}

}  // namespace la::lapack

// Tiled task-DAG driver definitions — included last to break the
// kernel/driver cycle (see lapack/tiled_fwd.hpp for the dispatch gate).
#include "lapack90/lapack/tiled.hpp"  // IWYU pragma: keep
