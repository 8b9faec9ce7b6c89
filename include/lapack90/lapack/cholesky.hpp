// lapack90/lapack/cholesky.hpp
//
// Cholesky factorization family for symmetric / Hermitian positive
// definite systems — the substrate under LA_POSV / LA_POSVX / LA_POTRF /
// LA_PPSV / LA_PBSV:
//
//   potf2 / potrf    unblocked / tiled (task-DAG) dense Cholesky
//   potrs / posv     solve / driver
//   pocon            reciprocal condition estimate
//   porfs            iterative refinement with error bounds
//   pptrf / pptrs / ppsv   packed storage
//   pbtf2 / pbtrf / pbtrs / pbsv   band storage
//
// info > 0 means the leading minor of that (1-based) order is not positive
// definite, matching the LAPACK contract the paper documents for LA_POSV.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "lapack90/blas/level1.hpp"
#include "lapack90/blas/level2.hpp"
#include "lapack90/blas/level3.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/core/packed.hpp"
#include "lapack90/core/precision.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/lapack/conest.hpp"
#include "lapack90/lapack/tiled_fwd.hpp"

namespace la::lapack {

/// Unblocked Cholesky (xPOTF2). Factors A = U^H U (Upper) or A = L L^H
/// (Lower) in place; only the `uplo` triangle is referenced.
template <Scalar T>
idx potf2(Uplo uplo, idx n, T* a, idx lda) noexcept {
  using R = real_t<T>;
  for (idx j = 0; j < n; ++j) {
    T* col = a + static_cast<std::size_t>(j) * lda;
    if (uplo == Uplo::Upper) {
      const R ajj =
          real_part(col[j]) - real_part(blas::dotc(j, col, 1, col, 1));
      if (!(ajj > R(0)) || !std::isfinite(ajj)) {
        col[j] = T(ajj);
        return j + 1;
      }
      const R rjj = std::sqrt(ajj);
      col[j] = T(rjj);
      if (j < n - 1) {
        // Row j of U to the right: a(j, j+1:) := (a(j, j+1:) - U(:,j)^H
        // U(:, j+1:)) / rjj  via gemv on the block above row j.
        if constexpr (is_complex_v<T>) {
          for (idx i = 0; i < j; ++i) {
            col[i] = std::conj(col[i]);
          }
        }
        blas::gemv(Trans::Trans, j, n - j - 1, T(-1),
                   a + static_cast<std::size_t>(j + 1) * lda, lda, col, 1,
                   T(1), a + static_cast<std::size_t>(j + 1) * lda + j, lda);
        if constexpr (is_complex_v<T>) {
          for (idx i = 0; i < j; ++i) {
            col[i] = std::conj(col[i]);
          }
        }
        blas::scal(n - j - 1, R(1) / rjj,
                   a + static_cast<std::size_t>(j + 1) * lda + j, lda);
      }
    } else {
      const R ajj = real_part(col[j]) -
                    real_part(blas::dotc(j, a + j, lda, a + j, lda));
      if (!(ajj > R(0)) || !std::isfinite(ajj)) {
        col[j] = T(ajj);
        return j + 1;
      }
      const R rjj = std::sqrt(ajj);
      col[j] = T(rjj);
      if (j < n - 1) {
        // Column j of L below: a(j+1:, j) := (a(j+1:, j) - L(j+1:, :j)
        // L(j, :j)^H) / rjj.
        if constexpr (is_complex_v<T>) {
          for (idx k = 0; k < j; ++k) {
            a[static_cast<std::size_t>(k) * lda + j] =
                std::conj(a[static_cast<std::size_t>(k) * lda + j]);
          }
        }
        blas::gemv(Trans::NoTrans, n - j - 1, j, T(-1), a + j + 1, lda, a + j,
                   lda, T(1), col + j + 1, 1);
        if constexpr (is_complex_v<T>) {
          for (idx k = 0; k < j; ++k) {
            a[static_cast<std::size_t>(k) * lda + j] =
                std::conj(a[static_cast<std::size_t>(k) * lda + j]);
          }
        }
        blas::scal(n - j - 1, R(1) / rjj, col + j + 1, 1);
      }
    }
  }
  return 0;
}

/// Cholesky (xPOTRF). Same contract as potf2. Past the blocking crossover,
/// when the matrix spans at least two tiles of edge
/// NB = ilaenv(BlockSize, potrf), the factorization runs as tile kernels on
/// the task DAG (lapack/tiled.hpp); a non-positive-definite diagonal tile
/// cancels the graph with the same INFO. Otherwise potf2 runs.
template <Scalar T>
idx potrf(Uplo uplo, idx n, T* a, idx lda) {
  const idx nb = tiled::detail::tile_edge(EnvRoutine::potrf, n);
  if (nb == 0) {
    return potf2(uplo, n, a, lda);
  }
  tiled::detail::CholTiles<T> t{uplo, n, nb, a, lda};
  TaskGraph g;
  tiled::detail::build(g, t);
  return g.run();
}

/// Solve A X = B from potrf factors (xPOTRS).
template <Scalar T>
idx potrs(Uplo uplo, idx n, idx nrhs, const T* a, idx lda, T* b,
          idx ldb) noexcept {
  if (n <= 0 || nrhs <= 0) {
    return 0;
  }
  const Trans ct = conj_trans_for<T>();
  if (uplo == Uplo::Upper) {
    blas::trsm(Side::Left, Uplo::Upper, ct, Diag::NonUnit, n, nrhs, T(1), a,
               lda, b, ldb);
    blas::trsm(Side::Left, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n,
               nrhs, T(1), a, lda, b, ldb);
  } else {
    blas::trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, n,
               nrhs, T(1), a, lda, b, ldb);
    blas::trsm(Side::Left, Uplo::Lower, ct, Diag::NonUnit, n, nrhs, T(1), a,
               lda, b, ldb);
  }
  return 0;
}

/// Reciprocal condition estimate from potrf factors (xPOCON); anorm is the
/// 1-norm of the original matrix.
template <Scalar T>
idx pocon(Uplo uplo, idx n, const T* a, idx lda, real_t<T> anorm,
          real_t<T>& rcond) {
  using R = real_t<T>;
  rcond = R(0);
  if (n == 0) {
    rcond = R(1);
    return 0;
  }
  if (anorm == R(0)) {
    return 0;
  }
  auto solve = [&](T* v) { potrs(uplo, n, 1, a, lda, v, n); };
  const R ainv_norm = norm1_estimate<T>(n, solve, solve);
  if (ainv_norm != R(0)) {
    rcond = (R(1) / ainv_norm) / anorm;
  }
  return 0;
}

/// Iterative refinement for positive definite systems (xPORFS); same error
/// bound contract as gerfs.
template <Scalar T>
idx porfs(Uplo uplo, idx n, idx nrhs, const T* a, idx lda, const T* af,
          idx ldaf, const T* b, idx ldb, T* x, idx ldx, real_t<T>* ferr,
          real_t<T>* berr) {
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

  auto abs_a = [&](idx i, idx j) -> R {
    const bool stored = uplo == Uplo::Upper ? (i <= j) : (i >= j);
    return stored ? abs1(a[static_cast<std::size_t>(j) * lda + i])
                  : abs1(a[static_cast<std::size_t>(i) * lda + j]);
  };

  for (idx j = 0; j < nrhs; ++j) {
    T* xj = x + static_cast<std::size_t>(j) * ldx;
    const T* bj = b + static_cast<std::size_t>(j) * ldb;
    R lstres = R(3);
    for (int iter = 0; iter < kItMax; ++iter) {
      blas::copy(n, bj, 1, r.data(), 1);
      blas::hemv(uplo, n, T(-1), a, lda, xj, 1, T(1), r.data(), 1);
      for (idx i = 0; i < n; ++i) {
        R s = abs1(bj[i]);
        for (idx k = 0; k < n; ++k) {
          s += abs_a(i, k) * abs1(xj[k]);
        }
        w[i] = s;
      }
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
      potrs(uplo, n, 1, af, ldaf, r.data(), n);
      blas::axpy(n, T(1), r.data(), 1, xj, 1);
      if (done) {
        break;
      }
    }
    // Forward error via the 1-norm estimator on inv(A) diag(w').
    blas::copy(n, bj, 1, r.data(), 1);
    blas::hemv(uplo, n, T(-1), a, lda, xj, 1, T(1), r.data(), 1);
    for (idx i = 0; i < n; ++i) {
      R s = abs1(bj[i]);
      for (idx k = 0; k < n; ++k) {
        s += abs_a(i, k) * abs1(xj[k]);
      }
      w[i] = abs1(r[i]) + R(n + 1) * epsv * s;
      if (w[i] <= safe1) {
        w[i] += safe1;
      }
    }
    auto apply = [&](T* v) {
      for (idx i = 0; i < n; ++i) {
        v[i] *= T(w[i]);
      }
      potrs(uplo, n, 1, af, ldaf, v, n);
    };
    auto applyh = [&](T* v) {
      potrs(uplo, n, 1, af, ldaf, v, n);
      for (idx i = 0; i < n; ++i) {
        v[i] *= T(w[i]);
      }
    };
    const R est = norm1_estimate<T>(n, applyh, apply);
    const R xnorm = max_abs1(n, xj);
    ferr[j] = xnorm > R(0) ? est / xnorm : R(0);
  }
  return 0;
}

/// Driver: positive definite solve (xPOSV).
template <Scalar T>
idx posv(Uplo uplo, idx n, idx nrhs, T* a, idx lda, T* b, idx ldb) {
  const idx info = potrf(uplo, n, a, lda);
  if (info != 0) {
    return info;
  }
  return potrs(uplo, n, nrhs, a, lda, b, ldb);
}

// --------------------------------------------------------------------------
// Packed storage (xPPTRF / xPPTRS / xPPSV)
// --------------------------------------------------------------------------

/// Packed Cholesky (xPPTRF): factor the packed triangle in place.
template <Scalar T>
idx pptrf(Uplo uplo, idx n, T* ap) noexcept {
  using R = real_t<T>;
  auto at = [&](idx i, idx j) -> T& {
    return ap[packed_index(uplo, n, i, j)];
  };
  if (uplo == Uplo::Upper) {
    for (idx j = 0; j < n; ++j) {
      R ajj = real_part(at(j, j));
      for (idx k = 0; k < j; ++k) {
        ajj -= real_part(conj_if(at(k, j)) * at(k, j));
      }
      if (!(ajj > R(0)) || !std::isfinite(ajj)) {
        at(j, j) = T(ajj);
        return j + 1;
      }
      const R rjj = std::sqrt(ajj);
      at(j, j) = T(rjj);
      for (idx c = j + 1; c < n; ++c) {
        T s = at(j, c);
        for (idx k = 0; k < j; ++k) {
          s -= conj_if(at(k, j)) * at(k, c);
        }
        at(j, c) = s / T(rjj);
      }
    }
  } else {
    for (idx j = 0; j < n; ++j) {
      R ajj = real_part(at(j, j));
      for (idx k = 0; k < j; ++k) {
        ajj -= real_part(conj_if(at(j, k)) * at(j, k));
      }
      if (!(ajj > R(0)) || !std::isfinite(ajj)) {
        at(j, j) = T(ajj);
        return j + 1;
      }
      const R rjj = std::sqrt(ajj);
      at(j, j) = T(rjj);
      for (idx i = j + 1; i < n; ++i) {
        T s = at(i, j);
        for (idx k = 0; k < j; ++k) {
          s -= at(i, k) * conj_if(at(j, k));
        }
        at(i, j) = s / T(rjj);
      }
    }
  }
  return 0;
}

/// Solve from packed Cholesky factors (xPPTRS).
template <Scalar T>
idx pptrs(Uplo uplo, idx n, idx nrhs, const T* ap, T* b, idx ldb) noexcept {
  const Trans ct = conj_trans_for<T>();
  for (idx j = 0; j < nrhs; ++j) {
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    if (uplo == Uplo::Upper) {
      blas::tpsv(Uplo::Upper, ct, Diag::NonUnit, n, ap, bj, 1);
      blas::tpsv(Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n, ap, bj, 1);
    } else {
      blas::tpsv(Uplo::Lower, Trans::NoTrans, Diag::NonUnit, n, ap, bj, 1);
      blas::tpsv(Uplo::Lower, ct, Diag::NonUnit, n, ap, bj, 1);
    }
  }
  return 0;
}

/// Driver: packed positive definite solve (xPPSV).
template <Scalar T>
idx ppsv(Uplo uplo, idx n, idx nrhs, T* ap, T* b, idx ldb) noexcept {
  const idx info = pptrf(uplo, n, ap);
  if (info != 0) {
    return info;
  }
  return pptrs(uplo, n, nrhs, ap, b, ldb);
}

// --------------------------------------------------------------------------
// Band storage (xPBTRF / xPBTRS / xPBSV)
// --------------------------------------------------------------------------

/// Band Cholesky, unblocked (xPBTF2). AB is SB/PB storage with kd
/// off-diagonals (diagonal at row kd for Upper, row 0 for Lower).
template <Scalar T>
idx pbtrf(Uplo uplo, idx n, idx kd, T* ab, idx ldab) noexcept {
  using R = real_t<T>;
  for (idx j = 0; j < n; ++j) {
    T* col = ab + static_cast<std::size_t>(j) * ldab;
    if (uplo == Uplo::Upper) {
      const R ajj = real_part(col[kd]);
      if (!(ajj > R(0)) || !std::isfinite(ajj)) {
        return j + 1;
      }
      const R rjj = std::sqrt(ajj);
      col[kd] = T(rjj);
      // Scale row j of U within the band and update the trailing block.
      const idx kn = std::min<idx>(kd, n - j - 1);
      if (kn > 0) {
        blas::scal(kn, R(1) / rjj, ab + static_cast<std::size_t>(j + 1) * ldab +
                                        kd - 1,
                   ldab - 1);
        // her-style rank-1 update of A(j+1:j+kn, j+1:j+kn) inside the band.
        for (idx c = 1; c <= kn; ++c) {
          const T ujc =
              ab[static_cast<std::size_t>(j + c) * ldab + kd - c];
          if (ujc == T(0)) {
            continue;
          }
          for (idx i = 1; i <= c; ++i) {
            const T uji =
                ab[static_cast<std::size_t>(j + i) * ldab + kd - i];
            ab[static_cast<std::size_t>(j + c) * ldab + kd - (c - i)] -=
                conj_if(uji) * ujc;
          }
        }
        if constexpr (is_complex_v<T>) {
          for (idx c = 1; c <= kn; ++c) {
            T& d = ab[static_cast<std::size_t>(j + c) * ldab + kd];
            d = T(real_part(d));
          }
        }
      }
    } else {
      const R ajj = real_part(col[0]);
      if (!(ajj > R(0)) || !std::isfinite(ajj)) {
        return j + 1;
      }
      const R rjj = std::sqrt(ajj);
      col[0] = T(rjj);
      const idx kn = std::min<idx>(kd, n - j - 1);
      if (kn > 0) {
        blas::scal(kn, R(1) / rjj, col + 1, 1);
        // A(j+1:j+kn, j+1:j+kn) -= l * l^H, banded.
        for (idx c = 1; c <= kn; ++c) {
          const T ljc = col[c];
          if (ljc == T(0)) {
            continue;
          }
          T* cc = ab + static_cast<std::size_t>(j + c) * ldab;
          for (idx i = c; i <= kn; ++i) {
            cc[i - c] -= col[i] * conj_if(ljc);
          }
        }
        if constexpr (is_complex_v<T>) {
          for (idx c = 1; c <= kn; ++c) {
            T& d = ab[static_cast<std::size_t>(j + c) * ldab];
            d = T(real_part(d));
          }
        }
      }
    }
  }
  return 0;
}

/// Solve from band Cholesky factors (xPBTRS).
template <Scalar T>
idx pbtrs(Uplo uplo, idx n, idx kd, idx nrhs, const T* ab, idx ldab, T* b,
          idx ldb) noexcept {
  const Trans ct = conj_trans_for<T>();
  for (idx j = 0; j < nrhs; ++j) {
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    if (uplo == Uplo::Upper) {
      blas::tbsv(Uplo::Upper, ct, Diag::NonUnit, n, kd, ab, ldab, bj, 1);
      blas::tbsv(Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n, kd, ab, ldab,
                 bj, 1);
    } else {
      blas::tbsv(Uplo::Lower, Trans::NoTrans, Diag::NonUnit, n, kd, ab, ldab,
                 bj, 1);
      blas::tbsv(Uplo::Lower, ct, Diag::NonUnit, n, kd, ab, ldab, bj, 1);
    }
  }
  return 0;
}

/// Driver: band positive definite solve (xPBSV).
template <Scalar T>
idx pbsv(Uplo uplo, idx n, idx kd, idx nrhs, T* ab, idx ldab, T* b,
         idx ldb) noexcept {
  const idx info = pbtrf(uplo, n, kd, ab, ldab);
  if (info != 0) {
    return info;
  }
  return pbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb);
}

}  // namespace la::lapack

// Tiled task-DAG driver definitions — included last to break the
// kernel/driver cycle (see lapack/tiled_fwd.hpp for the dispatch gate).
#include "lapack90/lapack/tiled.hpp"  // IWYU pragma: keep
