// lapack90/lapack/lls.hpp
//
// Linear least squares drivers — the substrate under LA_GELS / LA_GELSX /
// LA_GELSS:
//
//   trtrs    triangular solve with singularity check
//   gels     QR/LQ least squares and minimum-norm solutions, with TRANS
//   gelsy    column-pivoted complete orthogonal factorization (the modern
//            xGELSY algorithm implementing the paper's LA_GELSX contract)
//   gelss    SVD-based minimum-norm least squares
//   tzrzf / larz / ormrz   trapezoidal RZ machinery used by gelsy
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "lapack90/blas/level1.hpp"
#include "lapack90/blas/level2.hpp"
#include "lapack90/blas/level3.hpp"
#include "lapack90/core/precision.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/core/workspace.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/lapack/qr.hpp"
#include "lapack90/lapack/svd.hpp"

namespace la::lapack {

/// Triangular solve op(A) X = B with an exact-singularity check (xTRTRS).
/// Returns 0 or the 1-based index of a zero diagonal entry.
template <Scalar T>
idx trtrs(Uplo uplo, Trans trans, Diag diag, idx n, idx nrhs, const T* a,
          idx lda, T* b, idx ldb) noexcept {
  if (diag == Diag::NonUnit) {
    for (idx i = 0; i < n; ++i) {
      if (a[static_cast<std::size_t>(i) * lda + i] == T(0)) {
        return i + 1;
      }
    }
  }
  blas::trsm(Side::Left, uplo, trans, diag, n, nrhs, T(1), a, lda, b, ldb);
  return 0;
}

namespace detail {
struct GelsTauTag {};
}  // namespace detail

/// Driver: over/under-determined least squares by QR or LQ (xGELS).
/// Solves min ||op(A) X - B|| (overdetermined) or the minimum-norm
/// solution (underdetermined); B is max(m, n) x nrhs, solution in its
/// leading rows. Returns 0 or >0 if the triangular factor is exactly
/// singular (rank deficiency — use gelsy/gelss then).
template <Scalar T>
idx gels(Trans trans, idx m, idx n, idx nrhs, T* a, idx lda, T* b, idx ldb) {
  const idx k = std::min(m, n);
  if (k == 0 || nrhs == 0) {
    // Solution of an empty system is zero.
    laset(Part::All, std::max(m, n), nrhs, T(0), T(0), b, ldb);
    return 0;
  }
  T* const tau = la::detail::work_buffer<T, detail::GelsTauTag>(
      static_cast<std::size_t>(k));
  const bool tpsd = trans != Trans::NoTrans;
  const Trans ct = conj_trans_for<T>();
  if (m >= n) {
    geqrf(m, n, a, lda, tau);
    if (!tpsd) {
      // Least squares: B := Q^H B, solve R X = B(0:n-1).
      ormqr(Side::Left, ct, m, nrhs, n, a, lda, tau, b, ldb);
      return trtrs(Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n, nrhs, a,
                   lda, b, ldb);
    }
    // Minimum-norm solution of A^H X = B: solve R^H W = B, X = Q [W; 0].
    const idx info =
        trtrs(Uplo::Upper, ct, Diag::NonUnit, n, nrhs, a, lda, b, ldb);
    if (info != 0) {
      return info;
    }
    laset(Part::All, m - n, nrhs, T(0), T(0), b + n, ldb);
    ormqr(Side::Left, Trans::NoTrans, m, nrhs, n, a, lda, tau, b, ldb);
    return 0;
  }
  gelqf(m, n, a, lda, tau);
  if (!tpsd) {
    // Minimum-norm solution of A X = B: solve L W = B, X = Q^H [W; 0].
    const idx info = trtrs(Uplo::Lower, Trans::NoTrans, Diag::NonUnit, m,
                           nrhs, a, lda, b, ldb);
    if (info != 0) {
      return info;
    }
    laset(Part::All, n - m, nrhs, T(0), T(0), b + m, ldb);
    ormlq(Side::Left, ct, n, nrhs, m, a, lda, tau, b, ldb);
    return 0;
  }
  // Least squares for A^H X = B: B := Q B, solve L^H X = B(0:m-1).
  ormlq(Side::Left, Trans::NoTrans, n, nrhs, m, a, lda, tau, b, ldb);
  return trtrs(Uplo::Lower, ct, Diag::NonUnit, m, nrhs, a, lda, b, ldb);
}

/// Apply an elementary reflector with structure [1, 0...0, v(l entries)]
/// from the left or right (xLARZ). Used by the RZ factorization.
template <Scalar T>
void larz(Side side, idx m, idx n, idx l, const T* v, idx incv, T tau, T* c,
          idx ldc, T* work) noexcept {
  if (tau == T(0)) {
    return;
  }
  if (side == Side::Left) {
    // w = C(0,:) + v^H C(m-l:,:);  C(0,:) -= tau w;  C(m-l:,:) -= tau v w.
    // (explicit loop: the conjugation is on v, which gemv cannot express)
    for (idx j = 0; j < n; ++j) {
      T w = c[static_cast<std::size_t>(j) * ldc];
      const T* ctail = c + static_cast<std::size_t>(j) * ldc + (m - l);
      for (idx i = 0; i < l; ++i) {
        w += conj_if(v[off(i, incv)]) * ctail[i];
      }
      work[j] = w;
    }
    for (idx j = 0; j < n; ++j) {
      c[static_cast<std::size_t>(j) * ldc] -= tau * work[j];
    }
    blas::geru(l, n, -tau, v, incv, work, 1, c + (m - l), ldc);
  } else {
    // w = C(:,0) + C(:, n-l:) v;  C(:,0) -= tau w;  C(:, n-l:) -= tau w v^H.
    blas::copy(m, c, 1, work, 1);
    blas::gemv(Trans::NoTrans, m, l, T(1),
               c + static_cast<std::size_t>(n - l) * ldc, ldc, v, incv, T(1),
               work, 1);
    blas::axpy(m, -tau, work, 1, c, 1);
    blas::gerc(m, l, -tau, work, 1, v, incv,
               c + static_cast<std::size_t>(n - l) * ldc, ldc);
  }
}

/// Reduce an upper trapezoidal m x n (m <= n) matrix to [R 0] by unitary
/// transformations from the right (xTZRZF / xLATRZ, unblocked).
template <Scalar T>
void tzrzf(idx m, idx n, T* a, idx lda, T* tau) {
  if (m == 0) {
    return;
  }
  if (m == n) {
    for (idx i = 0; i < m; ++i) {
      tau[i] = T(0);
    }
    return;
  }
  const idx l = n - m;
  std::vector<T> work(static_cast<std::size_t>(std::max(m, n)));
  for (idx i = m - 1; i >= 0; --i) {
    // Annihilate row i's tail [a(i,i), a(i, m:n-1)] from the right: with
    // larfg's H^H [alpha; x] = [beta; 0], the right-multiplying factor is
    // M = I - conj(tau) conj(u) conj(u)^H, so store conj(u) and conj(tau).
    T& aii = a[static_cast<std::size_t>(i) * lda + i];
    T* tail = a + static_cast<std::size_t>(m) * lda + i;
    larfg(l + 1, aii, tail, lda, tau[i]);
    lacgv(l, tail, lda);
    tau[i] = conj_if(tau[i]);
    if (i > 0) {
      // Apply M from the right to rows 0..i-1.
      larz(Side::Right, i, n - i, l, tail, lda, tau[i],
           a + static_cast<std::size_t>(i) * lda, lda, work.data());
    }
  }
}

/// Column-pivoted complete-orthogonal-factorization least squares
/// (xGELSY; fulfils the paper's LA_GELSX contract). Computes the
/// minimum-norm solution to min ||A X - B|| using QR with column pivoting
/// and an RZ factorization of the rank-deficient part. rank is determined
/// by rcond (|R(k,k)| vs |R(0,0)|). jpvt returns the permutation.
template <Scalar T>
idx gelsy(idx m, idx n, idx nrhs, T* a, idx lda, T* b, idx ldb, idx* jpvt,
          real_t<T> rcond, idx& rank) {
  using R = real_t<T>;
  const idx mn = std::min(m, n);
  rank = 0;
  if (mn == 0 || nrhs == 0) {
    laset(Part::All, std::max(m, n), nrhs, T(0), T(0), b, ldb);
    return 0;
  }
  std::vector<T> tau(static_cast<std::size_t>(mn));
  geqp3(m, n, a, lda, jpvt, tau.data());
  // Determine rank from the R diagonal.
  const R r00 = std::abs(a[0]);
  if (r00 == R(0)) {
    laset(Part::All, n, nrhs, T(0), T(0), b, ldb);
    return 0;
  }
  rank = 1;
  for (idx i = 1; i < mn; ++i) {
    if (std::abs(a[static_cast<std::size_t>(i) * lda + i]) > rcond * r00) {
      ++rank;
    } else {
      break;
    }
  }
  // B := Q^H B.
  ormqr(Side::Left, conj_trans_for<T>(), m, nrhs, mn, a, lda, tau.data(), b,
        ldb);
  // Reduce [R11 R12] (rank x n) to [T11 0] from the right when deficient.
  std::vector<T> tauz(static_cast<std::size_t>(rank));
  if (rank < n) {
    tzrzf(rank, n, a, lda, tauz.data());
  }
  // Solve T11 Y = B(0:rank-1).
  const idx info = trtrs(Uplo::Upper, Trans::NoTrans, Diag::NonUnit, rank,
                         nrhs, a, lda, b, ldb);
  if (info != 0) {
    return info;
  }
  laset(Part::All, n - rank, nrhs, T(0), T(0), b + rank, ldb);
  // X = P Z^H [Y; 0].
  if (rank < n) {
    // Apply the stored M factors ascending (z = M_{rank-1}...M_0 [y; 0]);
    // tzrzf already stored the right-multiplication form, which is exactly
    // the left-multiplication reflector here.
    std::vector<T> work(static_cast<std::size_t>(std::max(n, nrhs)));
    const idx l = n - rank;
    for (idx i = 0; i < rank; ++i) {
      larz(Side::Left, n - i, nrhs, l,
           a + static_cast<std::size_t>(rank) * lda + i, lda, tauz[i], b + i,
           ldb, work.data());
    }
  }
  // Undo the column permutation: x(jpvt[i]) = y(i).
  std::vector<T> col(static_cast<std::size_t>(n));
  for (idx j = 0; j < nrhs; ++j) {
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    for (idx i = 0; i < n; ++i) {
      col[jpvt[i]] = bj[i];
    }
    blas::copy(n, col.data(), 1, bj, 1);
  }
  return 0;
}

/// SVD-based minimum-norm least squares (xGELSS). s gets the singular
/// values; rank the effective rank at threshold rcond * s[0] (rcond < 0
/// selects machine precision). Returns 0 or >0 if the SVD failed.
template <Scalar T>
idx gelss(idx m, idx n, idx nrhs, T* a, idx lda, T* b, idx ldb, real_t<T>* s,
          real_t<T> rcond, idx& rank) {
  using R = real_t<T>;
  const idx mn = std::min(m, n);
  rank = 0;
  if (mn == 0 || nrhs == 0) {
    laset(Part::All, std::max(m, n), nrhs, T(0), T(0), b, ldb);
    return 0;
  }
  if (rcond < R(0)) {
    rcond = eps<T>() * R(std::max(m, n));
  }
  std::vector<T> u(static_cast<std::size_t>(m) * mn);
  std::vector<T> vt(static_cast<std::size_t>(mn) * n);
  const idx info =
      gesvd(Job::Vec, Job::Vec, m, n, a, lda, s, u.data(), m, vt.data(), mn);
  if (info != 0) {
    return info;
  }
  // W = U^H B (mn x nrhs).
  std::vector<T> w(static_cast<std::size_t>(mn) * nrhs);
  blas::gemm(conj_trans_for<T>(), Trans::NoTrans, mn, nrhs, m, T(1), u.data(),
             m, b, ldb, T(0), w.data(), mn);
  const R thresh = rcond * s[0];
  for (idx i = 0; i < mn; ++i) {
    if (s[i] > thresh) {
      ++rank;
      blas::scal(nrhs, R(1) / s[i], w.data() + i, mn);
    } else {
      blas::scal(nrhs, R(0), w.data() + i, mn);
    }
  }
  // X = V W = (VT)^H W, stored into the leading n rows of B.
  blas::gemm(conj_trans_for<T>(), Trans::NoTrans, n, nrhs, mn, T(1),
             vt.data(), mn, w.data(), mn, T(0), b, ldb);
  return 0;
}

}  // namespace la::lapack
