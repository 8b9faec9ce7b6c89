// lapack90/lapack/qr.hpp
//
// Householder machinery and orthogonal factorizations — the substrate
// under LA_GELS / LA_GELSX / LA_GELSS / LA_GGLSE / LA_GGGLM and the
// two-sided reductions of the eigensolvers:
//
//   larfg / larf          elementary reflector generation / application
//   larft / larfb         block reflector T-factor / application
//   geqr2 / geqrt3        unblocked / recursive (Level-3) panel QR
//   geqrf                 tiled (task-DAG) QR
//   orgqr / ormqr         form Q / multiply by Q (or Q^H)
//   gelq2 / gelqf         LQ factorization
//   orglq / ormlq         LQ analogs
//   geqp3                 QR with column pivoting (xLAQP2 algorithm)
//
// `org*`/`orm*` names serve both the real (xORG/xORM) and complex
// (xUNG/xUNM) routines — one template each, as with the rest of the
// library.
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
#include "lapack90/core/workspace.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/lapack/tiled_fwd.hpp"

namespace la::lapack {

namespace detail {

// Scratch buffers come from la::detail::work_buffer (core/workspace.hpp),
// one tag per buffer of each routine.
struct GeqrfWorkTag {};  // geqr2 scratch of geqrf's unblocked branch
struct GeqrfTTag {};     // T factors of geqrf's tiled branch
struct OrgQrTag {};
struct OrgLqTag {};
struct OrgQlTag {};
struct OrmQrWorkTag {};  // larf scratch
struct OrmQrVTag {};     // reflector with its unit head
struct GelqfWorkTag {};
struct OrmLqWorkTag {};
struct OrmLqVTag {};

}  // namespace detail

/// Conjugate the elements of a vector in place (xLACGV); no-op for real.
template <Scalar T>
void lacgv(idx n, T* x, idx incx) noexcept {
  if constexpr (is_complex_v<T>) {
    for (idx i = 0; i < n; ++i) {
      x[off(i, incx)] = std::conj(x[off(i, incx)]);
    }
  } else {
    (void)n;
    (void)x;
    (void)incx;
  }
}

/// Generate an elementary Householder reflector (xLARFG):
/// H = I - tau [1; v] [1; v]^H with H^H [alpha; x] = [beta; 0], beta real.
/// On exit alpha holds beta and x the reflector tail v.
template <Scalar T>
void larfg(idx n, T& alpha, T* x, idx incx, T& tau) noexcept {
  using R = real_t<T>;
  if (n <= 0) {
    tau = T(0);
    return;
  }
  R xnorm = blas::nrm2(n - 1, x, incx);
  if (xnorm == R(0) && imag_part(alpha) == R(0)) {
    tau = T(0);
    return;
  }
  R alphr = real_part(alpha);
  R alphi = imag_part(alpha);
  R beta = -std::copysign(lapy3(alphr, alphi, xnorm), alphr);
  const R sfmin = safmin<T>() / eps<T>();
  int knt = 0;
  const R rsfmin = R(1) / sfmin;
  while (std::abs(beta) < sfmin && knt < 20) {
    // Rescale to avoid harmful underflow.
    ++knt;
    blas::scal(n - 1, rsfmin, x, incx);
    beta *= rsfmin;
    alphr *= rsfmin;
    alphi *= rsfmin;
    xnorm = blas::nrm2(n - 1, x, incx);
    beta = -std::copysign(lapy3(alphr, alphi, xnorm), alphr);
  }
  if constexpr (is_complex_v<T>) {
    tau = T((beta - alphr) / beta, -alphi / beta);
    const T denom = ladiv(T(1), T(alphr - beta, alphi));
    blas::scal(n - 1, denom, x, incx);
  } else {
    tau = (beta - alphr) / beta;
    blas::scal(n - 1, T(1) / (alphr - beta), x, incx);
  }
  for (int j = 0; j < knt; ++j) {
    beta *= sfmin;
  }
  alpha = T(beta);
}

/// Apply an elementary reflector H = I - tau v v^H to C (xLARF).
/// v has m (Left) or n (Right) elements including the implicit leading 1 —
/// the caller must ensure v[0] == 1 (the geqr2-style temporary-overwrite
/// idiom). `work` needs n (Left) or m (Right) elements.
template <Scalar T>
void larf(Side side, idx m, idx n, const T* v, idx incv, T tau, T* c, idx ldc,
          T* work) noexcept {
  if (tau == T(0)) {
    return;
  }
  if (side == Side::Left) {
    // w = C^H v;  C -= tau v w^H.
    blas::gemv(conj_trans_for<T>(), m, n, T(1), c, ldc, v, incv, T(0), work,
               1);
    blas::gerc(m, n, -tau, v, incv, work, 1, c, ldc);
  } else {
    // w = C v;  C -= tau w v^H.
    blas::gemv(Trans::NoTrans, m, n, T(1), c, ldc, v, incv, T(0), work, 1);
    blas::gerc(m, n, -tau, work, 1, v, incv, c, ldc);
  }
}

/// Form the upper-triangular factor T of a block reflector from k forward,
/// columnwise-stored reflectors (xLARFT 'F','C').
template <Scalar T>
void larft(idx n, idx k, T* v, idx ldv, const T* tau, T* t,
           idx ldt) noexcept {
  for (idx i = 0; i < k; ++i) {
    T* ti = t + static_cast<std::size_t>(i) * ldt;
    if (tau[i] == T(0)) {
      for (idx j = 0; j < i; ++j) {
        ti[j] = T(0);
      }
    } else {
      T* vi = v + static_cast<std::size_t>(i) * ldv;
      const T vii = vi[i];
      vi[i] = T(1);
      // T(0:i-1, i) = -tau(i) * V(i:n-1, 0:i-1)^H * V(i:n-1, i).
      blas::gemv(conj_trans_for<T>(), n - i, i, -tau[i], v + i, ldv, vi + i, 1,
                 T(0), ti, 1);
      vi[i] = vii;
      // T(0:i-1, i) := T(0:i-1, 0:i-1) * T(0:i-1, i).
      blas::trmv(Uplo::Upper, Trans::NoTrans, Diag::NonUnit, i, t, ldt, ti, 1);
    }
    ti[i] = tau[i];
  }
}

/// Apply a block reflector H = I - V T V^H (forward, columnwise) or its
/// conjugate transpose to C (xLARFB). `work` is an (n x k) [Left] or
/// (m x k) [Right] scratch with leading dimension ldwork.
template <Scalar T>
void larfb(Side side, Trans trans, idx m, idx n, idx k, const T* v, idx ldv,
           const T* t, idx ldt, T* c, idx ldc, T* work, idx ldwork) noexcept {
  if (m <= 0 || n <= 0 || k <= 0) {
    return;
  }
  const Trans ct = conj_trans_for<T>();
  if (side == Side::Left) {
    // W := (C1^H V1 + C2^H V2) op(T);  C -= V W^H.
    const Trans transt = trans == Trans::NoTrans ? ct : Trans::NoTrans;
    for (idx j = 0; j < k; ++j) {
      // W(:, j) = conj(C(j, :)).
      blas::copy(n, c + j, ldc, work + static_cast<std::size_t>(j) * ldwork,
                 1);
      lacgv(n, work + static_cast<std::size_t>(j) * ldwork, 1);
    }
    blas::trmm(Side::Right, Uplo::Lower, Trans::NoTrans, Diag::Unit, n, k,
               T(1), v, ldv, work, ldwork);
    if (m > k) {
      blas::gemm(ct, Trans::NoTrans, n, k, m - k, T(1), c + k, ldc, v + k,
                 ldv, T(1), work, ldwork);
    }
    blas::trmm(Side::Right, Uplo::Upper, transt, Diag::NonUnit, n, k, T(1), t,
               ldt, work, ldwork);
    if (m > k) {
      blas::gemm(Trans::NoTrans, ct, m - k, n, k, T(-1), v + k, ldv, work,
                 ldwork, T(1), c + k, ldc);
    }
    blas::trmm(Side::Right, Uplo::Lower, ct, Diag::Unit, n, k, T(1), v, ldv,
               work, ldwork);
    for (idx j = 0; j < k; ++j) {
      T* cj = c + j;
      const T* wj = work + static_cast<std::size_t>(j) * ldwork;
      for (idx i = 0; i < n; ++i) {
        cj[static_cast<std::size_t>(i) * ldc] -= conj_if(wj[i]);
      }
    }
  } else {
    // W := (C1 V1 + C2 V2) op(T);  C -= W V^H.
    for (idx j = 0; j < k; ++j) {
      blas::copy(m, c + static_cast<std::size_t>(j) * ldc, 1,
                 work + static_cast<std::size_t>(j) * ldwork, 1);
    }
    blas::trmm(Side::Right, Uplo::Lower, Trans::NoTrans, Diag::Unit, m, k,
               T(1), v, ldv, work, ldwork);
    if (n > k) {
      blas::gemm(Trans::NoTrans, Trans::NoTrans, m, k, n - k, T(1),
                 c + static_cast<std::size_t>(k) * ldc, ldc, v + k, ldv, T(1),
                 work, ldwork);
    }
    blas::trmm(Side::Right, Uplo::Upper, trans, Diag::NonUnit, m, k, T(1), t,
               ldt, work, ldwork);
    if (n > k) {
      blas::gemm(Trans::NoTrans, ct, m, n - k, k, T(-1), work, ldwork, v + k,
                 ldv, T(1), c + static_cast<std::size_t>(k) * ldc, ldc);
    }
    blas::trmm(Side::Right, Uplo::Lower, ct, Diag::Unit, m, k, T(1), v, ldv,
               work, ldwork);
    for (idx j = 0; j < k; ++j) {
      T* cj = c + static_cast<std::size_t>(j) * ldc;
      const T* wj = work + static_cast<std::size_t>(j) * ldwork;
      for (idx i = 0; i < m; ++i) {
        cj[i] -= wj[i];
      }
    }
  }
}

/// Form the lower-triangular factor T of a block reflector from k
/// backward, columnwise-stored reflectors (xLARFT 'B','C'):
/// H = H(k) ... H(2) H(1) with reflector i in column i of the n x k V,
/// unit entry at row n-k+i and zeros below it (the xGEQLF / orgql layout).
template <Scalar T>
void larft_back(idx n, idx k, T* v, idx ldv, const T* tau, T* t,
                idx ldt) noexcept {
  for (idx i = k - 1; i >= 0; --i) {
    T* ti = t + static_cast<std::size_t>(i) * ldt;
    if (tau[i] == T(0)) {
      for (idx j = i; j < k; ++j) {
        ti[j] = T(0);
      }
    } else {
      if (i < k - 1) {
        T* vi = v + static_cast<std::size_t>(i) * ldv;
        const idx nrow = n - k + i + 1;  // rows 0 .. n-k+i hold H(i)'s vector
        const T vlast = vi[nrow - 1];
        vi[nrow - 1] = T(1);
        // T(i+1:k-1, i) = -tau(i) * V(0:n-k+i, i+1:k-1)^H * V(0:n-k+i, i).
        blas::gemv(conj_trans_for<T>(), nrow, k - i - 1, -tau[i],
                   v + static_cast<std::size_t>(i + 1) * ldv, ldv, vi, 1,
                   T(0), ti + i + 1, 1);
        vi[nrow - 1] = vlast;
        // T(i+1:k-1, i) := T(i+1:k-1, i+1:k-1) * T(i+1:k-1, i).
        blas::trmv(Uplo::Lower, Trans::NoTrans, Diag::NonUnit, k - i - 1,
                   t + static_cast<std::size_t>(i + 1) * ldt + i + 1, ldt,
                   ti + i + 1, 1);
      }
      ti[i] = tau[i];
    }
  }
}

/// Apply a backward, columnwise block reflector H = I - V T V^H (or H^H)
/// to C from the left (xLARFB 'B','C' side 'L' — the only side orgql
/// needs). V = [V1; V2] with V2 the k x k unit upper-triangular tail; T is
/// lower triangular from larft_back. `work` is n x k with leading
/// dimension ldwork.
template <Scalar T>
void larfb_back(Trans trans, idx m, idx n, idx k, const T* v, idx ldv,
                const T* t, idx ldt, T* c, idx ldc, T* work,
                idx ldwork) noexcept {
  if (m <= 0 || n <= 0 || k <= 0) {
    return;
  }
  const Trans ct = conj_trans_for<T>();
  const Trans transt = trans == Trans::NoTrans ? ct : Trans::NoTrans;
  const T* v2 = v + (m - k);
  T* c2 = c + (m - k);
  // W := C^H V = C1^H V1 + C2^H V2 (C2 = last k rows of C).
  for (idx j = 0; j < k; ++j) {
    blas::copy(n, c2 + j, ldc, work + static_cast<std::size_t>(j) * ldwork,
               1);
    lacgv(n, work + static_cast<std::size_t>(j) * ldwork, 1);
  }
  blas::trmm(Side::Right, Uplo::Upper, Trans::NoTrans, Diag::Unit, n, k, T(1),
             v2, ldv, work, ldwork);
  if (m > k) {
    blas::gemm(ct, Trans::NoTrans, n, k, m - k, T(1), c, ldc, v, ldv, T(1),
               work, ldwork);
  }
  blas::trmm(Side::Right, Uplo::Lower, transt, Diag::NonUnit, n, k, T(1), t,
             ldt, work, ldwork);
  // C -= V W^H.
  if (m > k) {
    blas::gemm(Trans::NoTrans, ct, m - k, n, k, T(-1), v, ldv, work, ldwork,
               T(1), c, ldc);
  }
  blas::trmm(Side::Right, Uplo::Upper, ct, Diag::Unit, n, k, T(1), v2, ldv,
             work, ldwork);
  for (idx j = 0; j < k; ++j) {
    T* cj = c2 + j;
    const T* wj = work + static_cast<std::size_t>(j) * ldwork;
    for (idx i = 0; i < n; ++i) {
      cj[static_cast<std::size_t>(i) * ldc] -= conj_if(wj[i]);
    }
  }
}

/// Form the upper-triangular factor T of a block reflector from k forward,
/// rowwise-stored reflectors (xLARFT 'F','R'): row i of the k x n V holds
/// reflector i as stored by gelqf (conjugated for complex), with an
/// implicit unit at (i, i). Used by the blocked orglq.
template <Scalar T>
void larft_row(idx n, idx k, T* v, idx ldv, const T* tau, T* t,
               idx ldt) noexcept {
  for (idx i = 0; i < k; ++i) {
    T* ti = t + static_cast<std::size_t>(i) * ldt;
    if (tau[i] == T(0)) {
      for (idx j = 0; j < i; ++j) {
        ti[j] = T(0);
      }
    } else {
      if (i > 0) {
        T& vii = v[static_cast<std::size_t>(i) * ldv + i];
        const T save = vii;
        vii = T(1);
        // T(j, i) = -tau(i) * V(j, i:n-1) * V(i, i:n-1)^H for j < i.
        for (idx j = 0; j < i; ++j) {
          ti[j] =
              -tau[i] *
              conj_if(blas::dotc(
                  n - i, v + static_cast<std::size_t>(i) * ldv + j, ldv,
                  v + static_cast<std::size_t>(i) * ldv + i, ldv));
        }
        vii = save;
        // T(0:i-1, i) := T(0:i-1, 0:i-1) * T(0:i-1, i).
        blas::trmv(Uplo::Upper, Trans::NoTrans, Diag::NonUnit, i, t, ldt, ti,
                   1);
      }
      ti[i] = tau[i];
    }
  }
}

/// Apply a forward, rowwise block reflector to C from the right
/// (xLARFB 'F','R' side 'R' — the only side orglq needs). V is k x n with
/// unit upper-triangular V1 = V(:, 0:k-1); `work` is m x k with leading
/// dimension ldwork.
template <Scalar T>
void larfb_row(Trans trans, idx m, idx n, idx k, const T* v, idx ldv,
               const T* t, idx ldt, T* c, idx ldc, T* work,
               idx ldwork) noexcept {
  if (m <= 0 || n <= 0 || k <= 0) {
    return;
  }
  const Trans ct = conj_trans_for<T>();
  // W := C V^H = C1 V1^H + C2 V2^H.
  for (idx j = 0; j < k; ++j) {
    blas::copy(m, c + static_cast<std::size_t>(j) * ldc, 1,
               work + static_cast<std::size_t>(j) * ldwork, 1);
  }
  blas::trmm(Side::Right, Uplo::Upper, ct, Diag::Unit, m, k, T(1), v, ldv,
             work, ldwork);
  if (n > k) {
    blas::gemm(Trans::NoTrans, ct, m, k, n - k, T(1),
               c + static_cast<std::size_t>(k) * ldc, ldc,
               v + static_cast<std::size_t>(k) * ldv, ldv, T(1), work,
               ldwork);
  }
  blas::trmm(Side::Right, Uplo::Upper, trans, Diag::NonUnit, m, k, T(1), t,
             ldt, work, ldwork);
  // C -= W V.
  if (n > k) {
    blas::gemm(Trans::NoTrans, Trans::NoTrans, m, n - k, k, T(-1), work,
               ldwork, v + static_cast<std::size_t>(k) * ldv, ldv, T(1),
               c + static_cast<std::size_t>(k) * ldc, ldc);
  }
  blas::trmm(Side::Right, Uplo::Upper, Trans::NoTrans, Diag::Unit, m, k, T(1),
             v, ldv, work, ldwork);
  for (idx j = 0; j < k; ++j) {
    T* cj = c + static_cast<std::size_t>(j) * ldc;
    const T* wj = work + static_cast<std::size_t>(j) * ldwork;
    for (idx i = 0; i < m; ++i) {
      cj[i] -= wj[i];
    }
  }
}

/// Unblocked QR factorization (xGEQR2): A = Q R, reflectors below the
/// diagonal, tau has min(m,n) entries. `work` needs n elements.
template <Scalar T>
void geqr2(idx m, idx n, T* a, idx lda, T* tau, T* work) noexcept {
  const idx k = std::min(m, n);
  for (idx i = 0; i < k; ++i) {
    T* col = a + static_cast<std::size_t>(i) * lda;
    larfg(m - i, col[i], col + std::min<idx>(i + 1, m - 1), 1, tau[i]);
    if (i < n - 1) {
      const T aii = col[i];
      col[i] = T(1);
      larf(Side::Left, m - i, n - i - 1, col + i, 1, conj_if(tau[i]),
           a + static_cast<std::size_t>(i + 1) * lda + i, lda, work);
      col[i] = aii;
    }
  }
}

namespace detail {

/// geqrt3 levels at most this wide form their two rectangular products
/// column by column through gemv: at a 16-column level each product is
/// 8 x 8 x m, too thin for the packed gemm to pay for its packing
/// (cutoff sweep in EXPERIMENTS.md, "Fused QR panel chain").
inline constexpr idx kGeqrt3GemvWidth = 16;

/// W += V^H C for the mm x n1 V and mm x n2 C (W is n1 x n2).
template <Scalar T>
void geqrt3_vhc(bool narrow, idx mm, idx n1, idx n2, const T* v, idx ldv,
                const T* c, idx ldc, T* w, idx ldw) noexcept {
  if (!narrow) {
    blas::gemm(conj_trans_for<T>(), Trans::NoTrans, n1, n2, mm, T(1), v, ldv,
               c, ldc, T(1), w, ldw);
    return;
  }
  for (idx j = 0; j < n2; ++j) {
    blas::gemv(conj_trans_for<T>(), mm, n1, T(1), v, ldv,
               c + static_cast<std::size_t>(j) * ldc, 1, T(1),
               w + static_cast<std::size_t>(j) * ldw, 1);
  }
}

/// C -= V W for the mm x n1 V, n1 x n2 W and mm x n2 C.
template <Scalar T>
void geqrt3_cvw(bool narrow, idx mm, idx n1, idx n2, const T* v, idx ldv,
                const T* w, idx ldw, T* c, idx ldc) noexcept {
  if (!narrow) {
    blas::gemm(Trans::NoTrans, Trans::NoTrans, mm, n2, n1, T(-1), v, ldv, w,
               ldw, T(1), c, ldc);
    return;
  }
  for (idx j = 0; j < n2; ++j) {
    blas::gemv(Trans::NoTrans, mm, n1, T(-1), v, ldv,
               w + static_cast<std::size_t>(j) * ldw, 1, T(1),
               c + static_cast<std::size_t>(j) * ldc, 1);
  }
}

}  // namespace detail

/// Recursive QR factorization of an m x n panel, m >= n (xGEQRT3, after
/// Elmroth & Gustavson): A = Q R with Q = I - V T V^H. On exit A holds R
/// and the reflectors V below the diagonal as geqr2 leaves them, tau the
/// n scalar factors, and the n x n upper triangle of t the block
/// reflector's T (larft's output; its diagonal is tau). Each level splits
/// the columns in half, factors the left half, applies its block
/// reflector to the right half with Level-3 products, factors the right
/// half and joins the two T factors. The strictly upper triangle of t is
/// the only workspace.
template <Scalar T>
void geqrt3(idx m, idx n, T* a, idx lda, T* tau, T* t, idx ldt) noexcept {
  if (n <= 0) {
    return;
  }
  if (n == 1) {
    larfg(m, a[0], a + std::min<idx>(1, m - 1), 1, tau[0]);
    t[0] = tau[0];
    return;
  }
  const Trans ct = conj_trans_for<T>();
  const bool narrow = n <= detail::kGeqrt3GemvWidth;
  const idx n1 = n / 2;
  const idx n2 = n - n1;
  T* const a2 = a + static_cast<std::size_t>(n1) * lda;  // A(0, n1)
  T* const t12 = t + static_cast<std::size_t>(n1) * ldt;  // T(0, n1)
  T* const t22 = t12 + n1;                                // T(n1, n1)
  geqrt3(m, n1, a, lda, tau, t, ldt);
  // A2 := Q1^H A2 = A2 - V1 T1^H V1^H A2, with W = T12 as the workspace.
  for (idx j = 0; j < n2; ++j) {
    std::copy_n(a2 + static_cast<std::size_t>(j) * lda, n1,
                t12 + static_cast<std::size_t>(j) * ldt);
  }
  blas::trmm(Side::Left, Uplo::Lower, ct, Diag::Unit, n1, n2, T(1), a, lda,
             t12, ldt);
  detail::geqrt3_vhc(narrow, m - n1, n1, n2, a + n1, lda, a2 + n1, lda, t12,
                     ldt);
  blas::trmm(Side::Left, Uplo::Upper, ct, Diag::NonUnit, n1, n2, T(1), t,
             ldt, t12, ldt);
  detail::geqrt3_cvw(narrow, m - n1, n1, n2, a + n1, lda, t12, ldt, a2 + n1,
                     lda);
  blas::trmm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, n1, n2,
             T(1), a, lda, t12, ldt);
  for (idx j = 0; j < n2; ++j) {
    T* const aj = a2 + static_cast<std::size_t>(j) * lda;
    const T* const wj = t12 + static_cast<std::size_t>(j) * ldt;
    for (idx i = 0; i < n1; ++i) {
      aj[i] -= wj[i];
    }
  }
  geqrt3(m - n1, n2, a2 + n1, lda, tau + n1, t22, ldt);
  // T12 := -T1 (V1^H V2) T2, V2 unit lower trapezoidal from row n1.
  for (idx j = 0; j < n2; ++j) {
    for (idx i = 0; i < n1; ++i) {
      t12[static_cast<std::size_t>(j) * ldt + i] =
          conj_if(a[static_cast<std::size_t>(i) * lda + n1 + j]);
    }
  }
  blas::trmm(Side::Right, Uplo::Lower, Trans::NoTrans, Diag::Unit, n1, n2,
             T(1), a2 + n1, lda, t12, ldt);
  if (m > n) {
    detail::geqrt3_vhc(narrow, m - n, n1, n2, a + n, lda, a2 + n, lda, t12,
                       ldt);
  }
  blas::trmm(Side::Left, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n1, n2,
             T(-1), t, ldt, t12, ldt);
  blas::trmm(Side::Right, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n1, n2,
             T(1), t22, ldt, t12, ldt);
}

/// QR factorization (xGEQRF). Past the blocking crossover, when the
/// problem spans at least two column tiles of edge
/// NB = ilaenv(BlockSize, geqrf), the factorization runs as blocked
/// Householder tile kernels (geqrt3 panels, larfb updates) on the task
/// DAG (lapack/tiled.hpp); otherwise geqr2 runs. Returns 0, or -100 when a
/// tile workspace probe fails (see core/error.hpp).
template <Scalar T>
idx geqrf(idx m, idx n, T* a, idx lda, T* tau) {
  const idx k = std::min(m, n);
  const idx nb = tiled::detail::tile_edge(EnvRoutine::geqrf, k);
  if (nb == 0) {
    geqr2(m, n, a, lda, tau,
          la::detail::work_buffer<T, detail::GeqrfWorkTag>(
              static_cast<std::size_t>(n)));
    return 0;
  }
  // One nb x nb T factor per panel step.
  T* const tstore = la::detail::work_buffer<T, detail::GeqrfTTag>(
      static_cast<std::size_t>((k + nb - 1) / nb) * nb * nb);
  tiled::detail::QrTiles<T> t{m, n, k, nb, a, lda, tau, tstore};
  TaskGraph g;
  tiled::detail::build(g, t);
  return g.run();
}

namespace detail {

/// Unblocked orgqr (xORG2R); `work` needs n elements.
template <Scalar T>
void org2r(idx m, idx n, idx k, T* a, idx lda, const T* tau,
           T* work) noexcept {
  if (n <= 0) {
    return;
  }
  // Columns k..n-1 start as unit vectors.
  for (idx j = k; j < n; ++j) {
    T* col = a + static_cast<std::size_t>(j) * lda;
    for (idx i = 0; i < m; ++i) {
      col[i] = T(0);
    }
    col[j] = T(1);
  }
  for (idx i = k - 1; i >= 0; --i) {
    T* col = a + static_cast<std::size_t>(i) * lda;
    if (i < n - 1) {
      col[i] = T(1);
      larf(Side::Left, m - i, n - i - 1, col + i, 1, tau[i],
           a + static_cast<std::size_t>(i + 1) * lda + i, lda, work);
    }
    if (i < m - 1) {
      blas::scal(m - i - 1, -tau[i], col + i + 1, 1);
    }
    col[i] = T(1) - tau[i];
    for (idx j = 0; j < i; ++j) {
      col[j] = T(0);
    }
  }
}

/// Unblocked orgql (xORG2L): Q = H(k) ... H(1) with reflector i stored in
/// column n-k+i, unit entry at row m-k+i. `work` needs n elements.
template <Scalar T>
void org2l(idx m, idx n, idx k, T* a, idx lda, const T* tau,
           T* work) noexcept {
  if (n <= 0) {
    return;
  }
  // Columns 0..n-k-1 start as unit vectors ending at row m-n+j.
  for (idx j = 0; j < n - k; ++j) {
    T* col = a + static_cast<std::size_t>(j) * lda;
    for (idx i = 0; i < m; ++i) {
      col[i] = T(0);
    }
    col[m - n + j] = T(1);
  }
  for (idx i = 0; i < k; ++i) {
    const idx ii = n - k + i;  // column holding H(i)
    const idx mi = m - k + i;  // row of its unit entry
    T* col = a + static_cast<std::size_t>(ii) * lda;
    col[mi] = T(1);
    larf(Side::Left, mi + 1, ii, col, 1, tau[i], a, lda, work);
    blas::scal(mi, -tau[i], col, 1);
    col[mi] = T(1) - tau[i];
    for (idx l = mi + 1; l < m; ++l) {
      col[l] = T(0);
    }
  }
}

}  // namespace detail

/// Form the leading n columns of Q from geqrf output (xORGQR / xUNGQR):
/// A becomes m x n with orthonormal columns; k reflectors, m >= n >= k.
/// Blocked through larft/larfb (ormqr-family tuning); org2r base case.
template <Scalar T>
void orgqr(idx m, idx n, idx k, T* a, idx lda, const T* tau) {
  if (n <= 0) {
    return;
  }
  const idx nb = std::max<idx>(block_size(EnvRoutine::ormqr, k), 1);
  T* const ws = la::detail::work_buffer<T, detail::OrgQrTag>(
      static_cast<std::size_t>(nb) * nb +
      static_cast<std::size_t>(std::max<idx>(n, 1)) * nb);
  T* const t = ws;
  T* const work = ws + static_cast<std::size_t>(nb) * nb;
  if (nb <= 1 || nb >= k) {
    detail::org2r(m, n, k, a, lda, tau, work);
    return;
  }
  const idx nx =
      std::max(nb, ilaenv(EnvSpec::Crossover, EnvRoutine::ormqr, k));
  idx ki = 0;
  idx kk = 0;
  if (k > nx) {
    ki = ((k - nx - 1) / nb) * nb;
    kk = std::min(k, ki + nb);
    // The blocked sweep owns columns 0..kk-1; their rows above the
    // diagonal blocks start from zero.
    for (idx j = kk; j < n; ++j) {
      T* col = a + static_cast<std::size_t>(j) * lda;
      for (idx i = 0; i < kk; ++i) {
        col[i] = T(0);
      }
    }
  }
  if (kk < n) {
    detail::org2r(m - kk, n - kk, k - kk,
                  a + static_cast<std::size_t>(kk) * lda + kk, lda, tau + kk,
                  work);
  }
  if (kk > 0) {
    for (idx i = ki; i >= 0; i -= nb) {
      const idx ib = std::min<idx>(nb, k - i);
      if (i + ib < n) {
        larft(m - i, ib, a + static_cast<std::size_t>(i) * lda + i, lda,
              tau + i, t, nb);
        larfb(Side::Left, Trans::NoTrans, m - i, n - i - ib, ib,
              a + static_cast<std::size_t>(i) * lda + i, lda, t, nb,
              a + static_cast<std::size_t>(i + ib) * lda + i, lda, work,
              std::max<idx>(n - i - ib, 1));
      }
      detail::org2r(m - i, ib, ib, a + static_cast<std::size_t>(i) * lda + i,
                    lda, tau + i, work);
      for (idx j = i; j < i + ib; ++j) {
        T* col = a + static_cast<std::size_t>(j) * lda;
        for (idx l = 0; l < i; ++l) {
          col[l] = T(0);
        }
      }
    }
  }
}

/// Form the last n columns of Q from a QL reflector set (xORGQL / xUNGQL):
/// Q = H(k) ... H(1), reflector i in column n-k+i with unit entry at row
/// m-k+i; m >= n >= k. Blocked through larft_back/larfb_back; org2l base
/// case. This is the engine of the upper-triangle orgtr.
template <Scalar T>
void orgql(idx m, idx n, idx k, T* a, idx lda, const T* tau) {
  if (n <= 0) {
    return;
  }
  const idx nb = std::max<idx>(block_size(EnvRoutine::ormqr, k), 1);
  T* const ws = la::detail::work_buffer<T, detail::OrgQlTag>(
      static_cast<std::size_t>(nb) * nb +
      static_cast<std::size_t>(std::max<idx>(n, 1)) * nb);
  T* const t = ws;
  T* const work = ws + static_cast<std::size_t>(nb) * nb;
  if (nb <= 1 || nb >= k) {
    detail::org2l(m, n, k, a, lda, tau, work);
    return;
  }
  const idx nx =
      std::max(nb, ilaenv(EnvSpec::Crossover, EnvRoutine::ormqr, k));
  idx kk = 0;
  if (k > nx) {
    kk = std::min(k, ((k - nx + nb - 1) / nb) * nb);
    // Rows m-kk..m-1 of the leading n-kk columns belong to later blocks.
    for (idx j = 0; j < n - kk; ++j) {
      T* col = a + static_cast<std::size_t>(j) * lda;
      for (idx i = m - kk; i < m; ++i) {
        col[i] = T(0);
      }
    }
  }
  detail::org2l(m - kk, n - kk, k - kk, a, lda, tau, work);
  for (idx i = k - kk; i < k; i += nb) {
    const idx ib = std::min<idx>(nb, k - i);
    const idx jj = n - k + i;  // first column of this block
    T* vblk = a + static_cast<std::size_t>(jj) * lda;
    if (jj > 0) {
      larft_back(m - k + i + ib, ib, vblk, lda, tau + i, t, nb);
      larfb_back(Trans::NoTrans, m - k + i + ib, jj, ib, vblk, lda, t, nb, a,
                 lda, work, std::max<idx>(jj, 1));
    }
    detail::org2l(m - k + i + ib, ib, ib, vblk, lda, tau + i, work);
    for (idx j = jj; j < jj + ib; ++j) {
      T* col = a + static_cast<std::size_t>(j) * lda;
      for (idx l = m - k + i + ib; l < m; ++l) {
        col[l] = T(0);
      }
    }
  }
}

/// Multiply C by Q or Q^H from geqrf reflectors (xORMQR / xUNMQR).
/// C is m x n; k reflectors live in the first k columns of a.
template <Scalar T>
void ormqr(Side side, Trans trans, idx m, idx n, idx k, const T* a, idx lda,
           const T* tau, T* c, idx ldc) {
  if (m <= 0 || n <= 0 || k <= 0) {
    return;
  }
  const auto len_max = static_cast<std::size_t>(std::max(m, n));
  T* const work = la::detail::work_buffer<T, detail::OrmQrWorkTag>(len_max);
  T* const vcol = la::detail::work_buffer<T, detail::OrmQrVTag>(len_max);
  const bool notran = trans == Trans::NoTrans;
  const bool left = side == Side::Left;
  const bool forward = (left && !notran) || (!left && notran);
  const idx i1 = forward ? 0 : k - 1;
  const idx i2 = forward ? k : -1;
  const idx i3 = forward ? 1 : -1;
  for (idx i = i1; i != i2; i += i3) {
    const idx mi = left ? m - i : m;
    const idx ni = left ? n : n - i;
    T* cblock = left ? c + i : c + static_cast<std::size_t>(i) * ldc;
    const idx len = left ? mi : ni;
    // Copy the reflector with its implicit unit head.
    blas::copy(len - 1, a + static_cast<std::size_t>(i) * lda + i + 1, 1,
               vcol + 1, 1);
    vcol[0] = T(1);
    T taui = tau[i];
    if constexpr (is_complex_v<T>) {
      if (!notran) {
        taui = std::conj(taui);
      }
    }
    larf(side, mi, ni, vcol, 1, taui, cblock, ldc, work);
  }
}

/// Unblocked LQ factorization (xGELQ2): A = L Q, reflectors to the right
/// of the diagonal (rows of A). `work` needs m elements.
template <Scalar T>
void gelq2(idx m, idx n, T* a, idx lda, T* tau, T* work) noexcept {
  const idx k = std::min(m, n);
  for (idx i = 0; i < k; ++i) {
    T* row = a + i;  // row i, stride lda
    lacgv(n - i, row + static_cast<std::size_t>(i) * lda, lda);
    T& aii = a[static_cast<std::size_t>(i) * lda + i];
    larfg(n - i, aii,
          a + static_cast<std::size_t>(std::min<idx>(i + 1, n - 1)) * lda + i,
          lda, tau[i]);
    if (i < m - 1) {
      const T save = aii;
      aii = T(1);
      larf(Side::Right, m - i - 1, n - i,
           a + static_cast<std::size_t>(i) * lda + i, lda, tau[i],
           a + static_cast<std::size_t>(i) * lda + i + 1, lda, work);
      aii = save;
    }
    lacgv(n - i, row + static_cast<std::size_t>(i) * lda, lda);
  }
}

/// LQ factorization (xGELQF). Unblocked — LQ sits on the cold path of the
/// least-squares drivers (underdetermined systems), so the panel/larfb
/// machinery is not replicated here.
template <Scalar T>
void gelqf(idx m, idx n, T* a, idx lda, T* tau) {
  gelq2(m, n, a, lda, tau,
        la::detail::work_buffer<T, detail::GelqfWorkTag>(
            static_cast<std::size_t>(m)));
}

namespace detail {

/// Unblocked orglq (xORGL2); `work` needs m elements.
template <Scalar T>
void orgl2(idx m, idx n, idx k, T* a, idx lda, const T* tau,
           T* work) noexcept {
  if (m <= 0) {
    return;
  }
  for (idx i = k; i < m; ++i) {
    // Rows k..m-1 start as unit vectors.
    for (idx j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(j) * lda + i] = T(0);
    }
    a[static_cast<std::size_t>(i) * lda + i] = T(1);
  }
  for (idx i = k - 1; i >= 0; --i) {
    T* aii = a + static_cast<std::size_t>(i) * lda + i;
    if constexpr (is_complex_v<T>) {
      lacgv(n - i - 1, a + static_cast<std::size_t>(i + 1) * lda + i, lda);
    }
    if (i < m - 1) {
      *aii = T(1);
      larf(Side::Right, m - i - 1, n - i, aii, lda, conj_if(tau[i]),
           a + static_cast<std::size_t>(i) * lda + i + 1, lda, work);
    }
    blas::scal(n - i - 1, -tau[i],
               a + static_cast<std::size_t>(i + 1) * lda + i, lda);
    if constexpr (is_complex_v<T>) {
      lacgv(n - i - 1, a + static_cast<std::size_t>(i + 1) * lda + i, lda);
    }
    *aii = T(1) - conj_if(tau[i]);
    for (idx j = 0; j < i; ++j) {
      a[static_cast<std::size_t>(j) * lda + i] = T(0);
    }
  }
}

}  // namespace detail

/// Form the leading m rows of Q from gelqf output (xORGLQ / xUNGLQ):
/// A becomes m x n with orthonormal rows; k reflectors, n >= m >= k.
/// Blocked through larft_row/larfb_row; orgl2 base case.
template <Scalar T>
void orglq(idx m, idx n, idx k, T* a, idx lda, const T* tau) {
  if (m <= 0) {
    return;
  }
  const idx nb = std::max<idx>(block_size(EnvRoutine::ormqr, k), 1);
  T* const ws = la::detail::work_buffer<T, detail::OrgLqTag>(
      static_cast<std::size_t>(nb) * nb +
      static_cast<std::size_t>(std::max<idx>(m, 1)) * nb);
  T* const t = ws;
  T* const work = ws + static_cast<std::size_t>(nb) * nb;
  if (nb <= 1 || nb >= k) {
    detail::orgl2(m, n, k, a, lda, tau, work);
    return;
  }
  const idx nx =
      std::max(nb, ilaenv(EnvSpec::Crossover, EnvRoutine::ormqr, k));
  idx ki = 0;
  idx kk = 0;
  if (k > nx) {
    ki = ((k - nx - 1) / nb) * nb;
    kk = std::min(k, ki + nb);
    // The blocked sweep owns rows 0..kk-1; zero their tail below.
    for (idx j = 0; j < kk; ++j) {
      T* col = a + static_cast<std::size_t>(j) * lda;
      for (idx i = kk; i < m; ++i) {
        col[i] = T(0);
      }
    }
  }
  if (kk < m) {
    detail::orgl2(m - kk, n - kk, k - kk,
                  a + static_cast<std::size_t>(kk) * lda + kk, lda, tau + kk,
                  work);
  }
  if (kk > 0) {
    for (idx i = ki; i >= 0; i -= nb) {
      const idx ib = std::min<idx>(nb, k - i);
      T* vblk = a + static_cast<std::size_t>(i) * lda + i;
      if (i + ib < m) {
        larft_row(n - i, ib, vblk, lda, tau + i, t, nb);
        larfb_row(conj_trans_for<T>(), m - i - ib, n - i, ib, vblk, lda, t,
                  nb, a + static_cast<std::size_t>(i) * lda + i + ib, lda,
                  work, std::max<idx>(m - i - ib, 1));
      }
      detail::orgl2(ib, n - i, ib, vblk, lda, tau + i, work);
      for (idx j = 0; j < i; ++j) {
        T* col = a + static_cast<std::size_t>(j) * lda;
        for (idx l = i; l < i + ib; ++l) {
          col[l] = T(0);
        }
      }
    }
  }
}

/// Multiply C by Q or Q^H from gelqf reflectors (xORMLQ / xUNMLQ).
template <Scalar T>
void ormlq(Side side, Trans trans, idx m, idx n, idx k, const T* a, idx lda,
           const T* tau, T* c, idx ldc) {
  if (m <= 0 || n <= 0 || k <= 0) {
    return;
  }
  const auto len_max = static_cast<std::size_t>(std::max(m, n));
  T* const work = la::detail::work_buffer<T, detail::OrmLqWorkTag>(len_max);
  T* const vrow = la::detail::work_buffer<T, detail::OrmLqVTag>(len_max);
  const bool notran = trans == Trans::NoTrans;
  const bool left = side == Side::Left;
  // LQ reflectors compose in the opposite order to QR ones.
  const bool forward = (left && notran) || (!left && !notran);
  const idx i1 = forward ? 0 : k - 1;
  const idx i2 = forward ? k : -1;
  const idx i3 = forward ? 1 : -1;
  for (idx i = i1; i != i2; i += i3) {
    const idx mi = left ? m - i : m;
    const idx ni = left ? n : n - i;
    T* cblock = left ? c + i : c + static_cast<std::size_t>(i) * ldc;
    const idx len = left ? mi : ni;
    // Row i of A holds the (conjugated) reflector tail.
    vrow[0] = T(1);
    blas::copy(len - 1, a + static_cast<std::size_t>(i + 1) * lda + i, lda,
               vrow + 1, 1);
    lacgv(len - 1, vrow + 1, 1);
    T taui = tau[i];
    if constexpr (is_complex_v<T>) {
      if (notran) {
        taui = std::conj(taui);
      }
    }
    larf(side, mi, ni, vrow, 1, taui, cblock, ldc, work);
  }
}

/// QR with column pivoting (xGEQP3 semantics via the xLAQP2 algorithm).
/// jpvt[j] returns the 0-based original index of the j-th factored column;
/// entries with jpvt_in[j] != 0 are moved to the front first (the LAPACK
/// "free/fixed column" convention is simplified to: all columns free).
template <Scalar T>
void geqp3(idx m, idx n, T* a, idx lda, idx* jpvt, T* tau) {
  using R = real_t<T>;
  const idx k = std::min(m, n);
  std::vector<T> work(static_cast<std::size_t>(std::max<idx>(n, 1)));
  std::vector<R> vn1(static_cast<std::size_t>(n));
  std::vector<R> vn2(static_cast<std::size_t>(n));
  const R tol3z = std::sqrt(eps<T>());
  for (idx j = 0; j < n; ++j) {
    jpvt[j] = j;
    vn1[j] = blas::nrm2(m, a + static_cast<std::size_t>(j) * lda, 1);
    vn2[j] = vn1[j];
  }
  for (idx i = 0; i < k; ++i) {
    // Bring the column with the largest remaining norm to position i.
    idx pvt = i;
    for (idx j = i + 1; j < n; ++j) {
      if (vn1[j] > vn1[pvt]) {
        pvt = j;
      }
    }
    if (pvt != i) {
      blas::swap(m, a + static_cast<std::size_t>(pvt) * lda, 1,
                 a + static_cast<std::size_t>(i) * lda, 1);
      std::swap(jpvt[pvt], jpvt[i]);
      std::swap(vn1[pvt], vn1[i]);
      std::swap(vn2[pvt], vn2[i]);
    }
    T* col = a + static_cast<std::size_t>(i) * lda;
    larfg(m - i, col[i], col + std::min<idx>(i + 1, m - 1), 1, tau[i]);
    if (i < n - 1) {
      const T aii = col[i];
      col[i] = T(1);
      larf(Side::Left, m - i, n - i - 1, col + i, 1, conj_if(tau[i]),
           a + static_cast<std::size_t>(i + 1) * lda + i, lda, work.data());
      col[i] = aii;
    }
    // Downdate the partial column norms (LAPACK's safeguarded formula).
    for (idx j = i + 1; j < n; ++j) {
      if (vn1[j] == R(0)) {
        continue;
      }
      const R ratio =
          R(std::abs(a[static_cast<std::size_t>(j) * lda + i])) / vn1[j];
      R temp = std::max(R(0), (R(1) + ratio) * (R(1) - ratio));
      const R r2 = vn1[j] / vn2[j];
      const R temp2 = temp * r2 * r2;
      if (temp2 <= tol3z) {
        if (i < m - 1) {
          vn1[j] = blas::nrm2(m - i - 1,
                              a + static_cast<std::size_t>(j) * lda + i + 1,
                              1);
          vn2[j] = vn1[j];
        } else {
          vn1[j] = R(0);
          vn2[j] = R(0);
        }
      } else {
        vn1[j] *= std::sqrt(temp);
      }
    }
  }
}

}  // namespace la::lapack

// Tiled task-DAG driver definitions — included last to break the
// kernel/driver cycle (see lapack/tiled_fwd.hpp for the dispatch gate).
#include "lapack90/lapack/tiled.hpp"  // IWYU pragma: keep
