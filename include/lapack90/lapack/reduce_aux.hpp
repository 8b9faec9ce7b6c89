// lapack90/lapack/reduce_aux.hpp
//
// Panel kernels for the blocked two-sided reductions — the xLATRD /
// xLABRD / xLAHR2 analogs. Each reduces the first (or last) nb rows and
// columns of a matrix and returns the update matrices (W, or X and Y, or
// T and Y) that let the driver apply the remaining transformation to the
// trailing submatrix with Level-3 BLAS: syr2k/her2k for the tridiagonal
// reduction, two gemms for the bidiagonal one, and a larfb-style block
// reflector for the Hessenberg one. The drivers live in symeig.hpp,
// svd.hpp and nonsymeig.hpp; the split is documented in DESIGN.md.
#pragma once

#include <algorithm>

#include "lapack90/blas/level1.hpp"
#include "lapack90/blas/level2.hpp"
#include "lapack90/blas/level3.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/lapack/qr.hpp"

namespace la::lapack::detail {

// la::detail::work_buffer tags for the blocked reduction drivers. One tag
// per routine family so nested calls (gesvd -> gebrd -> orgbr -> orgqr)
// never alias each other's buffers.
struct WsSytrdTag {};
struct WsGebrdTag {};
struct WsGehrdTag {};

/// Reduce the first nb (Lower) or last nb (Upper) rows and columns of a
/// symmetric/Hermitian n x n matrix to tridiagonal form (xLATRD) and
/// return the n x nb update matrix W such that the trailing block is
/// updated by A := A - V W^H - W V^H (a single syr2k/her2k).
/// e/tau receive the off-diagonal and reflector scalars of the processed
/// columns (global indexing relative to `a`); ldw >= n.
template <Scalar T>
void latrd(Uplo uplo, idx n, idx nb, T* a, idx lda, real_t<T>* e, T* tau,
           T* w, idx ldw) noexcept {
  using R = real_t<T>;
  if (n <= 0) {
    return;
  }
  const Trans ct = conj_trans_for<T>();
  const T half = T(R(1) / R(2));
  auto at = [&](idx i, idx j) -> T& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };

  if (uplo == Uplo::Upper) {
    // Process columns n-1 down to n-nb; W column iw pairs with column i.
    for (idx i = n - 1; i >= n - nb; --i) {
      const idx iw = i - n + nb;
      const idx nr = n - 1 - i;  // columns to the right, already reduced
      if (nr > 0) {
        // A(0:i, i) -= A(0:i, i+1:) W(i, iw+1:)^H + W(0:i, iw+1:) A(i, i+1:)^H.
        if constexpr (is_complex_v<T>) {
          at(i, i) = T(real_part(at(i, i)));
        }
        lacgv(nr, w + static_cast<std::size_t>(iw + 1) * ldw + i, ldw);
        blas::gemv(Trans::NoTrans, i + 1, nr, T(-1),
                   a + static_cast<std::size_t>(i + 1) * lda, lda,
                   w + static_cast<std::size_t>(iw + 1) * ldw + i, ldw, T(1),
                   a + static_cast<std::size_t>(i) * lda, 1);
        lacgv(nr, w + static_cast<std::size_t>(iw + 1) * ldw + i, ldw);
        lacgv(nr, a + static_cast<std::size_t>(i + 1) * lda + i, lda);
        blas::gemv(Trans::NoTrans, i + 1, nr, T(-1),
                   w + static_cast<std::size_t>(iw + 1) * ldw, ldw,
                   a + static_cast<std::size_t>(i + 1) * lda + i, lda, T(1),
                   a + static_cast<std::size_t>(i) * lda, 1);
        lacgv(nr, a + static_cast<std::size_t>(i + 1) * lda + i, lda);
        if constexpr (is_complex_v<T>) {
          at(i, i) = T(real_part(at(i, i)));
        }
      }
      if (i > 0) {
        // Reflector annihilating A(0:i-2, i); unit entry at row i-1.
        T* col = a + static_cast<std::size_t>(i) * lda;
        T* wi = w + static_cast<std::size_t>(iw) * ldw;
        larfg(i, col[i - 1], col, 1, tau[i - 1]);
        e[i - 1] = real_part(col[i - 1]);
        col[i - 1] = T(1);
        // w_i = tau (A v - V (W^H v) - W (V^H v) - 1/2 tau (w^H v) v).
        blas::hemv(Uplo::Upper, i, T(1), a, lda, col, 1, T(0), wi, 1);
        if (nr > 0) {
          T* scratch = wi + i + 1;
          blas::gemv(ct, i, nr, T(1),
                     w + static_cast<std::size_t>(iw + 1) * ldw, ldw, col, 1,
                     T(0), scratch, 1);
          blas::gemv(Trans::NoTrans, i, nr, T(-1),
                     a + static_cast<std::size_t>(i + 1) * lda, lda, scratch,
                     1, T(1), wi, 1);
          blas::gemv(ct, i, nr, T(1),
                     a + static_cast<std::size_t>(i + 1) * lda, lda, col, 1,
                     T(0), scratch, 1);
          blas::gemv(Trans::NoTrans, i, nr, T(-1),
                     w + static_cast<std::size_t>(iw + 1) * ldw, ldw, scratch,
                     1, T(1), wi, 1);
        }
        blas::scal(i, tau[i - 1], wi, 1);
        const T alpha = -half * tau[i - 1] * blas::dotc(i, wi, 1, col, 1);
        blas::axpy(i, alpha, col, 1, wi, 1);
      }
    }
  } else {
    // Process columns 0 .. nb-1; W column i pairs with column i.
    for (idx i = 0; i < nb; ++i) {
      const idx rows = n - i;
      if (i > 0) {
        // A(i:, i) -= A(i:, 0:i-1) W(i, 0:i-1)^H + W(i:, 0:i-1) A(i, 0:i-1)^H.
        if constexpr (is_complex_v<T>) {
          at(i, i) = T(real_part(at(i, i)));
        }
        lacgv(i, w + i, ldw);
        blas::gemv(Trans::NoTrans, rows, i, T(-1), a + i, lda, w + i, ldw,
                   T(1), a + static_cast<std::size_t>(i) * lda + i, 1);
        lacgv(i, w + i, ldw);
        lacgv(i, a + i, lda);
        blas::gemv(Trans::NoTrans, rows, i, T(-1), w + i, ldw, a + i, lda,
                   T(1), a + static_cast<std::size_t>(i) * lda + i, 1);
        lacgv(i, a + i, lda);
        if constexpr (is_complex_v<T>) {
          at(i, i) = T(real_part(at(i, i)));
        }
      }
      if (i < n - 1) {
        // Reflector annihilating A(i+2:, i); unit entry at row i+1.
        T* col = a + static_cast<std::size_t>(i) * lda;
        T* wi = w + static_cast<std::size_t>(i) * ldw;
        larfg(n - i - 1, col[i + 1], col + std::min<idx>(i + 2, n - 1), 1,
              tau[i]);
        e[i] = real_part(col[i + 1]);
        col[i + 1] = T(1);
        blas::hemv(Uplo::Lower, n - i - 1, T(1),
                   a + static_cast<std::size_t>(i + 1) * lda + i + 1, lda,
                   col + i + 1, 1, T(0), wi + i + 1, 1);
        if (i > 0) {
          blas::gemv(ct, n - i - 1, i, T(1), w + i + 1, ldw, col + i + 1, 1,
                     T(0), wi, 1);
          blas::gemv(Trans::NoTrans, n - i - 1, i, T(-1), a + i + 1, lda, wi,
                     1, T(1), wi + i + 1, 1);
          blas::gemv(ct, n - i - 1, i, T(1), a + i + 1, lda, col + i + 1, 1,
                     T(0), wi, 1);
          blas::gemv(Trans::NoTrans, n - i - 1, i, T(-1), w + i + 1, ldw, wi,
                     1, T(1), wi + i + 1, 1);
        }
        blas::scal(n - i - 1, tau[i], wi + i + 1, 1);
        const T alpha =
            -half * tau[i] * blas::dotc(n - i - 1, wi + i + 1, 1, col + i + 1, 1);
        blas::axpy(n - i - 1, alpha, col + i + 1, 1, wi + i + 1, 1);
      }
    }
  }
}

/// Reduce the first nb rows and columns of an m x n matrix to bidiagonal
/// form (xLABRD) and return the update matrices X (m x nb) and Y (n x nb)
/// such that the trailing block is updated by
/// A := A - V Y^H - X U^H (two gemms). Same storage conventions as gebd2:
/// for complex types the row-reflector vectors are left conjugated.
template <Scalar T>
void labrd(idx m, idx n, idx nb, T* a, idx lda, real_t<T>* d, real_t<T>* e,
           T* tauq, T* taup, T* x, idx ldx, T* y, idx ldy) noexcept {
  if (m <= 0 || n <= 0) {
    return;
  }
  const Trans ct = conj_trans_for<T>();
  if (m >= n) {
    // Reduce to upper bidiagonal form.
    for (idx i = 0; i < nb; ++i) {
      T* col = a + static_cast<std::size_t>(i) * lda;
      // A(i:, i) -= A(i:, 0:i-1) Y(i, 0:i-1)^H + X(i:, 0:i-1) A(0:i-1, i).
      lacgv(i, y + i, ldy);
      blas::gemv(Trans::NoTrans, m - i, i, T(-1), a + i, lda, y + i, ldy,
                 T(1), col + i, 1);
      lacgv(i, y + i, ldy);
      blas::gemv(Trans::NoTrans, m - i, i, T(-1), x + i, ldx, col, 1, T(1),
                 col + i, 1);
      // Column reflector annihilating A(i+1:, i).
      larfg(m - i, col[i], col + std::min<idx>(i + 1, m - 1), 1, tauq[i]);
      d[i] = real_part(col[i]);
      if (i < n - 1) {
        col[i] = T(1);
        // Y(i+1:, i) = tau ( A2^H v - Y (V^H v) - A1^H (X^H v) ).
        T* yi = y + static_cast<std::size_t>(i) * ldy;
        blas::gemv(ct, m - i, n - i - 1, T(1),
                   a + static_cast<std::size_t>(i + 1) * lda + i, lda,
                   col + i, 1, T(0), yi + i + 1, 1);
        blas::gemv(ct, m - i, i, T(1), a + i, lda, col + i, 1, T(0), yi, 1);
        blas::gemv(Trans::NoTrans, n - i - 1, i, T(-1), y + i + 1, ldy, yi, 1,
                   T(1), yi + i + 1, 1);
        blas::gemv(ct, m - i, i, T(1), x + i, ldx, col + i, 1, T(0), yi, 1);
        blas::gemv(ct, i, n - i - 1, T(-1),
                   a + static_cast<std::size_t>(i + 1) * lda, lda, yi, 1,
                   T(1), yi + i + 1, 1);
        blas::scal(n - i - 1, tauq[i], yi + i + 1, 1);
        // A(i, i+1:) -= Y(i+1:, 0:i) A(i, 0:i)^H + conj(A(0:i-1, i+1:))^T X(i, 0:i-1).
        T* row = a + static_cast<std::size_t>(i + 1) * lda + i;
        lacgv(n - i - 1, row, lda);
        lacgv(i + 1, a + i, lda);
        blas::gemv(Trans::NoTrans, n - i - 1, i + 1, T(-1), y + i + 1, ldy,
                   a + i, lda, T(1), row, lda);
        lacgv(i + 1, a + i, lda);
        lacgv(i, x + i, ldx);
        blas::gemv(ct, i, n - i - 1, T(-1),
                   a + static_cast<std::size_t>(i + 1) * lda, lda, x + i, ldx,
                   T(1), row, lda);
        lacgv(i, x + i, ldx);
        // Row reflector annihilating A(i, i+2:).
        T& head = a[static_cast<std::size_t>(i + 1) * lda + i];
        larfg(n - i - 1, head,
              a + static_cast<std::size_t>(std::min<idx>(i + 2, n - 1)) * lda +
                  i,
              lda, taup[i]);
        e[i] = real_part(head);
        head = T(1);
        // X(i+1:, i) = taup ( A2 u - A1 (Y^H u) - X (A1^H... ) ).
        T* xi = x + static_cast<std::size_t>(i) * ldx;
        blas::gemv(Trans::NoTrans, m - i - 1, n - i - 1, T(1),
                   a + static_cast<std::size_t>(i + 1) * lda + i + 1, lda,
                   row, lda, T(0), xi + i + 1, 1);
        blas::gemv(ct, n - i - 1, i + 1, T(1), y + i + 1, ldy, row, lda, T(0),
                   xi, 1);
        blas::gemv(Trans::NoTrans, m - i - 1, i + 1, T(-1), a + i + 1, lda,
                   xi, 1, T(1), xi + i + 1, 1);
        blas::gemv(Trans::NoTrans, i, n - i - 1, T(1),
                   a + static_cast<std::size_t>(i + 1) * lda, lda, row, lda,
                   T(0), xi, 1);
        blas::gemv(Trans::NoTrans, m - i - 1, i, T(-1), x + i + 1, ldx, xi, 1,
                   T(1), xi + i + 1, 1);
        blas::scal(m - i - 1, taup[i], xi + i + 1, 1);
        lacgv(n - i - 1, row, lda);
      } else {
        taup[i] = T(0);
      }
    }
  } else {
    // Reduce to lower bidiagonal form.
    for (idx i = 0; i < nb; ++i) {
      T* rowi = a + static_cast<std::size_t>(i) * lda + i;  // A(i, i:), stride lda
      // A(i, i:) -= Y(i:, 0:i-1) A(i, 0:i-1)^H + conj(A(0:i-1, i:))^T X(i, 0:i-1).
      lacgv(n - i, rowi, lda);
      lacgv(i, a + i, lda);
      blas::gemv(Trans::NoTrans, n - i, i, T(-1), y + i, ldy, a + i, lda,
                 T(1), rowi, lda);
      lacgv(i, a + i, lda);
      lacgv(i, x + i, ldx);
      blas::gemv(ct, i, n - i, T(-1), a + static_cast<std::size_t>(i) * lda,
                 lda, x + i, ldx, T(1), rowi, lda);
      lacgv(i, x + i, ldx);
      // Row reflector annihilating A(i, i+1:).
      larfg(n - i, *rowi,
            a + static_cast<std::size_t>(std::min<idx>(i + 1, n - 1)) * lda +
                i,
            lda, taup[i]);
      d[i] = real_part(*rowi);
      if (i < m - 1) {
        *rowi = T(1);
        // X(i+1:, i) = taup ( A2 u - A1 (Y^H u) - X2 (A1 u) ).
        T* xi = x + static_cast<std::size_t>(i) * ldx;
        blas::gemv(Trans::NoTrans, m - i - 1, n - i, T(1),
                   a + static_cast<std::size_t>(i) * lda + i + 1, lda, rowi,
                   lda, T(0), xi + i + 1, 1);
        blas::gemv(ct, n - i, i, T(1), y + i, ldy, rowi, lda, T(0), xi, 1);
        blas::gemv(Trans::NoTrans, m - i - 1, i, T(-1), a + i + 1, lda, xi, 1,
                   T(1), xi + i + 1, 1);
        blas::gemv(Trans::NoTrans, i, n - i, T(1),
                   a + static_cast<std::size_t>(i) * lda, lda, rowi, lda,
                   T(0), xi, 1);
        blas::gemv(Trans::NoTrans, m - i - 1, i, T(-1), x + i + 1, ldx, xi, 1,
                   T(1), xi + i + 1, 1);
        blas::scal(m - i - 1, taup[i], xi + i + 1, 1);
        lacgv(n - i, rowi, lda);
        // A(i+1:, i) -= A(i+1:, 0:i-1) Y(i, 0:i-1)^H + X(i+1:, 0:i) A(0:i, i).
        T* col = a + static_cast<std::size_t>(i) * lda;
        lacgv(i, y + i, ldy);
        blas::gemv(Trans::NoTrans, m - i - 1, i, T(-1), a + i + 1, lda, y + i,
                   ldy, T(1), col + i + 1, 1);
        lacgv(i, y + i, ldy);
        blas::gemv(Trans::NoTrans, m - i - 1, i + 1, T(-1), x + i + 1, ldx,
                   col, 1, T(1), col + i + 1, 1);
        // Column reflector annihilating A(i+2:, i).
        larfg(m - i - 1, col[i + 1], col + std::min<idx>(i + 2, m - 1), 1,
              tauq[i]);
        e[i] = real_part(col[i + 1]);
        col[i + 1] = T(1);
        // Y(i+1:, i) = tauq ( A2^H v - Y (V^H v) - A1^H (X^H v) ).
        T* yi = y + static_cast<std::size_t>(i) * ldy;
        blas::gemv(ct, m - i - 1, n - i - 1, T(1),
                   a + static_cast<std::size_t>(i + 1) * lda + i + 1, lda,
                   col + i + 1, 1, T(0), yi + i + 1, 1);
        blas::gemv(ct, m - i - 1, i, T(1), a + i + 1, lda, col + i + 1, 1,
                   T(0), yi, 1);
        blas::gemv(Trans::NoTrans, n - i - 1, i, T(-1), y + i + 1, ldy, yi, 1,
                   T(1), yi + i + 1, 1);
        blas::gemv(ct, m - i - 1, i + 1, T(1), x + i + 1, ldx, col + i + 1, 1,
                   T(0), yi, 1);
        blas::gemv(ct, i + 1, n - i - 1, T(-1),
                   a + static_cast<std::size_t>(i + 1) * lda, lda, yi, 1,
                   T(1), yi + i + 1, 1);
        blas::scal(n - i - 1, tauq[i], yi + i + 1, 1);
      } else {
        lacgv(n - i, rowi, lda);
        tauq[i] = T(0);
      }
    }
  }
}

/// Hessenberg panel reduction (xLAHR2): reduce columns k .. k+nb-1
/// (0-based, counting from `a`'s first column) of the n-row matrix A so
/// the reflectors annihilate everything below the first subdiagonal, and
/// return the block-reflector factor T (nb x nb, upper triangular) plus
/// Y = A V T (n x nb) for the driver's trailing update. `a` points at the
/// first panel column; rows are global (n = ihi+1 in gehrd terms, k = the
/// number of rows above the active block). tau gets nb scalars.
template <Scalar T>
void lahr2(idx n, idx k, idx nb, T* a, idx lda, T* tau, T* t, idx ldt, T* y,
           idx ldy) noexcept {
  if (n <= 1) {
    return;
  }
  const Trans ct = conj_trans_for<T>();
  T ei{};
  for (idx i = 0; i < nb; ++i) {
    T* col = a + static_cast<std::size_t>(i) * lda;
    T* tscr = t + static_cast<std::size_t>(nb - 1) * ldt;  // scratch column
    if (i > 0) {
      // A(k:, i) -= Y(k:, 0:i-1) conj(A(k+i-1, 0:i-1)): undo the part of
      // the previous block reflectors acting from the right.
      lacgv(i, a + (k + i - 1), lda);
      blas::gemv(Trans::NoTrans, n - k, i, T(-1), y + k, ldy,
                 a + (k + i - 1), lda, T(1), col + k, 1);
      lacgv(i, a + (k + i - 1), lda);
      // Apply (I - V T^H V^H) to the column from the left.
      blas::copy(i, col + k, 1, tscr, 1);
      blas::trmv(Uplo::Lower, ct, Diag::Unit, i, a + k, lda, tscr, 1);
      blas::gemv(ct, n - k - i, i, T(1), a + (k + i), lda, col + (k + i), 1,
                 T(1), tscr, 1);
      blas::trmv(Uplo::Upper, ct, Diag::NonUnit, i, t, ldt, tscr, 1);
      blas::gemv(Trans::NoTrans, n - k - i, i, T(-1), a + (k + i), lda, tscr,
                 1, T(1), col + (k + i), 1);
      blas::trmv(Uplo::Lower, Trans::NoTrans, Diag::Unit, i, a + k, lda, tscr,
                 1);
      blas::axpy(i, T(-1), tscr, 1, col + k, 1);
      a[static_cast<std::size_t>(i - 1) * lda + (k + i - 1)] = ei;
    }
    // Reflector annihilating A(k+i+1:, i); unit entry at row k+i.
    larfg(n - k - i, col[k + i],
          a + static_cast<std::size_t>(i) * lda + std::min<idx>(k + i + 1, n - 1),
          1, tau[i]);
    ei = col[k + i];
    col[k + i] = T(1);
    // Y(k:, i) = tau ( A(k:, i+1:) v - Y (V^H v) ); V^H v lands in T(:, i).
    T* yi = y + static_cast<std::size_t>(i) * ldy;
    T* ti = t + static_cast<std::size_t>(i) * ldt;
    blas::gemv(Trans::NoTrans, n - k, n - k - i, T(1),
               a + static_cast<std::size_t>(i + 1) * lda + k, lda, col + k + i,
               1, T(0), yi + k, 1);
    blas::gemv(ct, n - k - i, i, T(1), a + (k + i), lda, col + k + i, 1, T(0),
               ti, 1);
    blas::gemv(Trans::NoTrans, n - k, i, T(-1), y + k, ldy, ti, 1, T(1),
               yi + k, 1);
    blas::scal(n - k, tau[i], yi + k, 1);
    // T(0:i, i) = -tau T(0:i-1, 0:i-1) (V^H v); T(i,i) = tau.
    blas::scal(i, -tau[i], ti, 1);
    blas::trmv(Uplo::Upper, Trans::NoTrans, Diag::NonUnit, i, t, ldt, ti, 1);
    ti[i] = tau[i];
  }
  a[static_cast<std::size_t>(nb - 1) * lda + (k + nb - 1)] = ei;
  // Y(0:k-1, :) = A(0:k-1, 1:) V T (the rows above the active block).
  lacpy(Part::All, k, nb, a + lda, lda, y, ldy);
  blas::trmm(Side::Right, Uplo::Lower, Trans::NoTrans, Diag::Unit, k, nb,
             T(1), a + k, lda, y, ldy);
  if (n > k + nb) {
    blas::gemm(Trans::NoTrans, Trans::NoTrans, k, nb, n - k - nb, T(1),
               a + static_cast<std::size_t>(nb + 1) * lda, lda, a + (k + nb),
               lda, T(1), y, ldy);
  }
  blas::trmm(Side::Right, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, k, nb,
             T(1), t, ldt, y, ldy);
}

}  // namespace la::lapack::detail
