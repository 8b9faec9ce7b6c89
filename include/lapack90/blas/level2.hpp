// lapack90/blas/level2.hpp
//
// Templated Level-2 BLAS: matrix-vector kernels over column-major storage
// with explicit leading dimensions. Each template serves the four LAPACK
// element types; the Hermitian variants (hemv/her/...) are the same entry
// points with conjugation selected by a flag, mirroring how the generic
// interface in the paper erases the S/D/C/Z distinction.
#pragma once

#include <algorithm>
#include <cassert>

#include "lapack90/blas/level1.hpp"
#include "lapack90/core/types.hpp"

namespace la::blas {

/// y := alpha * op(A) * x + beta * y  (xGEMV); A is m x n.
template <Scalar T>
void gemv(Trans trans, idx m, idx n, T alpha, const T* a, idx lda, const T* x,
          idx incx, T beta, T* y, idx incy) noexcept {
  const idx leny = trans == Trans::NoTrans ? m : n;
  const idx lenx = trans == Trans::NoTrans ? n : m;
  if (leny <= 0) {
    return;
  }
  T* yb = detail::stride_base(y, leny, incy);
  if (beta != T(1)) {
    for (idx i = 0; i < leny; ++i) {
      yb[off(i, incy)] = beta == T(0) ? T(0) : beta * yb[off(i, incy)];
    }
  }
  if (lenx <= 0 || alpha == T(0)) {
    return;
  }
  const T* xb = detail::stride_base(x, lenx, incx);
  if (trans == Trans::NoTrans) {
    if (incy == 1) {
      // y += alpha * A * x, four columns at a time: each y element is
      // loaded/stored once per four A columns instead of once per column.
      // This nt gemv carries the V/W correction updates of the
      // latrd/labrd/lahr2 panel kernels.
      idx j = 0;
      for (; j + 4 <= n; j += 4) {
        const T t0 = alpha * xb[off(j, incx)];
        const T t1 = alpha * xb[off(j + 1, incx)];
        const T t2 = alpha * xb[off(j + 2, incx)];
        const T t3 = alpha * xb[off(j + 3, incx)];
        const T* c0 = a + static_cast<std::size_t>(j) * lda;
        const T* c1 = c0 + lda;
        const T* c2 = c1 + lda;
        const T* c3 = c2 + lda;
        if (t0 != T(0) && t1 != T(0) && t2 != T(0) && t3 != T(0)) {
          if constexpr (!is_complex_v<T>) {
            detail::axpy4_contig(m, t0, c0, t1, c1, t2, c2, t3, c3, yb);
          } else {
            for (idx i = 0; i < m; ++i) {
              yb[i] += t0 * c0[i] + t1 * c1[i] + t2 * c2[i] + t3 * c3[i];
            }
          }
        } else {
          // Keep the reference-BLAS skip of exact-zero coefficients.
          const T ts[4] = {t0, t1, t2, t3};
          const T* cs[4] = {c0, c1, c2, c3};
          for (int q = 0; q < 4; ++q) {
            if (ts[q] == T(0)) {
              continue;
            }
            if constexpr (!is_complex_v<T>) {
              detail::axpy_contig(m, ts[q], cs[q], yb);
            } else {
              for (idx i = 0; i < m; ++i) {
                yb[i] += ts[q] * cs[q][i];
              }
            }
          }
        }
      }
      for (; j < n; ++j) {
        const T t = alpha * xb[off(j, incx)];
        if (t == T(0)) {
          continue;
        }
        const T* col = a + static_cast<std::size_t>(j) * lda;
        if constexpr (!is_complex_v<T>) {
          detail::axpy_contig(m, t, col, yb);
        } else {
          for (idx i = 0; i < m; ++i) {
            yb[i] += t * col[i];
          }
        }
      }
    } else {
      // Strided y: accumulate column-by-column (unit-stride in A).
      for (idx j = 0; j < n; ++j) {
        const T t = alpha * xb[off(j, incx)];
        if (t == T(0)) {
          continue;
        }
        const T* col = a + static_cast<std::size_t>(j) * lda;
        for (idx i = 0; i < m; ++i) {
          yb[off(i, incy)] += t * col[i];
        }
      }
    }
  } else {
    const bool conj = trans == Trans::ConjTrans;
    if (incx == 1) {
      // Unit-stride fast path: four independent partial sums break the
      // serial FMA dependency chain of the naive dot (the column reduce
      // is the flop carrier of the latrd/labrd/lahr2 panel kernels).
      for (idx j = 0; j < n; ++j) {
        const T* col = a + static_cast<std::size_t>(j) * lda;
        if constexpr (!is_complex_v<T>) {
          // conj is a no-op on reals: one vectorized reduce serves both.
          yb[off(j, incy)] += alpha * detail::dot_contig(m, col, xb);
          continue;
        }
        T s0(0), s1(0), s2(0), s3(0);
        idx i = 0;
        if (conj) {
          for (; i + 4 <= m; i += 4) {
            s0 += conj_if(col[i]) * xb[i];
            s1 += conj_if(col[i + 1]) * xb[i + 1];
            s2 += conj_if(col[i + 2]) * xb[i + 2];
            s3 += conj_if(col[i + 3]) * xb[i + 3];
          }
          for (; i < m; ++i) {
            s0 += conj_if(col[i]) * xb[i];
          }
        } else {
          for (; i + 4 <= m; i += 4) {
            s0 += col[i] * xb[i];
            s1 += col[i + 1] * xb[i + 1];
            s2 += col[i + 2] * xb[i + 2];
            s3 += col[i + 3] * xb[i + 3];
          }
          for (; i < m; ++i) {
            s0 += col[i] * xb[i];
          }
        }
        yb[off(j, incy)] += alpha * ((s0 + s1) + (s2 + s3));
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        const T* col = a + static_cast<std::size_t>(j) * lda;
        T s(0);
        if (conj) {
          for (idx i = 0; i < m; ++i) {
            s += conj_if(col[i]) * xb[off(i, incx)];
          }
        } else {
          for (idx i = 0; i < m; ++i) {
            s += col[i] * xb[off(i, incx)];
          }
        }
        yb[off(j, incy)] += alpha * s;
      }
    }
  }
}

/// A := alpha * x * y^T + A  (xGER / xGERU); A is m x n.
template <Scalar T>
void geru(idx m, idx n, T alpha, const T* x, idx incx, const T* y, idx incy,
          T* a, idx lda) noexcept {
  if (m <= 0 || n <= 0 || alpha == T(0)) {
    return;
  }
  const T* xb = detail::stride_base(x, m, incx);
  const T* yb = detail::stride_base(y, n, incy);
  for (idx j = 0; j < n; ++j) {
    const T t = alpha * yb[off(j, incy)];
    if (t == T(0)) {
      continue;
    }
    T* col = a + static_cast<std::size_t>(j) * lda;
    if constexpr (!is_complex_v<T>) {
      // Each column update is a contiguous axpy; the SIMD sweep matters in
      // the getf2/potf2 panel hot loop, where the scalar strided form was
      // the single largest non-Level-3 cost.
      if (incx == 1) {
        detail::axpy_contig(m, t, xb, col);
        continue;
      }
    }
    for (idx i = 0; i < m; ++i) {
      col[i] += xb[off(i, incx)] * t;
    }
  }
}

/// A := alpha * x * y^H + A  (xGERC).
template <Scalar T>
void gerc(idx m, idx n, T alpha, const T* x, idx incx, const T* y, idx incy,
          T* a, idx lda) noexcept {
  if (m <= 0 || n <= 0 || alpha == T(0)) {
    return;
  }
  const T* xb = detail::stride_base(x, m, incx);
  const T* yb = detail::stride_base(y, n, incy);
  for (idx j = 0; j < n; ++j) {
    const T t = alpha * conj_if(yb[off(j, incy)]);
    if (t == T(0)) {
      continue;
    }
    T* col = a + static_cast<std::size_t>(j) * lda;
    if constexpr (!is_complex_v<T>) {
      if (incx == 1) {
        detail::axpy_contig(m, t, xb, col);
        continue;
      }
    }
    for (idx i = 0; i < m; ++i) {
      col[i] += xb[off(i, incx)] * t;
    }
  }
}

/// ger: real alias matching the S/D name (same as geru).
template <RealScalar T>
void ger(idx m, idx n, T alpha, const T* x, idx incx, const T* y, idx incy,
         T* a, idx lda) noexcept {
  geru(m, n, alpha, x, incx, y, incy, a, lda);
}

namespace detail {

/// Shared body of symv (conj=false) and hemv (conj=true):
/// y := alpha * A * x + beta * y with A symmetric/Hermitian, one triangle
/// stored.
template <Scalar T, bool Conj>
void symv_impl(Uplo uplo, idx n, T alpha, const T* a, idx lda, const T* x,
               idx incx, T beta, T* y, idx incy) noexcept {
  if (n <= 0) {
    return;
  }
  T* yb = stride_base(y, n, incy);
  const T* xb = stride_base(x, n, incx);
  if (beta != T(1)) {
    for (idx i = 0; i < n; ++i) {
      yb[off(i, incy)] = beta == T(0) ? T(0) : beta * yb[off(i, incy)];
    }
  }
  if (alpha == T(0)) {
    return;
  }
  auto cj = [](const T& v) { return Conj ? conj_if(v) : v; };
  // Unit-stride fast path: the fused update/reduce sweep carries half the
  // sytrd flops; four partial sums break the dot's FMA dependency chain.
  auto fused_sweep = [&](const T* col, const T t1, T* yu, const T* xu,
                         idx len) -> T {
    if constexpr (!is_complex_v<T>) {
      // cj is a no-op on reals: the la::simd fused kernel serves both.
      return fused_axpy_dot_contig(len, t1, col, yu, xu);
    }
    T t2a(0), t2b(0), t2c(0), t2d(0);
    idx i = 0;
    for (; i + 4 <= len; i += 4) {
      yu[i] += t1 * col[i];
      t2a += cj(col[i]) * xu[i];
      yu[i + 1] += t1 * col[i + 1];
      t2b += cj(col[i + 1]) * xu[i + 1];
      yu[i + 2] += t1 * col[i + 2];
      t2c += cj(col[i + 2]) * xu[i + 2];
      yu[i + 3] += t1 * col[i + 3];
      t2d += cj(col[i + 3]) * xu[i + 3];
    }
    for (; i < len; ++i) {
      yu[i] += t1 * col[i];
      t2a += cj(col[i]) * xu[i];
    }
    return (t2a + t2b) + (t2c + t2d);
  };
  const bool unit = incx == 1 && incy == 1;
  if (uplo == Uplo::Upper) {
    for (idx j = 0; j < n; ++j) {
      const T* col = a + static_cast<std::size_t>(j) * lda;
      const T t1 = alpha * xb[off(j, incx)];
      T t2(0);
      if (unit) {
        t2 = fused_sweep(col, t1, yb, xb, j);
      } else {
        for (idx i = 0; i < j; ++i) {
          yb[off(i, incy)] += t1 * col[i];
          t2 += cj(col[i]) * xb[off(i, incx)];
        }
      }
      const T diag = Conj ? T(real_part(col[j])) : col[j];
      yb[off(j, incy)] += t1 * diag + alpha * t2;
    }
  } else {
    for (idx j = 0; j < n; ++j) {
      const T* col = a + static_cast<std::size_t>(j) * lda;
      const T t1 = alpha * xb[off(j, incx)];
      T t2(0);
      const T diag = Conj ? T(real_part(col[j])) : col[j];
      yb[off(j, incy)] += t1 * diag;
      if (unit) {
        t2 = fused_sweep(col + j + 1, t1, yb + j + 1, xb + j + 1, n - j - 1);
      } else {
        for (idx i = j + 1; i < n; ++i) {
          yb[off(i, incy)] += t1 * col[i];
          t2 += cj(col[i]) * xb[off(i, incx)];
        }
      }
      yb[off(j, incy)] += alpha * t2;
    }
  }
}

}  // namespace detail

/// Symmetric matrix-vector product (xSYMV), real or complex-symmetric.
template <Scalar T>
void symv(Uplo uplo, idx n, T alpha, const T* a, idx lda, const T* x, idx incx,
          T beta, T* y, idx incy) noexcept {
  detail::symv_impl<T, false>(uplo, n, alpha, a, lda, x, incx, beta, y, incy);
}

/// Hermitian matrix-vector product (xHEMV).
template <Scalar T>
void hemv(Uplo uplo, idx n, T alpha, const T* a, idx lda, const T* x, idx incx,
          T beta, T* y, idx incy) noexcept {
  detail::symv_impl<T, is_complex_v<T>>(uplo, n, alpha, a, lda, x, incx, beta,
                                        y, incy);
}

namespace detail {

/// Rank-1 update A := alpha*x*x^T + A, or with Herm alpha*x*x^H + A with
/// the diagonal updated through its real part.
template <Scalar T, bool Herm>
void syr_impl(Uplo uplo, idx n, T alpha, const T* x, idx incx, T* a,
              idx lda) noexcept {
  if (n <= 0 || alpha == T(0)) {
    return;
  }
  auto cj = [](const T& v) { return Herm ? conj_if(v) : v; };
  const T* xb = stride_base(x, n, incx);
  for (idx j = 0; j < n; ++j) {
    const T t = alpha * cj(xb[off(j, incx)]);
    T* col = a + static_cast<std::size_t>(j) * lda;
    // Off-diagonal part of the stored column: [0, j) or (j, n).
    const idx lo = uplo == Uplo::Upper ? 0 : j + 1;
    const idx hi = uplo == Uplo::Upper ? j : n;
    for (idx i = lo; i < hi; ++i) {
      col[i] += xb[off(i, incx)] * t;
    }
    const T d = xb[off(j, incx)] * t;
    if constexpr (Herm) {
      col[j] = make_scalar<T>(real_part(col[j]) + real_part(d));
    } else {
      col[j] += d;
    }
  }
}

/// Rank-2 update A := alpha*x*y^T + alpha*y*x^T + A, or with Herm
/// alpha*x*y^H + conj(alpha)*y*x^H + A with a real-part diagonal update.
template <Scalar T, bool Herm>
void syr2_impl(Uplo uplo, idx n, T alpha, const T* x, idx incx, const T* y,
               idx incy, T* a, idx lda) noexcept {
  if (n <= 0 || alpha == T(0)) {
    return;
  }
  auto cj = [](const T& v) { return Herm ? conj_if(v) : v; };
  const T* xb = stride_base(x, n, incx);
  const T* yb = stride_base(y, n, incy);
  for (idx j = 0; j < n; ++j) {
    const T t1 = alpha * cj(yb[off(j, incy)]);
    const T t2 = cj(alpha * xb[off(j, incx)]);
    T* col = a + static_cast<std::size_t>(j) * lda;
    const idx lo = uplo == Uplo::Upper ? 0 : j + 1;
    const idx hi = uplo == Uplo::Upper ? j : n;
    for (idx i = lo; i < hi; ++i) {
      col[i] += xb[off(i, incx)] * t1 + yb[off(i, incy)] * t2;
    }
    const T d = xb[off(j, incx)] * t1 + yb[off(j, incy)] * t2;
    if constexpr (Herm) {
      col[j] = make_scalar<T>(real_part(col[j]) + real_part(d));
    } else {
      col[j] += d;
    }
  }
}

}  // namespace detail

/// Symmetric rank-1 update A := alpha * x * x^T + A  (xSYR).
template <Scalar T>
void syr(Uplo uplo, idx n, T alpha, const T* x, idx incx, T* a,
         idx lda) noexcept {
  detail::syr_impl<T, false>(uplo, n, alpha, x, incx, a, lda);
}

/// Hermitian rank-1 update A := alpha * x * x^H + A  (xHER); alpha real.
template <Scalar T>
void her(Uplo uplo, idx n, real_t<T> alpha, const T* x, idx incx, T* a,
         idx lda) noexcept {
  detail::syr_impl<T, is_complex_v<T>>(uplo, n, T(alpha), x, incx, a, lda);
}

/// Symmetric rank-2 update A := alpha*x*y^T + alpha*y*x^T + A  (xSYR2).
template <Scalar T>
void syr2(Uplo uplo, idx n, T alpha, const T* x, idx incx, const T* y,
          idx incy, T* a, idx lda) noexcept {
  detail::syr2_impl<T, false>(uplo, n, alpha, x, incx, y, incy, a, lda);
}

/// Hermitian rank-2 update A := alpha*x*y^H + conj(alpha)*y*x^H + A (xHER2).
template <Scalar T>
void her2(Uplo uplo, idx n, T alpha, const T* x, idx incx, const T* y,
          idx incy, T* a, idx lda) noexcept {
  detail::syr2_impl<T, is_complex_v<T>>(uplo, n, alpha, x, incx, y, incy, a,
                                        lda);
}

/// Triangular matrix-vector product x := op(A) * x  (xTRMV).
template <Scalar T>
void trmv(Uplo uplo, Trans trans, Diag diag, idx n, const T* a, idx lda, T* x,
          idx incx) noexcept {
  if (n <= 0) {
    return;
  }
  T* xb = detail::stride_base(x, n, incx);
  const bool unit = diag == Diag::Unit;
  const bool conj = trans == Trans::ConjTrans;
  if (trans == Trans::NoTrans) {
    if (uplo == Uplo::Upper) {
      for (idx j = 0; j < n; ++j) {
        const T t = xb[off(j, incx)];
        if (t == T(0)) {
          continue;
        }
        const T* col = a + static_cast<std::size_t>(j) * lda;
        for (idx i = 0; i < j; ++i) {
          xb[off(i, incx)] += t * col[i];
        }
        if (!unit) {
          xb[off(j, incx)] = t * col[j];
        }
      }
    } else {
      for (idx j = n - 1; j >= 0; --j) {
        const T t = xb[off(j, incx)];
        if (t == T(0)) {
          continue;
        }
        const T* col = a + static_cast<std::size_t>(j) * lda;
        for (idx i = n - 1; i > j; --i) {
          xb[off(i, incx)] += t * col[i];
        }
        if (!unit) {
          xb[off(j, incx)] = t * col[j];
        }
      }
    }
  } else {
    auto cj = [conj](const T& v) { return conj ? conj_if(v) : v; };
    if (uplo == Uplo::Upper) {
      for (idx j = n - 1; j >= 0; --j) {
        const T* col = a + static_cast<std::size_t>(j) * lda;
        T t = unit ? xb[off(j, incx)] : cj(col[j]) * xb[off(j, incx)];
        for (idx i = 0; i < j; ++i) {
          t += cj(col[i]) * xb[off(i, incx)];
        }
        xb[off(j, incx)] = t;
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        const T* col = a + static_cast<std::size_t>(j) * lda;
        T t = unit ? xb[off(j, incx)] : cj(col[j]) * xb[off(j, incx)];
        for (idx i = j + 1; i < n; ++i) {
          t += cj(col[i]) * xb[off(i, incx)];
        }
        xb[off(j, incx)] = t;
      }
    }
  }
}

/// Triangular solve op(A) * x = b, overwriting x  (xTRSV). Noinline: the
/// single-RHS solves (a one-column left trsm, so getrs/potrs/trtrs at
/// nrhs = 1) require bit-identical solves from every call site (the mixed
/// drivers' fallback contract), so all callers must share one codegen of
/// the complex loops the vectorizer would otherwise lower per-context.
template <Scalar T>
LAPACK90_NOINLINE void trsv(Uplo uplo, Trans trans, Diag diag, idx n,
                            const T* a, idx lda, T* x, idx incx) noexcept {
  if (n <= 0) {
    return;
  }
  T* xb = detail::stride_base(x, n, incx);
  const bool unit = diag == Diag::Unit;
  const bool conj = trans == Trans::ConjTrans;
  auto cj = [conj](const T& v) { return conj ? conj_if(v) : v; };
  if (trans == Trans::NoTrans) {
    if (uplo == Uplo::Upper) {
      for (idx j = n - 1; j >= 0; --j) {
        const T* col = a + static_cast<std::size_t>(j) * lda;
        if (!unit) {
          xb[off(j, incx)] /= col[j];
        }
        const T t = xb[off(j, incx)];
        if constexpr (!is_complex_v<T>) {
          if (incx == 1) {
            detail::axpy_contig(j, -t, col, xb);
            continue;
          }
        }
        for (idx i = 0; i < j; ++i) {
          xb[off(i, incx)] -= t * col[i];
        }
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        const T* col = a + static_cast<std::size_t>(j) * lda;
        if (!unit) {
          xb[off(j, incx)] /= col[j];
        }
        const T t = xb[off(j, incx)];
        if constexpr (!is_complex_v<T>) {
          if (incx == 1) {
            detail::axpy_contig(n - j - 1, -t, col + j + 1, xb + j + 1);
            continue;
          }
        }
        for (idx i = j + 1; i < n; ++i) {
          xb[off(i, incx)] -= t * col[i];
        }
      }
    }
  } else {
    if (uplo == Uplo::Upper) {
      for (idx j = 0; j < n; ++j) {
        const T* col = a + static_cast<std::size_t>(j) * lda;
        T t = xb[off(j, incx)];
        if constexpr (!is_complex_v<T>) {
          if (incx == 1 && !conj) {
            t -= detail::dot_contig(j, col, xb);
            if (!unit) {
              t /= col[j];
            }
            xb[j] = t;
            continue;
          }
        }
        for (idx i = 0; i < j; ++i) {
          t -= cj(col[i]) * xb[off(i, incx)];
        }
        if (!unit) {
          t /= cj(col[j]);
        }
        xb[off(j, incx)] = t;
      }
    } else {
      for (idx j = n - 1; j >= 0; --j) {
        const T* col = a + static_cast<std::size_t>(j) * lda;
        T t = xb[off(j, incx)];
        if constexpr (!is_complex_v<T>) {
          if (incx == 1) {
            t -= detail::dot_contig(n - j - 1, col + j + 1, xb + j + 1);
            if (!unit) {
              t /= col[j];
            }
            xb[j] = t;
            continue;
          }
        }
        for (idx i = j + 1; i < n; ++i) {
          t -= cj(col[i]) * xb[off(i, incx)];
        }
        if (!unit) {
          t /= cj(col[j]);
        }
        xb[off(j, incx)] = t;
      }
    }
  }
}

/// Band matrix-vector product y := alpha*op(A)*x + beta*y  (xGBMV);
/// A is m x n with kl sub- and ku superdiagonals in GB storage (the band
/// of column j occupies ab[ku + i - j, j]).
template <Scalar T>
void gbmv(Trans trans, idx m, idx n, idx kl, idx ku, T alpha, const T* ab,
          idx ldab, const T* x, idx incx, T beta, T* y, idx incy) noexcept {
  const idx leny = trans == Trans::NoTrans ? m : n;
  const idx lenx = trans == Trans::NoTrans ? n : m;
  if (leny <= 0) {
    return;
  }
  T* yb = detail::stride_base(y, leny, incy);
  if (beta != T(1)) {
    for (idx i = 0; i < leny; ++i) {
      yb[off(i, incy)] = beta == T(0) ? T(0) : beta * yb[off(i, incy)];
    }
  }
  if (lenx <= 0 || alpha == T(0)) {
    return;
  }
  const T* xb = detail::stride_base(x, lenx, incx);
  const bool conj = trans == Trans::ConjTrans;
  auto cj = [conj](const T& v) { return conj ? conj_if(v) : v; };
  for (idx j = 0; j < n; ++j) {
    const T* col = ab + static_cast<std::size_t>(j) * ldab;
    const idx lo = std::max<idx>(0, j - ku);
    const idx hi = std::min<idx>(m - 1, j + kl);
    if (trans == Trans::NoTrans) {
      const T t = alpha * xb[off(j, incx)];
      if (t == T(0)) {
        continue;
      }
      for (idx i = lo; i <= hi; ++i) {
        yb[off(i, incy)] += t * col[ku + i - j];
      }
    } else {
      T s(0);
      for (idx i = lo; i <= hi; ++i) {
        s += cj(col[ku + i - j]) * xb[off(i, incx)];
      }
      yb[off(j, incy)] += alpha * s;
    }
  }
}

namespace detail {

template <Scalar T, bool Conj>
void sbmv_impl(Uplo uplo, idx n, idx k, T alpha, const T* ab, idx ldab,
               const T* x, idx incx, T beta, T* y, idx incy) noexcept {
  if (n <= 0) {
    return;
  }
  T* yb = stride_base(y, n, incy);
  const T* xb = stride_base(x, n, incx);
  if (beta != T(1)) {
    for (idx i = 0; i < n; ++i) {
      yb[off(i, incy)] = beta == T(0) ? T(0) : beta * yb[off(i, incy)];
    }
  }
  if (alpha == T(0)) {
    return;
  }
  auto cj = [](const T& v) { return Conj ? conj_if(v) : v; };
  for (idx j = 0; j < n; ++j) {
    const T* col = ab + static_cast<std::size_t>(j) * ldab;
    const T t1 = alpha * xb[off(j, incx)];
    T t2(0);
    if (uplo == Uplo::Upper) {
      const idx lo = std::max<idx>(0, j - k);
      for (idx i = lo; i < j; ++i) {
        yb[off(i, incy)] += t1 * col[k + i - j];
        t2 += cj(col[k + i - j]) * xb[off(i, incx)];
      }
      const T diag = Conj ? T(real_part(col[k])) : col[k];
      yb[off(j, incy)] += t1 * diag + alpha * t2;
    } else {
      const idx hi = std::min<idx>(n - 1, j + k);
      const T diag = Conj ? T(real_part(col[0])) : col[0];
      yb[off(j, incy)] += t1 * diag;
      for (idx i = j + 1; i <= hi; ++i) {
        yb[off(i, incy)] += t1 * col[i - j];
        t2 += cj(col[i - j]) * xb[off(i, incx)];
      }
      yb[off(j, incy)] += alpha * t2;
    }
  }
}

}  // namespace detail

/// Symmetric band matrix-vector product (xSBMV).
template <Scalar T>
void sbmv(Uplo uplo, idx n, idx k, T alpha, const T* ab, idx ldab, const T* x,
          idx incx, T beta, T* y, idx incy) noexcept {
  detail::sbmv_impl<T, false>(uplo, n, k, alpha, ab, ldab, x, incx, beta, y,
                              incy);
}

/// Hermitian band matrix-vector product (xHBMV).
template <Scalar T>
void hbmv(Uplo uplo, idx n, idx k, T alpha, const T* ab, idx ldab, const T* x,
          idx incx, T beta, T* y, idx incy) noexcept {
  detail::sbmv_impl<T, is_complex_v<T>>(uplo, n, k, alpha, ab, ldab, x, incx,
                                        beta, y, incy);
}

namespace detail {

template <Scalar T, bool Conj>
void spmv_impl(Uplo uplo, idx n, T alpha, const T* ap, const T* x, idx incx,
               T beta, T* y, idx incy) noexcept {
  if (n <= 0) {
    return;
  }
  T* yb = stride_base(y, n, incy);
  const T* xb = stride_base(x, n, incx);
  if (beta != T(1)) {
    for (idx i = 0; i < n; ++i) {
      yb[off(i, incy)] = beta == T(0) ? T(0) : beta * yb[off(i, incy)];
    }
  }
  if (alpha == T(0)) {
    return;
  }
  auto cj = [](const T& v) { return Conj ? conj_if(v) : v; };
  std::size_t kk = 0;  // running offset of column j's packed start
  if (uplo == Uplo::Upper) {
    for (idx j = 0; j < n; ++j) {
      const T t1 = alpha * xb[off(j, incx)];
      T t2(0);
      for (idx i = 0; i < j; ++i) {
        yb[off(i, incy)] += t1 * ap[kk + i];
        t2 += cj(ap[kk + i]) * xb[off(i, incx)];
      }
      const T diag = Conj ? T(real_part(ap[kk + j])) : ap[kk + j];
      yb[off(j, incy)] += t1 * diag + alpha * t2;
      kk += static_cast<std::size_t>(j) + 1;
    }
  } else {
    for (idx j = 0; j < n; ++j) {
      const T t1 = alpha * xb[off(j, incx)];
      T t2(0);
      const T diag = Conj ? T(real_part(ap[kk])) : ap[kk];
      yb[off(j, incy)] += t1 * diag;
      for (idx i = j + 1; i < n; ++i) {
        yb[off(i, incy)] += t1 * ap[kk + i - j];
        t2 += cj(ap[kk + i - j]) * xb[off(i, incx)];
      }
      yb[off(j, incy)] += alpha * t2;
      kk += static_cast<std::size_t>(n - j);
    }
  }
}

}  // namespace detail

/// Packed symmetric matrix-vector product (xSPMV).
template <Scalar T>
void spmv(Uplo uplo, idx n, T alpha, const T* ap, const T* x, idx incx, T beta,
          T* y, idx incy) noexcept {
  detail::spmv_impl<T, false>(uplo, n, alpha, ap, x, incx, beta, y, incy);
}

/// Packed Hermitian matrix-vector product (xHPMV).
template <Scalar T>
void hpmv(Uplo uplo, idx n, T alpha, const T* ap, const T* x, idx incx, T beta,
          T* y, idx incy) noexcept {
  detail::spmv_impl<T, is_complex_v<T>>(uplo, n, alpha, ap, x, incx, beta, y,
                                        incy);
}

/// Triangular band matrix-vector product x := op(A) x  (xTBMV); A has k
/// off-diagonals in SB-style storage.
template <Scalar T>
void tbmv(Uplo uplo, Trans trans, Diag diag, idx n, idx k, const T* ab,
          idx ldab, T* x, idx incx) noexcept {
  if (n <= 0) {
    return;
  }
  T* xb = detail::stride_base(x, n, incx);
  const bool unit = diag == Diag::Unit;
  const bool conj = trans == Trans::ConjTrans;
  auto cj = [conj](const T& v) { return conj ? conj_if(v) : v; };
  if (trans == Trans::NoTrans) {
    if (uplo == Uplo::Upper) {
      for (idx j = 0; j < n; ++j) {
        const T t = xb[off(j, incx)];
        const T* col = ab + static_cast<std::size_t>(j) * ldab;
        const idx lo = std::max<idx>(0, j - k);
        for (idx i = lo; i < j; ++i) {
          xb[off(i, incx)] += t * col[k + i - j];
        }
        if (!unit) {
          xb[off(j, incx)] = t * col[k];
        }
      }
    } else {
      for (idx j = n - 1; j >= 0; --j) {
        const T t = xb[off(j, incx)];
        const T* col = ab + static_cast<std::size_t>(j) * ldab;
        const idx hi = std::min<idx>(n - 1, j + k);
        for (idx i = hi; i > j; --i) {
          xb[off(i, incx)] += t * col[i - j];
        }
        if (!unit) {
          xb[off(j, incx)] = t * col[0];
        }
      }
    }
  } else {
    if (uplo == Uplo::Upper) {
      for (idx j = n - 1; j >= 0; --j) {
        const T* col = ab + static_cast<std::size_t>(j) * ldab;
        T t = unit ? xb[off(j, incx)] : cj(col[k]) * xb[off(j, incx)];
        const idx lo = std::max<idx>(0, j - k);
        for (idx i = lo; i < j; ++i) {
          t += cj(col[k + i - j]) * xb[off(i, incx)];
        }
        xb[off(j, incx)] = t;
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        const T* col = ab + static_cast<std::size_t>(j) * ldab;
        T t = unit ? xb[off(j, incx)] : cj(col[0]) * xb[off(j, incx)];
        const idx hi = std::min<idx>(n - 1, j + k);
        for (idx i = j + 1; i <= hi; ++i) {
          t += cj(col[i - j]) * xb[off(i, incx)];
        }
        xb[off(j, incx)] = t;
      }
    }
  }
}

/// Triangular band solve op(A) x = b  (xTBSV); A has k off-diagonals in
/// SB-style storage.
template <Scalar T>
void tbsv(Uplo uplo, Trans trans, Diag diag, idx n, idx k, const T* ab,
          idx ldab, T* x, idx incx) noexcept {
  if (n <= 0) {
    return;
  }
  T* xb = detail::stride_base(x, n, incx);
  const bool unit = diag == Diag::Unit;
  const bool conj = trans == Trans::ConjTrans;
  auto cj = [conj](const T& v) { return conj ? conj_if(v) : v; };
  if (trans == Trans::NoTrans) {
    if (uplo == Uplo::Upper) {
      for (idx j = n - 1; j >= 0; --j) {
        const T* col = ab + static_cast<std::size_t>(j) * ldab;
        if (!unit) {
          xb[off(j, incx)] /= col[k];
        }
        const T t = xb[off(j, incx)];
        const idx lo = std::max<idx>(0, j - k);
        for (idx i = lo; i < j; ++i) {
          xb[off(i, incx)] -= t * col[k + i - j];
        }
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        const T* col = ab + static_cast<std::size_t>(j) * ldab;
        if (!unit) {
          xb[off(j, incx)] /= col[0];
        }
        const T t = xb[off(j, incx)];
        const idx hi = std::min<idx>(n - 1, j + k);
        for (idx i = j + 1; i <= hi; ++i) {
          xb[off(i, incx)] -= t * col[i - j];
        }
      }
    }
  } else {
    if (uplo == Uplo::Upper) {
      for (idx j = 0; j < n; ++j) {
        const T* col = ab + static_cast<std::size_t>(j) * ldab;
        T t = xb[off(j, incx)];
        const idx lo = std::max<idx>(0, j - k);
        for (idx i = lo; i < j; ++i) {
          t -= cj(col[k + i - j]) * xb[off(i, incx)];
        }
        if (!unit) {
          t /= cj(col[k]);
        }
        xb[off(j, incx)] = t;
      }
    } else {
      for (idx j = n - 1; j >= 0; --j) {
        const T* col = ab + static_cast<std::size_t>(j) * ldab;
        T t = xb[off(j, incx)];
        const idx hi = std::min<idx>(n - 1, j + k);
        for (idx i = j + 1; i <= hi; ++i) {
          t -= cj(col[i - j]) * xb[off(i, incx)];
        }
        if (!unit) {
          t /= cj(col[0]);
        }
        xb[off(j, incx)] = t;
      }
    }
  }
}

/// Packed triangular matrix-vector product x := op(A) x  (xTPMV).
template <Scalar T>
void tpmv(Uplo uplo, Trans trans, Diag diag, idx n, const T* ap, T* x,
          idx incx) noexcept {
  if (n <= 0) {
    return;
  }
  T* xb = detail::stride_base(x, n, incx);
  const bool unit = diag == Diag::Unit;
  const bool conj = trans == Trans::ConjTrans;
  auto cj = [conj](const T& v) { return conj ? conj_if(v) : v; };
  auto at = [&](idx i, idx j) -> const T& {
    if (uplo == Uplo::Upper) {
      return ap[static_cast<std::size_t>(i) +
                static_cast<std::size_t>(j) * (static_cast<std::size_t>(j) + 1) /
                    2];
    }
    return ap[static_cast<std::size_t>(i) +
              static_cast<std::size_t>(2 * n - j - 1) *
                  static_cast<std::size_t>(j) / 2];
  };
  if (trans == Trans::NoTrans) {
    if (uplo == Uplo::Upper) {
      for (idx j = 0; j < n; ++j) {
        const T t = xb[off(j, incx)];
        for (idx i = 0; i < j; ++i) {
          xb[off(i, incx)] += t * at(i, j);
        }
        if (!unit) {
          xb[off(j, incx)] = t * at(j, j);
        }
      }
    } else {
      for (idx j = n - 1; j >= 0; --j) {
        const T t = xb[off(j, incx)];
        for (idx i = n - 1; i > j; --i) {
          xb[off(i, incx)] += t * at(i, j);
        }
        if (!unit) {
          xb[off(j, incx)] = t * at(j, j);
        }
      }
    }
  } else {
    if (uplo == Uplo::Upper) {
      for (idx j = n - 1; j >= 0; --j) {
        T t = unit ? xb[off(j, incx)] : cj(at(j, j)) * xb[off(j, incx)];
        for (idx i = 0; i < j; ++i) {
          t += cj(at(i, j)) * xb[off(i, incx)];
        }
        xb[off(j, incx)] = t;
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        T t = unit ? xb[off(j, incx)] : cj(at(j, j)) * xb[off(j, incx)];
        for (idx i = j + 1; i < n; ++i) {
          t += cj(at(i, j)) * xb[off(i, incx)];
        }
        xb[off(j, incx)] = t;
      }
    }
  }
}

/// Packed triangular solve op(A) x = b  (xTPSV).
template <Scalar T>
void tpsv(Uplo uplo, Trans trans, Diag diag, idx n, const T* ap, T* x,
          idx incx) noexcept {
  if (n <= 0) {
    return;
  }
  T* xb = detail::stride_base(x, n, incx);
  const bool unit = diag == Diag::Unit;
  const bool conj = trans == Trans::ConjTrans;
  auto cj = [conj](const T& v) { return conj ? conj_if(v) : v; };
  auto at = [&](idx i, idx j) -> const T& {
    if (uplo == Uplo::Upper) {
      return ap[static_cast<std::size_t>(i) +
                static_cast<std::size_t>(j) * (static_cast<std::size_t>(j) + 1) /
                    2];
    }
    return ap[static_cast<std::size_t>(i) +
              static_cast<std::size_t>(2 * n - j - 1) *
                  static_cast<std::size_t>(j) / 2];
  };
  if (trans == Trans::NoTrans) {
    if (uplo == Uplo::Upper) {
      for (idx j = n - 1; j >= 0; --j) {
        if (!unit) {
          xb[off(j, incx)] /= at(j, j);
        }
        const T t = xb[off(j, incx)];
        for (idx i = 0; i < j; ++i) {
          xb[off(i, incx)] -= t * at(i, j);
        }
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        if (!unit) {
          xb[off(j, incx)] /= at(j, j);
        }
        const T t = xb[off(j, incx)];
        for (idx i = j + 1; i < n; ++i) {
          xb[off(i, incx)] -= t * at(i, j);
        }
      }
    }
  } else {
    if (uplo == Uplo::Upper) {
      for (idx j = 0; j < n; ++j) {
        T t = xb[off(j, incx)];
        for (idx i = 0; i < j; ++i) {
          t -= cj(at(i, j)) * xb[off(i, incx)];
        }
        if (!unit) {
          t /= cj(at(j, j));
        }
        xb[off(j, incx)] = t;
      }
    } else {
      for (idx j = n - 1; j >= 0; --j) {
        T t = xb[off(j, incx)];
        for (idx i = j + 1; i < n; ++i) {
          t -= cj(at(i, j)) * xb[off(i, incx)];
        }
        if (!unit) {
          t /= cj(at(j, j));
        }
        xb[off(j, incx)] = t;
      }
    }
  }
}

}  // namespace la::blas
