// lapack90/blas/mixed.hpp
//
// Precision-crossing kernels under the mixed-precision subsystem
// (la::mixed): the xLAG2-style converting copies between a working
// precision and its lower_precision_t, and the compensated residual
// kernel that accumulates b - A x in effectively twice the working
// precision (two-sum/TwoProd over la::Compensated).
//
// The demotion copy detects overflow — a double entry above the single
// overflow threshold cannot be represented — and reports it instead of
// producing Inf, so the drivers can fall back to the full-precision
// factorization (the DLAG2S INFO=1 contract).
#pragma once

#include <algorithm>
#include <cmath>

#include "lapack90/core/precision.hpp"
#include "lapack90/core/simd.hpp"
#include "lapack90/core/types.hpp"

namespace la::blas {

/// Demoting copy SA := A (xLAG2: DLAG2S / ZLAG2C). Returns 0 on success,
/// 1 when any entry's magnitude exceeds the lower precision's overflow
/// threshold (the caller must then fall back — SA contents are
/// unspecified). Entries that underflow to zero are harmless: refinement
/// absorbs the demotion rounding like any other single-precision error.
///
/// For real T a non-null `rowsum` additionally accumulates |a(i,j)| into
/// rowsum[i] (caller zero-initializes), columns absorbed in j order — the
/// same sums lange(Norm::Inf) computes. The mixed drivers use this to get
/// the convergence threshold's anrm out of the demotion pass instead of a
/// second sweep over A. On return 1 the sums are partial (and unused,
/// since the caller falls back). Ignored for complex T, whose Inf-norm
/// needs the complex magnitude rather than the |re|, |im| this pass has.
template <Scalar T>
  requires has_lower_precision_v<T>
[[nodiscard]] idx demote(idx m, idx n, const T* a, idx lda,
                         lower_precision_t<T>* sa, idx ldsa,
                         real_t<T>* rowsum = nullptr) noexcept {
  using S = lower_precision_t<T>;
  using RS = real_t<S>;
  const auto rmax = real_t<T>(Machine<S>::huge_val());
  for (idx j = 0; j < n; ++j) {
    const T* ac = a + static_cast<std::size_t>(j) * lda;
    S* sc = sa + static_cast<std::size_t>(j) * ldsa;
    idx i0 = 0;
    if constexpr (std::is_same_v<T, double>) {
      // Packed range-check + convert for the real demotion (the n^2 pass
      // in front of every mixed factorization). The check order does not
      // matter — any out-of-range entry yields the same return 1.
#if defined(LAPACK90_SIMD_AVX512)
      const __m512d vmax = _mm512_set1_pd(rmax);
      for (; i0 + 8 <= m; i0 += 8) {
        const __m512d v = _mm512_loadu_pd(ac + i0);
        const __m512d av = _mm512_abs_pd(v);
        if (_mm512_cmp_pd_mask(av, vmax, _CMP_GT_OQ)) {
          return 1;
        }
        if (rowsum != nullptr) {
          _mm512_storeu_pd(rowsum + i0,
                           _mm512_add_pd(_mm512_loadu_pd(rowsum + i0), av));
        }
        // All-lanes maskz form: the plain _mm512_cvtpd_ps routes an
        // undefined operand through the gcc 12 intrinsic header, which
        // trips -Wmaybe-uninitialized at every inline site.
        _mm256_storeu_ps(sc + i0, _mm512_maskz_cvtpd_ps(0xFF, v));
      }
#elif defined(LAPACK90_SIMD_AVX2)
      const __m256d vmax = _mm256_set1_pd(rmax);
      const __m256d sign = _mm256_set1_pd(-0.0);
      for (; i0 + 4 <= m; i0 += 4) {
        const __m256d v = _mm256_loadu_pd(ac + i0);
        const __m256d av = _mm256_andnot_pd(sign, v);
        if (_mm256_movemask_pd(_mm256_cmp_pd(av, vmax, _CMP_GT_OQ))) {
          return 1;
        }
        if (rowsum != nullptr) {
          _mm256_storeu_pd(rowsum + i0,
                           _mm256_add_pd(_mm256_loadu_pd(rowsum + i0), av));
        }
        _mm_storeu_ps(sc + i0, _mm256_cvtpd_ps(v));
      }
#endif
    }
    for (idx i = i0; i < m; ++i) {
      if constexpr (is_complex_v<T>) {
        const auto re = ac[i].real();
        const auto im = ac[i].imag();
        if (std::abs(re) > rmax || std::abs(im) > rmax) {
          return 1;
        }
        sc[i] = S(static_cast<RS>(re), static_cast<RS>(im));
      } else {
        const auto av = std::abs(ac[i]);
        if (av > rmax) {
          return 1;
        }
        if (rowsum != nullptr) {
          rowsum[i] += av;
        }
        sc[i] = static_cast<S>(ac[i]);
      }
    }
  }
  return 0;
}

/// Promoting copy A := SA (xLAG2 in the widening direction: SLAG2D /
/// CLAG2Z). Always exact, never fails.
template <Scalar T>
  requires has_lower_precision_v<T>
void promote(idx m, idx n, const lower_precision_t<T>* sa, idx ldsa, T* a,
             idx lda) noexcept {
  using R = real_t<T>;
  for (idx j = 0; j < n; ++j) {
    const lower_precision_t<T>* sc = sa + static_cast<std::size_t>(j) * ldsa;
    T* ac = a + static_cast<std::size_t>(j) * lda;
    for (idx i = 0; i < m; ++i) {
      if constexpr (is_complex_v<T>) {
        ac[i] = T(static_cast<R>(sc[i].real()), static_cast<R>(sc[i].imag()));
      } else {
        ac[i] = static_cast<T>(sc[i]);
      }
    }
  }
}

/// Compensated residual R := B - A X (gemv-shaped per right-hand side,
/// column-oriented so A streams at unit stride). Every product and sum is
/// absorbed through la::Compensated, so the residual carries roughly twice
/// the working precision before the single final rounding — the property
/// iterative refinement needs for the componentwise backward error to
/// reach n*eps scale even when x is nearly the true solution.
///
/// `acc` is caller-provided accumulator workspace: n entries for real T,
/// 2n for complex (separate real/imaginary compensated sums — the complex
/// product is decomposed into its four real TwoProds).
template <Scalar T>
void residual(idx n, idx nrhs, const T* a, idx lda, const T* x, idx ldx,
              const T* b, idx ldb, T* r, idx ldr,
              Compensated<real_t<T>>* acc) noexcept {
  using R = real_t<T>;
  for (idx k = 0; k < nrhs; ++k) {
    const T* bk = b + static_cast<std::size_t>(k) * ldb;
    const T* xk = x + static_cast<std::size_t>(k) * ldx;
    T* rk = r + static_cast<std::size_t>(k) * ldr;
    if constexpr (is_complex_v<T>) {
      for (idx i = 0; i < n; ++i) {
        acc[2 * i] = {bk[i].real(), R(0)};
        acc[2 * i + 1] = {bk[i].imag(), R(0)};
      }
      for (idx j = 0; j < n; ++j) {
        const T* col = a + static_cast<std::size_t>(j) * lda;
        const R xr = xk[j].real();
        const R xi = xk[j].imag();
        for (idx i = 0; i < n; ++i) {
          const R ar = col[i].real();
          const R ai = col[i].imag();
          // -(a * x): re -= ar*xr - ai*xi, im -= ar*xi + ai*xr.
          acc[2 * i].add_prod(ar, -xr);
          acc[2 * i].add_prod(ai, xi);
          acc[2 * i + 1].add_prod(ar, -xi);
          acc[2 * i + 1].add_prod(ai, -xr);
        }
      }
      for (idx i = 0; i < n; ++i) {
        rk[i] = T(acc[2 * i].result(), acc[2 * i + 1].result());
      }
    } else if constexpr (simd_width_v<R> > 1 && simd_has_fma_v) {
      // Vectorized two-sum/TwoProd over SoA row tiles. Rows are
      // independent and the column order j is preserved, so every element
      // sees exactly the scalar Compensated sequence — the result is
      // bit-identical to the fallback below for any lane count. Requires a
      // true fused multiply-add: the TwoProd error term is identically
      // zero (compensation silently lost) under mul+add emulation, so
      // non-FMA targets take the scalar std::fma path below instead.
      using V = simd_native<R>;
      constexpr idx W = simd_width_v<R>;
      constexpr idx BK = 16 * W;
      alignas(64) R hi[BK];
      alignas(64) R lo[BK];
      for (idx i0 = 0; i0 < n; i0 += BK) {
        const idx len = std::min<idx>(BK, n - i0);
        for (idx i = 0; i < len; ++i) {
          hi[i] = bk[i0 + i];
          lo[i] = R(0);
        }
        const idx lv = len - len % W;
        for (idx j = 0; j < n; ++j) {
          const R xj = -xk[j];
          const T* col = a + static_cast<std::size_t>(j) * lda + i0;
          const V vx = V::broadcast(xj);
          idx i = 0;
          for (; i < lv; i += W) {
            const V va = V::load(col + i);
            const V vh = V::load(hi + i);
            V vl = V::load(lo + i);
            const V p = va * vx;
            const V t = vh + p;
            const V vv = t - vh;
            vl = vl + ((vh - (t - vv)) + (p - vv));
            vl = vl + V::fma(va, vx, V::zero() - p);
            t.store(hi + i);
            vl.store(lo + i);
          }
          for (; i < len; ++i) {
            const R av = col[i];
            const R p = av * xj;
            const R h = hi[i];
            const R t = h + p;
            const R vv = t - h;
            lo[i] += (h - (t - vv)) + (p - vv);
            hi[i] = t;
            lo[i] += std::fma(av, xj, -p);
          }
        }
        for (idx i = 0; i < len; ++i) {
          rk[i0 + i] = hi[i] + lo[i];
        }
      }
    } else {
      for (idx i = 0; i < n; ++i) {
        acc[i] = {bk[i], R(0)};
      }
      for (idx j = 0; j < n; ++j) {
        const T* col = a + static_cast<std::size_t>(j) * lda;
        const R xj = -xk[j];
        for (idx i = 0; i < n; ++i) {
          acc[i].add_prod(col[i], xj);
        }
      }
      for (idx i = 0; i < n; ++i) {
        rk[i] = acc[i].result();
      }
    }
  }
}

/// Compensated residual R := B - A X for Hermitian (symmetric when real) A
/// of which only the `uplo` triangle is stored — the hemv-shaped analogue
/// of residual() used by the mixed posv driver. Diagonal imaginary parts
/// are ignored, as in xHEMV. Same accumulator workspace contract.
template <Scalar T>
void residual_hermitian(Uplo uplo, idx n, idx nrhs, const T* a, idx lda,
                        const T* x, idx ldx, const T* b, idx ldb, T* r,
                        idx ldr, Compensated<real_t<T>>* acc) noexcept {
  using R = real_t<T>;
  for (idx k = 0; k < nrhs; ++k) {
    const T* bk = b + static_cast<std::size_t>(k) * ldb;
    const T* xk = x + static_cast<std::size_t>(k) * ldx;
    T* rk = r + static_cast<std::size_t>(k) * ldr;
    if constexpr (is_complex_v<T>) {
      for (idx i = 0; i < n; ++i) {
        acc[2 * i] = {bk[i].real(), R(0)};
        acc[2 * i + 1] = {bk[i].imag(), R(0)};
      }
    } else {
      for (idx i = 0; i < n; ++i) {
        acc[i] = {bk[i], R(0)};
      }
    }
    auto sub_prod = [&](idx i, T aij, T xj) {
      if constexpr (is_complex_v<T>) {
        const R ar = aij.real();
        const R ai = aij.imag();
        const R xr = xj.real();
        const R xi = xj.imag();
        acc[2 * i].add_prod(ar, -xr);
        acc[2 * i].add_prod(ai, xi);
        acc[2 * i + 1].add_prod(ar, -xi);
        acc[2 * i + 1].add_prod(ai, -xr);
      } else {
        acc[i].add_prod(aij, -xj);
      }
    };
    for (idx j = 0; j < n; ++j) {
      const T* col = a + static_cast<std::size_t>(j) * lda;
      const T xj = xk[j];
      if (uplo == Uplo::Upper) {
        // Stored a(i,j), i < j, contributes to rows i and (conjugated) j.
        for (idx i = 0; i < j; ++i) {
          sub_prod(i, col[i], xj);
          sub_prod(j, conj_if(col[i]), xk[i]);
        }
      } else {
        for (idx i = j + 1; i < n; ++i) {
          sub_prod(i, col[i], xj);
          sub_prod(j, conj_if(col[i]), xk[i]);
        }
      }
      sub_prod(j, T(real_part(col[j])), xj);
    }
    if constexpr (is_complex_v<T>) {
      for (idx i = 0; i < n; ++i) {
        rk[i] = T(acc[2 * i].result(), acc[2 * i + 1].result());
      }
    } else {
      for (idx i = 0; i < n; ++i) {
        rk[i] = acc[i].result();
      }
    }
  }
}

}  // namespace la::blas
