// lapack90/blas/level1.hpp
//
// Templated Level-1 BLAS: vector-vector kernels. One template body per
// operation replaces the S/D/C/Z quadruple of the reference BLAS; strides
// (incx/incy) follow the F77 convention but must be positive or negative
// with the usual "start at the other end when negative" semantics.
#pragma once

#include <cmath>
#include <utility>

#include "lapack90/core/precision.hpp"
#include "lapack90/core/simd.hpp"
#include "lapack90/core/types.hpp"

namespace la::blas {

namespace detail {

/// F77 negative-stride convention: element i of an n-vector with stride
/// inc lives at offset i*inc when inc > 0, (i - n + 1)*inc when inc < 0.
template <class T>
[[nodiscard]] constexpr T* stride_base(T* x, idx n, idx inc) noexcept {
  return inc >= 0 ? x : x - static_cast<std::ptrdiff_t>(n - 1) * inc;
}

/// Scalar a*x + y rounded exactly like one lane of simd_native<T>::fma:
/// a single rounding where the SIMD layer has a hardware FMA, mul-then-add
/// otherwise. The vector kernels' scalar tails use it, so a tail element
/// gets the bits a full-vector trip would have given it on every ISA.
template <RealScalar T>
[[nodiscard]] inline T simd_lane_fma(T a, T x, T y) noexcept {
  if constexpr (simd_has_fma_v) {
    return std::fma(a, x, y);
  } else {
    return a * x + y;
  }
}

/// Unit-stride real axpy on la::simd: y += alpha*x, two vectors per trip.
/// Shared by axpy and the gemv/symv column sweeps. The remainder is a
/// scalar loop, not a masked partial fma, and vectors shorter than one
/// register never touch the vector unit: the short-vector case (panel
/// solves, narrow tiles, n=8 batch entries) lives here, and on AVX-512 a
/// masked store does not forward to the next column's load.
template <RealScalar T>
void axpy_contig(idx n, T alpha, const T* x, T* y) noexcept {
  using V = simd_native<T>;
  constexpr idx W = simd_width_v<T>;
  idx i = 0;
  if (W > 1 && n >= W) {
    const V va = V::broadcast(alpha);
    for (; i + 2 * W <= n; i += 2 * W) {
      V::fma(va, V::load(x + i), V::load(y + i)).store(y + i);
      V::fma(va, V::load(x + i + W), V::load(y + i + W)).store(y + i + W);
    }
    if (i + W <= n) {
      V::fma(va, V::load(x + i), V::load(y + i)).store(y + i);
      i += W;
    }
  }
  for (; i < n; ++i) {
    y[i] = simd_lane_fma(alpha, x[i], y[i]);
  }
}

/// Fused four-column axpy: y_q += alpha_q * x for q = 0..3, one pass over
/// x. Each element sees the same single fma as four separate axpy_contig
/// calls (bit-identical), but the shared column is loaded once per trip
/// and the four independent chains fill the FMA ports — this is the inner
/// kernel of the grouped trsm solve, where each chain alone is too short
/// to cover the fma latency. Scalar remainder, as in axpy_contig.
template <RealScalar T>
void axpy4_contig(idx n, const T* alpha, const T* x, T* y0, T* y1, T* y2,
                  T* y3) noexcept {
  using V = simd_native<T>;
  constexpr idx W = simd_width_v<T>;
  idx i = 0;
  if (W > 1 && n >= W) {
    const V a0 = V::broadcast(alpha[0]);
    const V a1 = V::broadcast(alpha[1]);
    const V a2 = V::broadcast(alpha[2]);
    const V a3 = V::broadcast(alpha[3]);
    for (; i + W <= n; i += W) {
      const V vx = V::load(x + i);
      V::fma(a0, vx, V::load(y0 + i)).store(y0 + i);
      V::fma(a1, vx, V::load(y1 + i)).store(y1 + i);
      V::fma(a2, vx, V::load(y2 + i)).store(y2 + i);
      V::fma(a3, vx, V::load(y3 + i)).store(y3 + i);
    }
  }
  for (; i < n; ++i) {
    const T xv = x[i];
    y0[i] = simd_lane_fma(alpha[0], xv, y0[i]);
    y1[i] = simd_lane_fma(alpha[1], xv, y1[i]);
    y2[i] = simd_lane_fma(alpha[2], xv, y2[i]);
    y3[i] = simd_lane_fma(alpha[3], xv, y3[i]);
  }
}

/// Unit-stride real dot on la::simd: four vector accumulators break the
/// FMA dependency chain; lanes reduce once at the end. Shared by dotu/dotc
/// and the transposed gemv column reduce. Below one vector the accumulators
/// would only reduce to +0, so short dots skip them (and the AVX-512
/// spill-reduce) and go straight to the scalar loop: same bits.
template <RealScalar T>
[[nodiscard]] T dot_contig(idx n, const T* x, const T* y) noexcept {
  using V = simd_native<T>;
  constexpr idx W = simd_width_v<T>;
  T s(0);
  idx i = 0;
  if (W > 1 && n >= W) {
    V s0 = V::zero(), s1 = V::zero(), s2 = V::zero(), s3 = V::zero();
    for (; i + 4 * W <= n; i += 4 * W) {
      s0 = V::fma(V::load(x + i), V::load(y + i), s0);
      s1 = V::fma(V::load(x + i + W), V::load(y + i + W), s1);
      s2 = V::fma(V::load(x + i + 2 * W), V::load(y + i + 2 * W), s2);
      s3 = V::fma(V::load(x + i + 3 * W), V::load(y + i + 3 * W), s3);
    }
    for (; i + W <= n; i += W) {
      s0 = V::fma(V::load(x + i), V::load(y + i), s0);
    }
    s = ((s0 + s1) + (s2 + s3)).reduce();
  }
  for (; i < n; ++i) {
    s += x[i] * y[i];
  }
  return s;
}

/// Four-column fused axpy: y += t0*c0 + t1*c1 + t2*c2 + t3*c3 in one pass
/// over y — the gemv NoTrans register-blocked column sweep. Vectors shorter
/// than one register stay scalar, as in axpy_contig.
template <RealScalar T>
void axpy4_contig(idx n, T t0, const T* c0, T t1, const T* c1, T t2,
                  const T* c2, T t3, const T* c3, T* y) noexcept {
  using V = simd_native<T>;
  constexpr idx W = simd_width_v<T>;
  idx i = 0;
  if (W > 1 && n >= W) {
    const V v0 = V::broadcast(t0), v1 = V::broadcast(t1);
    const V v2 = V::broadcast(t2), v3 = V::broadcast(t3);
    for (; i + W <= n; i += W) {
      V acc = V::load(y + i);
      acc = V::fma(v0, V::load(c0 + i), acc);
      acc = V::fma(v1, V::load(c1 + i), acc);
      acc = V::fma(v2, V::load(c2 + i), acc);
      acc = V::fma(v3, V::load(c3 + i), acc);
      acc.store(y + i);
    }
  }
  for (; i < n; ++i) {
    y[i] += t0 * c0[i] + t1 * c1[i] + t2 * c2[i] + t3 * c3[i];
  }
}

/// Fused unit-stride sweep y += t1*col; return dot(col, x) — one pass over
/// col for the symv/hemv update+reduce. Real types only (complex keeps the
/// scalar fused loop in level2). Short sweeps skip the accumulators, as in
/// dot_contig.
template <RealScalar T>
[[nodiscard]] T fused_axpy_dot_contig(idx len, T t1, const T* col, T* y,
                                      const T* x) noexcept {
  using V = simd_native<T>;
  constexpr idx W = simd_width_v<T>;
  T s(0);
  idx i = 0;
  if (W > 1 && len >= W) {
    const V vt1 = V::broadcast(t1);
    V s0 = V::zero(), s1 = V::zero();
    for (; i + 2 * W <= len; i += 2 * W) {
      const V c0 = V::load(col + i);
      const V c1 = V::load(col + i + W);
      V::fma(vt1, c0, V::load(y + i)).store(y + i);
      s0 = V::fma(c0, V::load(x + i), s0);
      V::fma(vt1, c1, V::load(y + i + W)).store(y + i + W);
      s1 = V::fma(c1, V::load(x + i + W), s1);
    }
    if (i + W <= len) {
      const V c0 = V::load(col + i);
      V::fma(vt1, c0, V::load(y + i)).store(y + i);
      s0 = V::fma(c0, V::load(x + i), s0);
      i += W;
    }
    s = (s0 + s1).reduce();
  }
  for (; i < len; ++i) {
    y[i] += t1 * col[i];
    s += col[i] * x[i];
  }
  return s;
}

}  // namespace detail

/// x := alpha * x  (xSCAL).
template <Scalar T, Scalar A>
void scal(idx n, A alpha, T* x, idx incx) noexcept {
  if (n <= 0 || incx <= 0) {
    return;
  }
  for (idx i = 0; i < n; ++i) {
    x[off(i, incx)] = T(alpha * x[off(i, incx)]);
  }
}

/// y := alpha * x + y  (xAXPY).
template <Scalar T>
void axpy(idx n, T alpha, const T* x, idx incx, T* y, idx incy) noexcept {
  if (n <= 0 || alpha == T(0)) {
    return;
  }
  const T* xb = detail::stride_base(x, n, incx);
  T* yb = detail::stride_base(y, n, incy);
  if (incx == 1 && incy == 1) {
    if constexpr (!is_complex_v<T>) {
      detail::axpy_contig(n, alpha, x, y);
    } else {
      for (idx i = 0; i < n; ++i) {
        y[i] += alpha * x[i];
      }
    }
    return;
  }
  for (idx i = 0; i < n; ++i) {
    yb[off(i, incy)] += alpha * xb[off(i, incx)];
  }
}

/// y := x  (xCOPY).
template <Scalar T>
void copy(idx n, const T* x, idx incx, T* y, idx incy) noexcept {
  if (n <= 0) {
    return;
  }
  const T* xb = detail::stride_base(x, n, incx);
  T* yb = detail::stride_base(y, n, incy);
  for (idx i = 0; i < n; ++i) {
    yb[off(i, incy)] = xb[off(i, incx)];
  }
}

/// x <-> y  (xSWAP).
template <Scalar T>
void swap(idx n, T* x, idx incx, T* y, idx incy) noexcept {
  if (n <= 0) {
    return;
  }
  T* xb = detail::stride_base(x, n, incx);
  T* yb = detail::stride_base(y, n, incy);
  for (idx i = 0; i < n; ++i) {
    std::swap(xb[off(i, incx)], yb[off(i, incy)]);
  }
}

/// Unconjugated dot product x^T y  (xDOT / xDOTU).
template <Scalar T>
[[nodiscard]] T dotu(idx n, const T* x, idx incx, const T* y,
                     idx incy) noexcept {
  T s(0);
  if (n <= 0) {
    return s;
  }
  if constexpr (!is_complex_v<T>) {
    if (incx == 1 && incy == 1) {
      return detail::dot_contig(n, x, y);
    }
  }
  const T* xb = detail::stride_base(x, n, incx);
  const T* yb = detail::stride_base(y, n, incy);
  for (idx i = 0; i < n; ++i) {
    s += xb[off(i, incx)] * yb[off(i, incy)];
  }
  return s;
}

/// Conjugated dot product x^H y  (xDOT / xDOTC).
template <Scalar T>
[[nodiscard]] T dotc(idx n, const T* x, idx incx, const T* y,
                     idx incy) noexcept {
  T s(0);
  if (n <= 0) {
    return s;
  }
  if constexpr (!is_complex_v<T>) {
    if (incx == 1 && incy == 1) {
      return detail::dot_contig(n, x, y);
    }
  }
  const T* xb = detail::stride_base(x, n, incx);
  const T* yb = detail::stride_base(y, n, incy);
  for (idx i = 0; i < n; ++i) {
    s += conj_if(xb[off(i, incx)]) * yb[off(i, incy)];
  }
  return s;
}

/// Euclidean norm with overflow-safe scaling (xNRM2). A unit-stride real
/// vector first takes the plain SIMD sum of squares. That sum is returned
/// (square-rooted) only when it is finite, so no square overflowed (the
/// partial sums of non-negative terms never exceed the total), and at least
/// n * safmin / eps, so the at most n squares that underflowed, each off by
/// less than safmin, move it by under one eps relative. Every other input
/// (tiny, huge, Inf, NaN, complex, strided) takes the scaled lassq.
template <Scalar T>
[[nodiscard]] real_t<T> nrm2(idx n, const T* x, idx incx) noexcept {
  using R = real_t<T>;
  if (n <= 0 || incx <= 0) {
    return R(0);
  }
  if constexpr (!is_complex_v<T>) {
    if (incx == 1) {
      const R s = detail::dot_contig(n, x, x);
      if (std::isfinite(s) && s >= R(n) * (safmin<T>() / eps<T>())) {
        return std::sqrt(s);
      }
    }
  }
  R scale(0);
  R sumsq(1);
  lassq(n, x, incx, scale, sumsq);
  return scale * std::sqrt(sumsq);
}

/// Sum of |Re| + |Im| magnitudes (xASUM / xCASUM semantics).
template <Scalar T>
[[nodiscard]] real_t<T> asum(idx n, const T* x, idx incx) noexcept {
  using R = real_t<T>;
  R s(0);
  if (n <= 0 || incx <= 0) {
    return s;
  }
  for (idx i = 0; i < n; ++i) {
    s += abs1(x[off(i, incx)]);
  }
  return s;
}

/// Index (0-based) of the element with largest |Re| + |Im| (IxAMAX).
/// Returns -1 for n <= 0.
template <Scalar T>
[[nodiscard]] idx iamax(idx n, const T* x, idx incx) noexcept {
  if (n <= 0 || incx <= 0) {
    return -1;
  }
  idx best = 0;
  real_t<T> best_val = abs1(x[0]);
  for (idx i = 1; i < n; ++i) {
    const real_t<T> v = abs1(x[off(i, incx)]);
    if (v > best_val) {
      best = i;
      best_val = v;
    }
  }
  return best;
}

/// Construct a Givens rotation (xROTG): given a, b computes c, s with
///   [ c  s ] [a]   [r]
///   [-s  c ] [b] = [0]
/// and overwrites a := r. Real version (the eigensolvers use lartg below
/// for the LAPACK-grade variant).
template <RealScalar R>
void rotg(R& a, R& b, R& c, R& s) noexcept {
  R roe = std::abs(a) > std::abs(b) ? a : b;
  const R scale = std::abs(a) + std::abs(b);
  if (scale == R(0)) {
    c = R(1);
    s = R(0);
    a = R(0);
    b = R(0);
    return;
  }
  const R qa = a / scale;
  const R qb = b / scale;
  R r = scale * std::sqrt(qa * qa + qb * qb);
  r = (roe < R(0) ? -r : r);
  c = a / r;
  s = b / r;
  R z = R(1);
  if (std::abs(a) > std::abs(b)) {
    z = s;
  } else if (c != R(0)) {
    z = R(1) / c;
  }
  a = r;
  b = z;
}

/// Apply a plane rotation to vector pair (x, y)  (xROT):
///   x_i :=  c*x_i + s*y_i,   y_i := -s*x_i + c*y_i.
template <Scalar T>
void rot(idx n, T* x, idx incx, T* y, idx incy, real_t<T> c,
         real_t<T> s) noexcept {
  if (n <= 0) {
    return;
  }
  T* xb = detail::stride_base(x, n, incx);
  T* yb = detail::stride_base(y, n, incy);
  for (idx i = 0; i < n; ++i) {
    const T xi = xb[off(i, incx)];
    const T yi = yb[off(i, incy)];
    xb[off(i, incx)] = c * xi + s * yi;
    yb[off(i, incy)] = c * yi - s * xi;
  }
}

/// LAPACK-grade Givens generation (xLARTG): c, s, r with f := r chosen so
/// that c >= 0 is NOT enforced (we follow the LAPACK convention where r
/// carries the sign of the larger input); safe against over/underflow for
/// the magnitudes met inside the eigensolvers.
template <RealScalar R>
void lartg(R f, R g, R& c, R& s, R& r) noexcept {
  if (g == R(0)) {
    c = R(1);
    s = R(0);
    r = f;
  } else if (f == R(0)) {
    c = R(0);
    s = R(1);
    r = g;
  } else {
    const R d = lapy2(f, g);
    c = std::abs(f) / d;
    r = (f >= R(0) ? d : -d);
    s = g / r;
  }
}

}  // namespace la::blas
