// lapack90/blas/level3.hpp
//
// Templated Level-3 BLAS. `gemm` is the performance core the paper's §1.1
// leans on ("LAPACK ... use[s] block matrix operations, such as matrix
// multiplication, in the innermost loops"): cache blocking (KC x MC panel
// packing), a register-tiled SIMD micro-kernel built on la::simd, and a
// threaded IC macro loop on top of la::parallel_for. The packed B panel is
// shared by the team, each worker packs its own A block into a reusable
// thread-local workspace and owns a disjoint row band of C, so the result
// is bit-identical for every worker count. Real types run a 2Wx6 register
// tile (two native vectors tall, six accumulator columns); complex types a
// Wx4 tile over interleaved [re im] lanes with the conjugate handled at
// pack time. beta is applied by the micro-kernel on the first k-panel
// (overwrite when beta == 0, so NaN/Inf in uninitialized C never
// propagates) instead of a separate pre-pass over C. Remainder strips are
// packed unpadded and handled with masked vector tails. The cache blocking
// MC/KC/NC routes through ilaenv (EnvSpec::CacheBlock{M,K,N}) so it is
// tunable per process; the register tile is a compile-time per-ISA
// constant. A straightforward triple loop is kept as `gemm_naive` for the
// bench_gemm ablation. Each symmetric/Hermitian pair has one body templated
// on <T, bool Herm>: symm_impl (symm/hemm), rank_k (syrk/herk) and rank_2k
// (syr2k/her2k). These and trmm/trsm keep the reference-BLAS control
// structure for small operands and recast large ones onto blocked gemm
// calls so they inherit the threading and the SIMD kernel. The real
// small-operand trmm/trsm/rank-k column sweeps run on la::simd (axpy_contig
// and friends) rather than scalar loops, so a tile-sized triangle product
// or herk tile does not fall off the vector unit; a one-column left trsm
// is a trsv.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

#include "lapack90/blas/level1.hpp"
#include "lapack90/blas/level2.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/core/parallel.hpp"
#include "lapack90/core/simd.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/core/workspace.hpp"

namespace la::blas {

namespace detail {

template <Scalar T>
[[nodiscard]] inline T opval(const T* a, idx lda, Trans t, idx i,
                             idx j) noexcept {
  switch (t) {
    case Trans::NoTrans:
      return a[static_cast<std::size_t>(j) * lda + i];
    case Trans::Trans:
      return a[static_cast<std::size_t>(i) * lda + j];
    case Trans::ConjTrans:
      return conj_if(a[static_cast<std::size_t>(i) * lda + j]);
  }
  return T(0);
}

/// Scale C by beta (handles beta == 0 as an overwrite so NaNs don't leak).
template <Scalar T>
void scale_c(idx m, idx n, T beta, T* c, idx ldc) noexcept {
  if (beta == T(1)) {
    return;
  }
  for (idx j = 0; j < n; ++j) {
    T* col = c + static_cast<std::size_t>(j) * ldc;
    if (beta == T(0)) {
      std::fill(col, col + m, T(0));
    } else {
      for (idx i = 0; i < m; ++i) {
        col[i] *= beta;
      }
    }
  }
}

// Register-tile and cache-blocking parameters. The register tile MR x NR
// is a compile-time constant fixed by the SIMD ISA the translation unit
// targets: real kernels are two native vectors tall and six accumulator
// columns wide (8x6 for AVX2 double, 16x6 for AVX-512 double, ...);
// complex kernels are one vector of interleaved complex tall per half-tile
// (W complex rows = two real vectors) and four columns wide. The cache
// blocking MC/KC/NC is runtime-tunable through the ilaenv machinery
// (EnvSpec::CacheBlock{M,K,N} on EnvRoutine::gemm, or the
// LAPACK90_GEMM_{MC,KC,NC} environment variables).
template <Scalar T>
struct GemmBlocking {
  using R = real_t<T>;
  /// Native real-lane vector width for this build.
  static constexpr idx W = simd_width_v<R>;
  /// True when the vectorized kernels are usable for T on this target
  /// (complex needs at least one full complex per vector).
  static constexpr bool kVectorized = is_complex_v<T> ? W >= 2 : W > 1;
  static constexpr idx MR =
      is_complex_v<T> ? (kVectorized ? W : 4) : (kVectorized ? 2 * W : 4);
  static constexpr idx NR = is_complex_v<T> ? 4 : (kVectorized ? 6 : 4);

  static idx mc() noexcept {
    const idx v = ilaenv(EnvSpec::CacheBlockM, EnvRoutine::gemm, 0);
    return std::max<idx>(MR, v - v % MR);
  }
  static idx kc() noexcept {
    return std::max<idx>(1, ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0));
  }
  static idx nc() noexcept {
    const idx v = ilaenv(EnvSpec::CacheBlockN, EnvRoutine::gemm, 0);
    return std::max<idx>(NR, v - v % NR);
  }
};

/// Process-wide ablation switch: route every gemm micro-tile through the
/// scalar reference kernel even when the SIMD kernels are compiled in.
/// Used by bench_gemm's scalar-vs-SIMD comparison and the --smoke guard.
inline std::atomic<bool>& scalar_kernel_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

/// Pack the MC x KC block of op(A) into column-panel-major order:
/// consecutive MR-row strips, each strip KC columns deep. The tail strip
/// is packed at its true width ib (no zero padding) — the micro-kernel
/// covers it with masked loads, so the pack loop never writes filler.
template <Scalar T>
void pack_a(idx mc, idx kc, const T* a, idx lda, Trans ta, idx i0, idx k0,
            T* buf) noexcept {
  constexpr idx MR = GemmBlocking<T>::MR;
  for (idx i = 0; i < mc; i += MR) {
    const idx ib = std::min<idx>(MR, mc - i);
    if (ta == Trans::NoTrans) {
      // Strip rows are contiguous in the source column: copy ib-long runs.
      for (idx k = 0; k < kc; ++k) {
        const T* src =
            a + static_cast<std::size_t>(k0 + k) * lda + i0 + i;
        for (idx ii = 0; ii < ib; ++ii) {
          *buf++ = src[ii];
        }
      }
    } else {
      // Strip row ii is source column i0+i+ii: read it contiguously and
      // scatter it down the strip at stride ib.
      for (idx ii = 0; ii < ib; ++ii) {
        const T* src =
            a + static_cast<std::size_t>(i0 + i + ii) * lda + k0;
        T* dst = buf + ii;
        if (ta == Trans::ConjTrans) {
          for (idx k = 0; k < kc; ++k) {
            dst[static_cast<std::size_t>(k) * ib] = conj_if(src[k]);
          }
        } else {
          for (idx k = 0; k < kc; ++k) {
            dst[static_cast<std::size_t>(k) * ib] = src[k];
          }
        }
      }
      buf += static_cast<std::size_t>(kc) * ib;
    }
  }
}

/// Pack the KC x NC block of op(B) into row-panel-major order:
/// consecutive NR-column strips, each strip KC rows deep. Tail strips are
/// packed at their true width (see pack_a).
template <Scalar T>
void pack_b(idx kc, idx nc, const T* b, idx ldb, Trans tb, idx k0, idx j0,
            T* buf) noexcept {
  constexpr idx NR = GemmBlocking<T>::NR;
  for (idx j = 0; j < nc; j += NR) {
    const idx jb = std::min<idx>(NR, nc - j);
    if (tb == Trans::NoTrans) {
      // Strip column jj is source column j0+j+jj: read it contiguously and
      // scatter it down the strip at stride jb.
      for (idx jj = 0; jj < jb; ++jj) {
        const T* src =
            b + static_cast<std::size_t>(j0 + j + jj) * ldb + k0;
        T* dst = buf + jj;
        for (idx k = 0; k < kc; ++k) {
          dst[static_cast<std::size_t>(k) * jb] = src[k];
        }
      }
      buf += static_cast<std::size_t>(kc) * jb;
    } else {
      for (idx k = 0; k < kc; ++k) {
        for (idx jj = 0; jj < jb; ++jj) {
          *buf++ = opval(b, ldb, tb, k0 + k, j0 + j + jj);
        }
      }
    }
  }
}

/// Scalar reference micro-kernel: C(0:mr,0:nr) := alpha*Ap*Bp + beta*C over
/// kc terms; Ap/Bp are packed strips of row stride mr/nr. Carries the
/// scalar-fallback build, the ablation switch, and any tile the vector
/// kernels cannot (it is shape-agnostic). beta == 0 overwrites C.
template <Scalar T>
void micro_kernel_ref(idx kc, T alpha, const T* ap, idx mr, const T* bp,
                      idx nr, T beta, T* c, idx ldc) noexcept {
  constexpr idx MR = GemmBlocking<T>::MR;
  constexpr idx NR = GemmBlocking<T>::NR;
  T acc[MR][NR] = {};
  if (mr == MR && nr == NR) {
    // Full tile: compile-time trip counts so the optimizer can unroll and
    // keep the accumulator block in registers.
    for (idx k = 0; k < kc; ++k) {
      const T* arow = ap + static_cast<std::size_t>(k) * MR;
      const T* brow = bp + static_cast<std::size_t>(k) * NR;
      for (idx i = 0; i < MR; ++i) {
        const T ai = arow[i];
        for (idx j = 0; j < NR; ++j) {
          acc[i][j] += ai * brow[j];
        }
      }
    }
  } else {
    for (idx k = 0; k < kc; ++k) {
      const T* arow = ap + static_cast<std::size_t>(k) * mr;
      const T* brow = bp + static_cast<std::size_t>(k) * nr;
      for (idx i = 0; i < mr; ++i) {
        const T ai = arow[i];
        for (idx j = 0; j < nr; ++j) {
          acc[i][j] += ai * brow[j];
        }
      }
    }
  }
  for (idx j = 0; j < nr; ++j) {
    T* col = c + static_cast<std::size_t>(j) * ldc;
    if (beta == T(0)) {
      for (idx i = 0; i < mr; ++i) {
        col[i] = alpha * acc[i][j];
      }
    } else if (beta == T(1)) {
      for (idx i = 0; i < mr; ++i) {
        col[i] += alpha * acc[i][j];
      }
    } else {
      for (idx i = 0; i < mr; ++i) {
        col[i] = beta * col[i] + alpha * acc[i][j];
      }
    }
  }
}

/// Vectorized full-tile kernel for real T: MR = 2W rows (two native
/// vectors), NR = 6 accumulator columns, all twelve accumulators named so
/// they provably live in registers. Packed strips stream at unit stride;
/// a short software prefetch keeps the next strip rows in flight.
template <RealScalar T>
void micro_kernel_real(idx kc, T alpha, const T* ap, const T* bp, T beta,
                       T* c, idx ldc) noexcept {
  using V = simd_native<T>;
  constexpr idx W = GemmBlocking<T>::W;
  constexpr idx MR = GemmBlocking<T>::MR;
  constexpr idx NR = GemmBlocking<T>::NR;
  static_assert(NR == 6 && MR == 2 * W);
  V c00 = V::zero(), c01 = V::zero(), c02 = V::zero(), c03 = V::zero(),
    c04 = V::zero(), c05 = V::zero();
  V c10 = V::zero(), c11 = V::zero(), c12 = V::zero(), c13 = V::zero(),
    c14 = V::zero(), c15 = V::zero();
  for (idx k = 0; k < kc; ++k) {
    const V a0 = V::load(ap);
    const V a1 = V::load(ap + W);
    simd_prefetch(ap + 8 * MR);
    simd_prefetch(bp + 8 * NR);
    V b = V::broadcast(bp[0]);
    c00 = V::fma(a0, b, c00);
    c10 = V::fma(a1, b, c10);
    b = V::broadcast(bp[1]);
    c01 = V::fma(a0, b, c01);
    c11 = V::fma(a1, b, c11);
    b = V::broadcast(bp[2]);
    c02 = V::fma(a0, b, c02);
    c12 = V::fma(a1, b, c12);
    b = V::broadcast(bp[3]);
    c03 = V::fma(a0, b, c03);
    c13 = V::fma(a1, b, c13);
    b = V::broadcast(bp[4]);
    c04 = V::fma(a0, b, c04);
    c14 = V::fma(a1, b, c14);
    b = V::broadcast(bp[5]);
    c05 = V::fma(a0, b, c05);
    c15 = V::fma(a1, b, c15);
    ap += MR;
    bp += NR;
  }
  const V va = V::broadcast(alpha);
  V* lo[NR] = {&c00, &c01, &c02, &c03, &c04, &c05};
  V* hi[NR] = {&c10, &c11, &c12, &c13, &c14, &c15};
  for (idx j = 0; j < NR; ++j) {
    T* col = c + static_cast<std::size_t>(j) * ldc;
    if (beta == T(0)) {
      (va * *lo[j]).store(col);
      (va * *hi[j]).store(col + W);
    } else if (beta == T(1)) {
      V::fma(va, *lo[j], V::load(col)).store(col);
      V::fma(va, *hi[j], V::load(col + W)).store(col + W);
    } else {
      const V vb = V::broadcast(beta);
      V::fma(va, *lo[j], vb * V::load(col)).store(col);
      V::fma(va, *hi[j], vb * V::load(col + W)).store(col + W);
    }
  }
}

/// Vectorized remainder kernel for real T: any mr <= MR, nr <= NR. The
/// packed strips carry no zero padding, so the m tail is covered with
/// masked loads/stores (the masked-tail scheme); accumulators are spilled
/// arrays, which is fine — at most one strip per block row/column lands
/// here.
template <RealScalar T>
void micro_kernel_real_tail(idx kc, T alpha, const T* ap, idx mr,
                            const T* bp, idx nr, T beta, T* c,
                            idx ldc) noexcept {
  using V = simd_native<T>;
  constexpr idx W = GemmBlocking<T>::W;
  constexpr idx NR = GemmBlocking<T>::NR;
  const idx m0 = std::min<idx>(mr, W);  // lanes in the low vector
  const idx m1 = mr - m0;               // lanes in the high vector
  V acc0[NR];
  V acc1[NR];
  for (idx j = 0; j < NR; ++j) {
    acc0[j] = V::zero();
    acc1[j] = V::zero();
  }
  for (idx k = 0; k < kc; ++k) {
    const V a0 = m0 == W ? V::load(ap) : V::load_partial(ap, m0);
    const V a1 = m1 == W ? V::load(ap + W)
                         : (m1 > 0 ? V::load_partial(ap + W, m1) : V::zero());
    for (idx j = 0; j < nr; ++j) {
      const V b = V::broadcast(bp[j]);
      acc0[j] = V::fma(a0, b, acc0[j]);
      acc1[j] = V::fma(a1, b, acc1[j]);
    }
    ap += mr;
    bp += nr;
  }
  const V va = V::broadcast(alpha);
  for (idx j = 0; j < nr; ++j) {
    T* col = c + static_cast<std::size_t>(j) * ldc;
    V r0, r1;
    if (beta == T(0)) {
      r0 = va * acc0[j];
      r1 = va * acc1[j];
    } else {
      const V vb = V::broadcast(beta);
      const V old0 =
          m0 == W ? V::load(col) : V::load_partial(col, m0);
      r0 = V::fma(va, acc0[j], beta == T(1) ? old0 : vb * old0);
      if (m1 > 0) {
        const V old1 =
            m1 == W ? V::load(col + W) : V::load_partial(col + W, m1);
        r1 = V::fma(va, acc1[j], beta == T(1) ? old1 : vb * old1);
      } else {
        r1 = V::zero();
      }
    }
    if (m0 == W) {
      r0.store(col);
    } else {
      r0.store_partial(col, m0);
    }
    if (m1 == W) {
      r1.store(col + W);
    } else if (m1 > 0) {
      r1.store_partial(col + W, m1);
    }
  }
}

/// alpha * v for a vector of interleaved complex lanes [re im re im ...]:
/// Re' = ar*re - ai*im, Im' = ar*im + ai*re, synthesized from two real
/// products via the swapped/sign-flipped twin of v.
template <class V, class C>
[[nodiscard]] V cplx_scale(C alpha, V v) noexcept {
  const V ar = V::broadcast(alpha.real());
  const V ai = V::broadcast(alpha.imag());
  return V::fma(ai, v.swap_pairs().neg_evens(), ar * v);
}

/// Vectorized full-tile kernel for complex T: MR = W complex rows stored
/// interleaved (two real vectors tall), NR = 4 columns. Each k step fuses
/// the real/imaginary contributions with two fmas per accumulator using
/// the swap-pairs + negate-evens twin of the packed A vectors; conjugation
/// was already resolved at pack time.
template <ComplexScalar T>
void micro_kernel_cplx(idx kc, T alpha, const T* ap_, const T* bp_, T beta,
                       T* c_, idx ldc) noexcept {
  using R = real_t<T>;
  using V = simd_native<R>;
  constexpr idx W = GemmBlocking<T>::W;
  constexpr idx MR = GemmBlocking<T>::MR;  // complex rows; 2W real lanes
  constexpr idx NR = GemmBlocking<T>::NR;
  static_assert(NR == 4 && MR == W);
  const R* ap = reinterpret_cast<const R*>(ap_);
  const R* bp = reinterpret_cast<const R*>(bp_);
  V c00 = V::zero(), c01 = V::zero(), c02 = V::zero(), c03 = V::zero();
  V c10 = V::zero(), c11 = V::zero(), c12 = V::zero(), c13 = V::zero();
  for (idx k = 0; k < kc; ++k) {
    const V a0 = V::load(ap);
    const V a1 = V::load(ap + W);
    const V a0s = a0.swap_pairs().neg_evens();  // [-im re -im re ...]
    const V a1s = a1.swap_pairs().neg_evens();
    simd_prefetch(ap + 16 * W);
    simd_prefetch(bp + 8 * NR);
    V br = V::broadcast(bp[0]);
    V bi = V::broadcast(bp[1]);
    c00 = V::fma(a0, br, c00);
    c10 = V::fma(a1, br, c10);
    c00 = V::fma(a0s, bi, c00);
    c10 = V::fma(a1s, bi, c10);
    br = V::broadcast(bp[2]);
    bi = V::broadcast(bp[3]);
    c01 = V::fma(a0, br, c01);
    c11 = V::fma(a1, br, c11);
    c01 = V::fma(a0s, bi, c01);
    c11 = V::fma(a1s, bi, c11);
    br = V::broadcast(bp[4]);
    bi = V::broadcast(bp[5]);
    c02 = V::fma(a0, br, c02);
    c12 = V::fma(a1, br, c12);
    c02 = V::fma(a0s, bi, c02);
    c12 = V::fma(a1s, bi, c12);
    br = V::broadcast(bp[6]);
    bi = V::broadcast(bp[7]);
    c03 = V::fma(a0, br, c03);
    c13 = V::fma(a1, br, c13);
    c03 = V::fma(a0s, bi, c03);
    c13 = V::fma(a1s, bi, c13);
    ap += 2 * W;
    bp += 2 * NR;
  }
  V* lo[NR] = {&c00, &c01, &c02, &c03};
  V* hi[NR] = {&c10, &c11, &c12, &c13};
  R* c = reinterpret_cast<R*>(c_);
  const std::size_t ldr = 2 * static_cast<std::size_t>(ldc);
  for (idx j = 0; j < NR; ++j) {
    R* col = c + static_cast<std::size_t>(j) * ldr;
    V r0 = cplx_scale(alpha, *lo[j]);
    V r1 = cplx_scale(alpha, *hi[j]);
    if (beta != T(0)) {
      if (beta == T(1)) {
        r0 = r0 + V::load(col);
        r1 = r1 + V::load(col + W);
      } else {
        r0 = r0 + cplx_scale(beta, V::load(col));
        r1 = r1 + cplx_scale(beta, V::load(col + W));
      }
    }
    r0.store(col);
    r1.store(col + W);
  }
}

/// Vectorized remainder kernel for complex T (mr <= MR complex rows,
/// nr <= NR columns): masked loads/stores over the 2*mr interleaved real
/// lanes of each unpadded strip row.
template <ComplexScalar T>
void micro_kernel_cplx_tail(idx kc, T alpha, const T* ap_, idx mr,
                            const T* bp_, idx nr, T beta, T* c_,
                            idx ldc) noexcept {
  using R = real_t<T>;
  using V = simd_native<R>;
  constexpr idx W = GemmBlocking<T>::W;
  constexpr idx NR = GemmBlocking<T>::NR;
  const idx lanes = 2 * mr;  // interleaved real lanes per strip row
  const idx m0 = std::min<idx>(lanes, W);
  const idx m1 = lanes - m0;
  V acc0[NR];
  V acc1[NR];
  for (idx j = 0; j < NR; ++j) {
    acc0[j] = V::zero();
    acc1[j] = V::zero();
  }
  const R* ap = reinterpret_cast<const R*>(ap_);
  const R* bp = reinterpret_cast<const R*>(bp_);
  for (idx k = 0; k < kc; ++k) {
    const V a0 = m0 == W ? V::load(ap) : V::load_partial(ap, m0);
    const V a1 = m1 == W ? V::load(ap + W)
                         : (m1 > 0 ? V::load_partial(ap + W, m1) : V::zero());
    const V a0s = a0.swap_pairs().neg_evens();
    const V a1s = a1.swap_pairs().neg_evens();
    for (idx j = 0; j < nr; ++j) {
      const V br = V::broadcast(bp[2 * j]);
      const V bi = V::broadcast(bp[2 * j + 1]);
      acc0[j] = V::fma(a0, br, acc0[j]);
      acc0[j] = V::fma(a0s, bi, acc0[j]);
      acc1[j] = V::fma(a1, br, acc1[j]);
      acc1[j] = V::fma(a1s, bi, acc1[j]);
    }
    ap += lanes;
    bp += 2 * nr;
  }
  R* c = reinterpret_cast<R*>(c_);
  const std::size_t ldr = 2 * static_cast<std::size_t>(ldc);
  for (idx j = 0; j < nr; ++j) {
    R* col = c + static_cast<std::size_t>(j) * ldr;
    V r0 = cplx_scale(alpha, acc0[j]);
    V r1 = cplx_scale(alpha, acc1[j]);
    if (beta != T(0)) {
      const V old0 = m0 == W ? V::load(col) : V::load_partial(col, m0);
      const V old1 = m1 == W
                         ? V::load(col + W)
                         : (m1 > 0 ? V::load_partial(col + W, m1) : V::zero());
      if (beta == T(1)) {
        r0 = r0 + old0;
        r1 = r1 + old1;
      } else {
        r0 = r0 + cplx_scale(beta, old0);
        r1 = r1 + cplx_scale(beta, old1);
      }
    }
    if (m0 == W) {
      r0.store(col);
    } else {
      r0.store_partial(col, m0);
    }
    if (m1 == W) {
      r1.store(col + W);
    } else if (m1 > 0) {
      r1.store_partial(col + W, m1);
    }
  }
}

/// Micro-kernel dispatch: C(0:mr,0:nr) := alpha*Ap*Bp + beta*C over kc
/// terms. Ap/Bp are unpadded packed strips with row strides mr/nr. Routes
/// full tiles to the named-register SIMD kernels, remainders to the
/// masked-tail kernels, and everything to the scalar reference kernel on
/// targets without usable vectors (or under the ablation switch).
template <Scalar T>
void micro_kernel(idx kc, T alpha, const T* ap, idx mr, const T* bp, idx nr,
                  T beta, T* c, idx ldc) noexcept {
  using B = GemmBlocking<T>;
  if constexpr (!B::kVectorized) {
    micro_kernel_ref(kc, alpha, ap, mr, bp, nr, beta, c, ldc);
  } else {
    if (scalar_kernel_flag().load(std::memory_order_relaxed)) {
      micro_kernel_ref(kc, alpha, ap, mr, bp, nr, beta, c, ldc);
      return;
    }
    if constexpr (is_complex_v<T>) {
      if (mr == B::MR && nr == B::NR) {
        micro_kernel_cplx(kc, alpha, ap, bp, beta, c, ldc);
      } else {
        micro_kernel_cplx_tail(kc, alpha, ap, mr, bp, nr, beta, c, ldc);
      }
    } else {
      if (mr == B::MR && nr == B::NR) {
        micro_kernel_real(kc, alpha, ap, bp, beta, c, ldc);
      } else {
        micro_kernel_real_tail(kc, alpha, ap, mr, bp, nr, beta, c, ldc);
      }
    }
  }
}

/// Tags of the per-thread packing buffers (la::detail::work_buffer).
/// Workers keep their A buffer across gemm calls; the caller's B buffer is
/// lent to its team for the duration of one panel.
struct PackATag {};
struct PackBTag {};

}  // namespace detail

/// Ablation switch: route every gemm micro-tile through the scalar
/// reference kernel even when SIMD kernels are compiled in (true), or
/// restore the vectorized kernels (false). Returns the previous setting.
/// Used by bench_gemm's scalar-vs-SIMD comparison and its --smoke guard.
inline bool set_force_scalar_kernel(bool on) noexcept {
  return detail::scalar_kernel_flag().exchange(on, std::memory_order_relaxed);
}

/// Reference three-loop GEMM: C := alpha*op(A)*op(B) + beta*C. Kept public
/// for the blocked-vs-naive ablation benchmark; correctness baseline in
/// the test suite.
template <Scalar T>
void gemm_naive(Trans ta, Trans tb, idx m, idx n, idx k, T alpha, const T* a,
                idx lda, const T* b, idx ldb, T beta, T* c,
                idx ldc) noexcept {
  detail::scale_c(m, n, beta, c, ldc);
  if (m <= 0 || n <= 0 || k <= 0 || alpha == T(0)) {
    return;
  }
  for (idx j = 0; j < n; ++j) {
    T* ccol = c + static_cast<std::size_t>(j) * ldc;
    for (idx l = 0; l < k; ++l) {
      const T t = alpha * detail::opval(b, ldb, tb, l, j);
      if (t == T(0)) {
        continue;
      }
      if (ta == Trans::NoTrans) {
        const T* acol = a + static_cast<std::size_t>(l) * lda;
        for (idx i = 0; i < m; ++i) {
          ccol[i] += t * acol[i];
        }
      } else {
        for (idx i = 0; i < m; ++i) {
          ccol[i] += t * detail::opval(a, lda, ta, i, l);
        }
      }
    }
  }
}

/// Blocked, packed GEMM (xGEMM): C := alpha*op(A)*op(B) + beta*C with
/// C m x n, op(A) m x k, op(B) k x n. beta is folded into the first
/// k-panel's micro-kernel pass (no separate sweep over C); beta == 0
/// overwrites C, so NaN/Inf in uninitialized C never propagates.
template <Scalar T>
void gemm(Trans ta, Trans tb, idx m, idx n, idx k, T alpha, const T* a,
          idx lda, const T* b, idx ldb, T beta, T* c, idx ldc) {
  using B = detail::GemmBlocking<T>;
  if (m <= 0 || n <= 0) {
    return;
  }
  if (k <= 0 || alpha == T(0)) {
    detail::scale_c(m, n, beta, c, ldc);
    return;
  }
  // Small problems: the packing overhead dominates; use the direct loops.
  // The flop count is formed in 64-bit — m*n*k overflows a 32-bit long on
  // LLP64 targets well before the operands themselves get large. The
  // cutoff routes through ilaenv so tests can force the packed path.
  if (static_cast<std::int64_t>(m) * n * k <
      static_cast<std::int64_t>(
          ilaenv(EnvSpec::Crossover, EnvRoutine::gemm, 0))) {
    detail::scale_c(m, n, beta, c, ldc);
    gemm_naive(ta, tb, m, n, k, alpha, a, lda, b, ldb, T(1), c, ldc);
    return;
  }

  const idx MC = B::mc();
  const idx KC = B::kc();
  const idx NC = B::nc();
  T* const bpack = la::detail::work_buffer<T, detail::PackBTag>(
      static_cast<std::size_t>(KC) * static_cast<std::size_t>(NC));

  for (idx jc = 0; jc < n; jc += NC) {
    const idx nc = std::min<idx>(NC, n - jc);
    const idx nstrips = (nc + B::NR - 1) / B::NR;
    for (idx kc0 = 0; kc0 < k; kc0 += KC) {
      const idx kc = std::min<idx>(KC, k - kc0);
      // The first k-panel applies beta (the micro-kernel overwrites C when
      // beta == 0); later panels accumulate. Every C tile is touched by
      // exactly one worker per panel, so this stays bit-identical across
      // worker counts.
      const T betaeff = kc0 == 0 ? beta : T(1);
      // The team packs the shared B panel cooperatively, one NR strip per
      // chunk; strips occupy disjoint slices of bpack (all full except
      // possibly the last, so the js-th strip starts at js*kc*NR).
      parallel_for(nstrips, [&](idx js, int) {
        const idx j = js * B::NR;
        detail::pack_b(kc, std::min<idx>(B::NR, nc - j), b, ldb, tb, kc0,
                       jc + j,
                       bpack + static_cast<std::size_t>(js) * kc * B::NR);
      });
      // IC macro loop: each worker packs its own A block into a reusable
      // thread-local buffer and owns a disjoint row band of C, so every
      // reduction order lives inside a chunk and the result cannot depend
      // on the worker count.
      const idx mblocks = (m + MC - 1) / MC;
      parallel_for(mblocks, [&](idx icb, int) {
        const idx ic = icb * MC;
        const idx mc = std::min<idx>(MC, m - ic);
        T* const apack = la::detail::work_buffer<T, detail::PackATag>(
            static_cast<std::size_t>(MC) * static_cast<std::size_t>(KC));
        detail::pack_a(mc, kc, a, lda, ta, ic, kc0, apack);
        const idx mstrips = (mc + B::MR - 1) / B::MR;
        for (idx js = 0; js < nstrips; ++js) {
          const idx j = js * B::NR;
          const idx nr = std::min<idx>(B::NR, nc - j);
          const T* bp = bpack + static_cast<std::size_t>(js) * kc * B::NR;
          for (idx is = 0; is < mstrips; ++is) {
            const idx i = is * B::MR;
            const idx mr = std::min<idx>(B::MR, mc - i);
            const T* ap = apack + static_cast<std::size_t>(is) * kc * B::MR;
            detail::micro_kernel(
                kc, alpha, ap, mr, bp, nr, betaeff,
                c + static_cast<std::size_t>(jc + j) * ldc + ic + i, ldc);
          }
        }
      });
    }
  }
}

namespace detail {

template <Scalar T, bool Herm>
void symm_impl(Side side, Uplo uplo, idx m, idx n, T alpha, const T* a,
               idx lda, const T* b, idx ldb, T beta, T* c, idx ldc) noexcept {
  scale_c(m, n, beta, c, ldc);
  if (m <= 0 || n <= 0 || alpha == T(0)) {
    return;
  }
  auto aval = [&](idx i, idx j) -> T {
    // Logical A(i,j) with symmetric/Hermitian completion of the stored
    // triangle.
    const bool stored = uplo == Uplo::Upper ? (i <= j) : (i >= j);
    const T v = stored ? a[static_cast<std::size_t>(j) * lda + i]
                       : a[static_cast<std::size_t>(i) * lda + j];
    if (stored) {
      return (Herm && i == j) ? T(real_part(v)) : v;
    }
    if constexpr (Herm) {
      return conj_if(v);
    } else {
      return v;
    }
  };
  if (side == Side::Left) {
    // C += alpha * A * B, A m x m symmetric.
    for (idx j = 0; j < n; ++j) {
      T* ccol = c + static_cast<std::size_t>(j) * ldc;
      const T* bcol = b + static_cast<std::size_t>(j) * ldb;
      for (idx l = 0; l < m; ++l) {
        const T t = alpha * bcol[l];
        if (t == T(0)) {
          continue;
        }
        for (idx i = 0; i < m; ++i) {
          ccol[i] += t * aval(i, l);
        }
      }
    }
  } else {
    // C += alpha * B * A, A n x n symmetric.
    for (idx j = 0; j < n; ++j) {
      T* ccol = c + static_cast<std::size_t>(j) * ldc;
      for (idx l = 0; l < n; ++l) {
        const T t = alpha * aval(l, j);
        if (t == T(0)) {
          continue;
        }
        const T* bcol = b + static_cast<std::size_t>(l) * ldb;
        for (idx i = 0; i < m; ++i) {
          ccol[i] += t * bcol[i];
        }
      }
    }
  }
}

/// Blocked symm/hemm: tile the symmetric operand into MC x MC blocks.
/// Diagonal blocks go through the reference kernel (which completes the
/// stored triangle); off-diagonal blocks are general and flow through the
/// threaded gemm. Each output block applies beta exactly once (l0 == 0).
template <Scalar T, bool Herm>
void symm_blocked(Side side, Uplo uplo, idx m, idx n, T alpha, const T* a,
                  idx lda, const T* b, idx ldb, T beta, T* c, idx ldc) {
  const idx nb = GemmBlocking<T>::mc();
  const Trans tt = Herm ? Trans::ConjTrans : Trans::Trans;
  const idx an = side == Side::Left ? m : n;
  for (idx i0 = 0; i0 < an; i0 += nb) {
    const idx ib = std::min<idx>(nb, an - i0);
    for (idx l0 = 0; l0 < an; l0 += nb) {
      const idx lb = std::min<idx>(nb, an - l0);
      const T betaeff = l0 == 0 ? beta : T(1);
      if (side == Side::Left) {
        // C(i0 rows, :) += alpha * A(i0, l0) * B(l0 rows, :)
        if (i0 == l0) {
          symm_impl<T, Herm>(side, uplo, ib, n, alpha,
                             a + static_cast<std::size_t>(i0) * lda + i0, lda,
                             b + l0, ldb, betaeff, c + i0, ldc);
        } else {
          const bool stored = (uplo == Uplo::Upper) == (i0 < l0);
          const T* blk = stored
                             ? a + static_cast<std::size_t>(l0) * lda + i0
                             : a + static_cast<std::size_t>(i0) * lda + l0;
          gemm(stored ? Trans::NoTrans : tt, Trans::NoTrans, ib, n, lb, alpha,
               blk, lda, b + l0, ldb, betaeff, c + i0, ldc);
        }
      } else {
        // C(:, i0 cols) += alpha * B(:, l0 cols) * A(l0, i0)
        if (i0 == l0) {
          symm_impl<T, Herm>(side, uplo, m, ib, alpha,
                             a + static_cast<std::size_t>(i0) * lda + i0, lda,
                             b + static_cast<std::size_t>(l0) * ldb, ldb,
                             betaeff, c + static_cast<std::size_t>(i0) * ldc,
                             ldc);
        } else {
          const bool stored = (uplo == Uplo::Upper) == (l0 < i0);
          const T* blk = stored
                             ? a + static_cast<std::size_t>(i0) * lda + l0
                             : a + static_cast<std::size_t>(l0) * lda + i0;
          gemm(Trans::NoTrans, stored ? Trans::NoTrans : tt, m, ib, lb, alpha,
               b + static_cast<std::size_t>(l0) * ldb, ldb, blk, lda, betaeff,
               c + static_cast<std::size_t>(i0) * ldc, ldc);
        }
      }
    }
  }
}

}  // namespace detail

/// Symmetric matrix-matrix product (xSYMM). Large symmetric operands are
/// recast onto blocked gemm; small ones use the reference kernel.
template <Scalar T>
void symm(Side side, Uplo uplo, idx m, idx n, T alpha, const T* a, idx lda,
          const T* b, idx ldb, T beta, T* c, idx ldc) noexcept {
  const idx an = side == Side::Left ? m : n;
  if (m <= 0 || n <= 0 || alpha == T(0) ||
      an <= detail::GemmBlocking<T>::mc()) {
    detail::symm_impl<T, false>(side, uplo, m, n, alpha, a, lda, b, ldb, beta,
                                c, ldc);
    return;
  }
  detail::symm_blocked<T, false>(side, uplo, m, n, alpha, a, lda, b, ldb, beta,
                                 c, ldc);
}

/// Hermitian matrix-matrix product (xHEMM).
template <Scalar T>
void hemm(Side side, Uplo uplo, idx m, idx n, T alpha, const T* a, idx lda,
          const T* b, idx ldb, T beta, T* c, idx ldc) noexcept {
  const idx an = side == Side::Left ? m : n;
  if (m <= 0 || n <= 0 || alpha == T(0) ||
      an <= detail::GemmBlocking<T>::mc()) {
    detail::symm_impl<T, is_complex_v<T>>(side, uplo, m, n, alpha, a, lda, b,
                                          ldb, beta, c, ldc);
    return;
  }
  detail::symm_blocked<T, is_complex_v<T>>(side, uplo, m, n, alpha, a, lda, b,
                                           ldb, beta, c, ldc);
}

namespace detail {

/// Reference rank-k kernel of syrk (Herm false) and herk (Herm true; alpha
/// and beta real, diagonal kept exactly real). Only NoTrans is tested for:
/// any other trans is the transpose, conjugated when Herm.
template <Scalar T, bool Herm>
void rank_k_ref(Uplo uplo, Trans trans, idx n, idx k, T alpha, const T* a,
                idx lda, T beta, T* c, idx ldc) noexcept {
  auto cj = [](const T& v) { return Herm ? conj_if(v) : v; };
  for (idx j = 0; j < n; ++j) {
    T* ccol = c + static_cast<std::size_t>(j) * ldc;
    const idx lo = uplo == Uplo::Upper ? 0 : j;
    const idx hi = uplo == Uplo::Upper ? j : n - 1;
    // The symmetric form skips beta == 1; the Hermitian form rescales every
    // entry and forces an exactly-real diagonal, as xHERK/xHER2K do.
    if constexpr (Herm) {
      for (idx i = lo; i <= hi; ++i) {
        const T scaled = beta == T(0) ? T(0) : beta * ccol[i];
        ccol[i] = (i == j) ? T(real_part(scaled)) : scaled;
      }
    } else if (beta != T(1)) {
      for (idx i = lo; i <= hi; ++i) {
        ccol[i] = beta == T(0) ? T(0) : beta * ccol[i];
      }
    }
    if (alpha == T(0) || k <= 0) {
      continue;
    }
    if (trans == Trans::NoTrans) {
      // C(i,j) += alpha * sum_l A(i,l) * cj(A(j,l)), one column axpy per l
      // (la::simd for real T; axpy skips a zero multiplier).
      for (idx l = 0; l < k; ++l) {
        const T* acol = a + static_cast<std::size_t>(l) * lda;
        axpy(hi - lo + 1, alpha * cj(acol[j]), acol + lo, 1, ccol + lo, 1);
      }
    } else {
      // C(i,j) += alpha * sum_l cj(A(l,i)) * A(l,j)
      for (idx i = lo; i <= hi; ++i) {
        const T* ai = a + static_cast<std::size_t>(i) * lda;
        const T* aj = a + static_cast<std::size_t>(j) * lda;
        if constexpr (!is_complex_v<T>) {
          ccol[i] += alpha * dot_contig(k, ai, aj);
          continue;
        }
        // Two independent partial sums break the serial FMA chain.
        T s0(0), s1(0);
        idx l = 0;
        for (; l + 1 < k; l += 2) {
          s0 += cj(ai[l]) * aj[l];
          s1 += cj(ai[l + 1]) * aj[l + 1];
        }
        for (; l < k; ++l) {
          s0 += cj(ai[l]) * aj[l];
        }
        ccol[i] += alpha * (s0 + s1);
      }
    }
    if constexpr (Herm) {
      ccol[j] = T(real_part(ccol[j]));
    }
  }
}

/// Blocked rank-k update behind syrk/herk. Large updates tile C into
/// MC-wide block columns: the diagonal block stays on the reference
/// kernel, the off-diagonal panel is a plain product and runs through the
/// threaded gemm. Each block of C is touched exactly once, so beta applies
/// correctly.
template <Scalar T, bool Herm>
void rank_k(Uplo uplo, Trans trans, idx n, idx k, T alpha, const T* a,
            idx lda, T beta, T* c, idx ldc) noexcept {
  const idx nb = GemmBlocking<T>::mc();
  if (n <= nb || k <= 0 || alpha == T(0)) {
    rank_k_ref<T, Herm>(uplo, trans, n, k, alpha, a, lda, beta, c, ldc);
    return;
  }
  const bool nt = trans == Trans::NoTrans;
  const Trans tt = Herm ? Trans::ConjTrans : Trans::Trans;
  for (idx j0 = 0; j0 < n; j0 += nb) {
    const idx jb = std::min<idx>(nb, n - j0);
    const T* aj = nt ? a + j0 : a + static_cast<std::size_t>(j0) * lda;
    T* cblk = c + static_cast<std::size_t>(j0) * ldc;
    rank_k_ref<T, Herm>(uplo, trans, jb, k, alpha, aj, lda, beta, cblk + j0,
                        ldc);
    // Off-diagonal panel: rows above the block (Upper) or below (Lower).
    const idx r0 = uplo == Uplo::Upper ? 0 : j0 + jb;
    const idx rm = uplo == Uplo::Upper ? j0 : n - r0;
    if (rm > 0) {
      const T* ar = nt ? a + r0 : a + static_cast<std::size_t>(r0) * lda;
      gemm(nt ? Trans::NoTrans : tt, nt ? tt : Trans::NoTrans, rm, jb, k,
           alpha, ar, lda, aj, lda, beta, cblk + r0, ldc);
    }
  }
}

/// Reference rank-2k kernel of syr2k (Herm false) and her2k (Herm true;
/// beta real, diagonal kept exactly real); trans as in rank_k_ref.
template <Scalar T, bool Herm>
void rank_2k_ref(Uplo uplo, Trans trans, idx n, idx k, T alpha, const T* a,
                 idx lda, const T* b, idx ldb, T beta, T* c,
                 idx ldc) noexcept {
  auto cj = [](const T& v) { return Herm ? conj_if(v) : v; };
  for (idx j = 0; j < n; ++j) {
    T* ccol = c + static_cast<std::size_t>(j) * ldc;
    const idx lo = uplo == Uplo::Upper ? 0 : j;
    const idx hi = uplo == Uplo::Upper ? j : n - 1;
    // beta as in rank_k_ref.
    if constexpr (Herm) {
      for (idx i = lo; i <= hi; ++i) {
        const T scaled = beta == T(0) ? T(0) : beta * ccol[i];
        ccol[i] = (i == j) ? T(real_part(scaled)) : scaled;
      }
    } else if (beta != T(1)) {
      for (idx i = lo; i <= hi; ++i) {
        ccol[i] = beta == T(0) ? T(0) : beta * ccol[i];
      }
    }
    if (alpha == T(0) || k <= 0) {
      continue;
    }
    if (trans == Trans::NoTrans) {
      // alpha*A*op(B) + cj(alpha)*B*op(A) in axpy form: stream down the
      // columns of A and B (unit stride) instead of dotting across rows
      // with stride lda. This block is the diagonal kernel of the blocked
      // update that carries sytrd/hetrd's trailing update.
      for (idx l = 0; l < k; ++l) {
        const T t1 = alpha * cj(b[static_cast<std::size_t>(l) * ldb + j]);
        const T t2 = cj(alpha) * cj(a[static_cast<std::size_t>(l) * lda + j]);
        if (t1 == T(0) && t2 == T(0)) {
          continue;
        }
        const T* acol = a + static_cast<std::size_t>(l) * lda;
        const T* bcol = b + static_cast<std::size_t>(l) * ldb;
        for (idx i = lo; i <= hi; ++i) {
          ccol[i] += acol[i] * t1 + bcol[i] * t2;
        }
      }
    } else {
      // alpha*op(A)*B + cj(alpha)*op(B)*A
      for (idx i = lo; i <= hi; ++i) {
        const T* ai = a + static_cast<std::size_t>(i) * lda;
        const T* aj = a + static_cast<std::size_t>(j) * lda;
        const T* bi = b + static_cast<std::size_t>(i) * ldb;
        const T* bj = b + static_cast<std::size_t>(j) * ldb;
        if constexpr (Herm) {
          // The two products keep separate sums: alpha and conj(alpha)
          // differ, so they cannot share one.
          T sa0(0), sa1(0), sb0(0), sb1(0);
          idx l = 0;
          for (; l + 1 < k; l += 2) {
            sa0 += conj_if(ai[l]) * bj[l];
            sb0 += conj_if(bi[l]) * aj[l];
            sa1 += conj_if(ai[l + 1]) * bj[l + 1];
            sb1 += conj_if(bi[l + 1]) * aj[l + 1];
          }
          for (; l < k; ++l) {
            sa0 += conj_if(ai[l]) * bj[l];
            sb0 += conj_if(bi[l]) * aj[l];
          }
          ccol[i] += alpha * (sa0 + sa1) + conj_if(alpha) * (sb0 + sb1);
        } else {
          // Two independent partial sums break the serial FMA chain.
          T s0(0), s1(0);
          idx l = 0;
          for (; l + 1 < k; l += 2) {
            s0 += ai[l] * bj[l] + bi[l] * aj[l];
            s1 += ai[l + 1] * bj[l + 1] + bi[l + 1] * aj[l + 1];
          }
          for (; l < k; ++l) {
            s0 += ai[l] * bj[l] + bi[l] * aj[l];
          }
          ccol[i] += alpha * (s0 + s1);
        }
      }
    }
    if constexpr (Herm) {
      ccol[j] = T(real_part(ccol[j]));
    }
  }
}

/// Tags of the concatenation scratch for the rank-2k NoTrans fast path:
/// S = [A B] and the scaled twin, both n x 2k column-major.
struct Rank2kSTag {};
struct Rank2kTTag {};

/// Blocked rank-2k update behind syr2k/her2k, tiled like rank_k: diagonal
/// blocks stay on the reference kernel, off-diagonal panels run through
/// the threaded gemm. For NoTrans (the blocked sytrd/hetrd trailing
/// update) the two rank-k products merge into ONE gemm of depth 2k over
/// S = [A B] and Tm = [cj(alpha)*B alpha*A]: C += S*op(Tm) makes a single
/// pass over the trailing matrix instead of two. The update is
/// bandwidth-bound on C, so this nearly halves its cost on top of the
/// better k-depth.
template <Scalar T, bool Herm>
void rank_2k(Uplo uplo, Trans trans, idx n, idx k, T alpha, const T* a,
             idx lda, const T* b, idx ldb, T beta, T* c, idx ldc) noexcept {
  const idx nb = GemmBlocking<T>::mc();
  // GCC 12 fuses some complex products below into fmaddsub despite
  // -ffp-contract=off, by code shape. ca declared here (not at the copy)
  // and two Upper/Lower branches (not rank_k's merged form) keep the bits.
  const T ca = Herm ? conj_if(alpha) : alpha;
  if (n <= nb || k <= 0 || alpha == T(0)) {
    rank_2k_ref<T, Herm>(uplo, trans, n, k, alpha, a, lda, b, ldb, beta, c,
                         ldc);
    return;
  }
  const bool nt = trans == Trans::NoTrans;
  const Trans tt = Herm ? Trans::ConjTrans : Trans::Trans;
  T* s = nullptr;   // [A B], n x 2k
  T* tm = nullptr;  // [cj(alpha)*B alpha*A], n x 2k
  if (nt) {
    s = la::detail::work_buffer<T, Rank2kSTag>(
        static_cast<std::size_t>(n) * 2 * static_cast<std::size_t>(k));
    tm = la::detail::work_buffer<T, Rank2kTTag>(
        static_cast<std::size_t>(n) * 2 * static_cast<std::size_t>(k));
    for (idx l = 0; l < k; ++l) {
      const T* acol = a + static_cast<std::size_t>(l) * lda;
      const T* bcol = b + static_cast<std::size_t>(l) * ldb;
      T* s1 = s + static_cast<std::size_t>(l) * n;
      T* s2 = s + static_cast<std::size_t>(k + l) * n;
      T* t1 = tm + static_cast<std::size_t>(l) * n;
      T* t2 = tm + static_cast<std::size_t>(k + l) * n;
      for (idx i = 0; i < n; ++i) {
        s1[i] = acol[i];
        s2[i] = bcol[i];
        t1[i] = ca * bcol[i];
        t2[i] = alpha * acol[i];
      }
    }
  }
  for (idx j0 = 0; j0 < n; j0 += nb) {
    const idx jb = std::min<idx>(nb, n - j0);
    const T* aj = nt ? a + j0 : a + static_cast<std::size_t>(j0) * lda;
    const T* bj = nt ? b + j0 : b + static_cast<std::size_t>(j0) * ldb;
    T* cblk = c + static_cast<std::size_t>(j0) * ldc;
    rank_2k_ref<T, Herm>(uplo, trans, jb, k, alpha, aj, lda, bj, ldb, beta,
                         cblk + j0, ldc);
    if (uplo == Uplo::Upper) {
      if (j0 > 0) {
        if (nt) {
          gemm(Trans::NoTrans, tt, j0, jb, 2 * k, T(1), s, n, tm + j0, n,
               beta, cblk, ldc);
        } else {
          gemm(tt, Trans::NoTrans, j0, jb, k, alpha, a, lda, bj, ldb, beta,
               cblk, ldc);
          gemm(tt, Trans::NoTrans, j0, jb, k, ca, b, ldb, aj, lda, T(1),
               cblk, ldc);
        }
      }
    } else {
      const idx rem = n - j0 - jb;
      if (rem > 0) {
        T* cr = cblk + j0 + jb;
        if (nt) {
          gemm(Trans::NoTrans, tt, rem, jb, 2 * k, T(1), s + j0 + jb, n,
               tm + j0, n, beta, cr, ldc);
        } else {
          const T* ar = a + static_cast<std::size_t>(j0 + jb) * lda;
          const T* br = b + static_cast<std::size_t>(j0 + jb) * ldb;
          gemm(tt, Trans::NoTrans, rem, jb, k, alpha, ar, lda, bj, ldb, beta,
               cr, ldc);
          gemm(tt, Trans::NoTrans, rem, jb, k, ca, br, ldb, aj, lda, T(1),
               cr, ldc);
        }
      }
    }
  }
}

}  // namespace detail

/// Symmetric rank-k update (xSYRK):
///   C := alpha*A*A^T + beta*C   (trans == NoTrans, A n x k)
///   C := alpha*A^T*A + beta*C   (trans == Trans,   A k x n)
/// Only the `uplo` triangle of C is referenced/updated.
template <Scalar T>
void syrk(Uplo uplo, Trans trans, idx n, idx k, T alpha, const T* a, idx lda,
          T beta, T* c, idx ldc) noexcept {
  detail::rank_k<T, false>(uplo, trans, n, k, alpha, a, lda, beta, c, ldc);
}

/// Hermitian rank-k update (xHERK); alpha/beta are real, trans is N or C:
///   C := alpha*A*A^H + beta*C  /  alpha*A^H*A + beta*C
/// with an exactly-real diagonal. For real T this is syrk (ConjTrans reads
/// as Trans).
template <Scalar T>
void herk(Uplo uplo, Trans trans, idx n, idx k, real_t<T> alpha, const T* a,
          idx lda, real_t<T> beta, T* c, idx ldc) noexcept {
  detail::rank_k<T, is_complex_v<T>>(uplo, trans, n, k, T(alpha), a, lda,
                                     T(beta), c, ldc);
}

/// Symmetric rank-2k update (xSYR2K):
///   C := alpha*A*B^T + alpha*B*A^T + beta*C  (NoTrans)
///   C := alpha*A^T*B + alpha*B^T*A + beta*C  (Trans)
template <Scalar T>
void syr2k(Uplo uplo, Trans trans, idx n, idx k, T alpha, const T* a, idx lda,
           const T* b, idx ldb, T beta, T* c, idx ldc) noexcept {
  detail::rank_2k<T, false>(uplo, trans, n, k, alpha, a, lda, b, ldb, beta, c,
                            ldc);
}

/// Hermitian rank-2k update (xHER2K); beta real:
///   C := alpha*A*B^H + conj(alpha)*B*A^H + beta*C  (NoTrans)
///   C := alpha*A^H*B + conj(alpha)*B^H*A + beta*C  (ConjTrans)
/// For real T this is syr2k (ConjTrans reads as Trans).
template <Scalar T>
void her2k(Uplo uplo, Trans trans, idx n, idx k, T alpha, const T* a, idx lda,
           const T* b, idx ldb, real_t<T> beta, T* c, idx ldc) noexcept {
  detail::rank_2k<T, is_complex_v<T>>(uplo, trans, n, k, alpha, a, lda, b,
                                      ldb, T(beta), c, ldc);
}

namespace detail {

/// Reference xTRMM kernel (see the public trmm for the blocked dispatch).
/// Every axpy-shaped column update is a unit-stride blas::axpy, which runs
/// the la::simd sweep for real T and a scalar loop for complex T; the
/// Left Trans/ConjTrans branches are dot-shaped and stay scalar.
template <Scalar T>
void trmm_ref(Side side, Uplo uplo, Trans trans, Diag diag, idx m, idx n,
              T alpha, const T* a, idx lda, T* b, idx ldb) noexcept {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (alpha == T(0)) {
    detail::scale_c(m, n, T(0), b, ldb);
    return;
  }
  const bool unit = diag == Diag::Unit;
  const bool upper = uplo == Uplo::Upper;
  auto cj = [&](const T& v) {
    return trans == Trans::ConjTrans ? conj_if(v) : v;
  };
  auto acol = [&](idx j) { return a + static_cast<std::size_t>(j) * lda; };

  if (side == Side::Left) {
    if (trans == Trans::NoTrans) {
      // B := alpha * A * B
      for (idx j = 0; j < n; ++j) {
        T* bcol = b + static_cast<std::size_t>(j) * ldb;
        if (upper) {
          for (idx k = 0; k < m; ++k) {
            const T t = alpha * bcol[k];
            if (t == T(0)) {
              continue;
            }
            axpy(k, t, acol(k), 1, bcol, 1);
            bcol[k] = unit ? t : t * acol(k)[k];
          }
        } else {
          for (idx k = m - 1; k >= 0; --k) {
            const T t = alpha * bcol[k];
            if (t == T(0)) {
              bcol[k] = T(0);
              continue;
            }
            bcol[k] = unit ? t : t * acol(k)[k];
            axpy(m - k - 1, t, acol(k) + k + 1, 1, bcol + k + 1, 1);
          }
        }
      }
    } else {
      // B := alpha * op(A)^{T/H} * B
      for (idx j = 0; j < n; ++j) {
        T* bcol = b + static_cast<std::size_t>(j) * ldb;
        if (upper) {
          for (idx i = m - 1; i >= 0; --i) {
            T t = unit ? bcol[i] : cj(acol(i)[i]) * bcol[i];
            for (idx k = 0; k < i; ++k) {
              t += cj(acol(i)[k]) * bcol[k];
            }
            bcol[i] = alpha * t;
          }
        } else {
          for (idx i = 0; i < m; ++i) {
            T t = unit ? bcol[i] : cj(acol(i)[i]) * bcol[i];
            for (idx k = i + 1; k < m; ++k) {
              t += cj(acol(i)[k]) * bcol[k];
            }
            bcol[i] = alpha * t;
          }
        }
      }
    }
  } else {
    if (trans == Trans::NoTrans) {
      // B := alpha * B * A
      if (upper) {
        for (idx j = n - 1; j >= 0; --j) {
          T* bj = b + static_cast<std::size_t>(j) * ldb;
          const T dj = unit ? T(1) : acol(j)[j];
          for (idx i = 0; i < m; ++i) {
            bj[i] *= alpha * dj;
          }
          for (idx k = 0; k < j; ++k) {
            const T t = alpha * acol(j)[k];
            if (t == T(0)) {
              continue;
            }
            axpy(m, t, b + static_cast<std::size_t>(k) * ldb, 1, bj, 1);
          }
        }
      } else {
        for (idx j = 0; j < n; ++j) {
          T* bj = b + static_cast<std::size_t>(j) * ldb;
          const T dj = unit ? T(1) : acol(j)[j];
          for (idx i = 0; i < m; ++i) {
            bj[i] *= alpha * dj;
          }
          for (idx k = j + 1; k < n; ++k) {
            const T t = alpha * acol(j)[k];
            if (t == T(0)) {
              continue;
            }
            axpy(m, t, b + static_cast<std::size_t>(k) * ldb, 1, bj, 1);
          }
        }
      }
    } else {
      // B := alpha * B * op(A)^{T/H}
      if (upper) {
        for (idx k = 0; k < n; ++k) {
          T* bk = b + static_cast<std::size_t>(k) * ldb;
          for (idx j = 0; j < k; ++j) {
            const T t = alpha * cj(acol(k)[j]);
            if (t == T(0)) {
              continue;
            }
            axpy(m, t, bk, 1, b + static_cast<std::size_t>(j) * ldb, 1);
          }
          const T dk = alpha * (unit ? T(1) : cj(acol(k)[k]));
          for (idx i = 0; i < m; ++i) {
            bk[i] *= dk;
          }
        }
      } else {
        for (idx k = n - 1; k >= 0; --k) {
          T* bk = b + static_cast<std::size_t>(k) * ldb;
          for (idx j = k + 1; j < n; ++j) {
            const T t = alpha * cj(acol(k)[j]);
            if (t == T(0)) {
              continue;
            }
            axpy(m, t, bk, 1, b + static_cast<std::size_t>(j) * ldb, 1);
          }
          const T dk = alpha * (unit ? T(1) : cj(acol(k)[k]));
          for (idx i = 0; i < m; ++i) {
            bk[i] *= dk;
          }
        }
      }
    }
  }
}

/// Reference xTRSM kernel (see the public trsm for the blocked dispatch).
/// Its column updates call axpy with -t: negation is exact, so they round
/// as y -= t*x would.
template <Scalar T>
void trsm_ref(Side side, Uplo uplo, Trans trans, Diag diag, idx m, idx n,
              T alpha, const T* a, idx lda, T* b, idx ldb) noexcept {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (alpha == T(0)) {
    detail::scale_c(m, n, T(0), b, ldb);
    return;
  }
  const bool unit = diag == Diag::Unit;
  const bool upper = uplo == Uplo::Upper;
  auto cj = [&](const T& v) {
    return trans == Trans::ConjTrans ? conj_if(v) : v;
  };
  auto acol = [&](idx j) { return a + static_cast<std::size_t>(j) * lda; };

  if (side == Side::Left) {
    if (trans == Trans::NoTrans) {
      // Real multi-RHS fast path: four columns per sweep. Each column's
      // k-chain is serial (step k+1 reads what step k wrote), but the four
      // chains are independent, so interleaving them per k keeps four
      // updates in flight — and the triangle column is read once per
      // group of four instead of once per right-hand side.
      if constexpr (!is_complex_v<T>) {
        idx j = 0;
        for (; j + 4 <= n; j += 4) {
          T* b0 = b + static_cast<std::size_t>(j) * ldb;
          T* b1 = b0 + ldb;
          T* b2 = b1 + ldb;
          T* b3 = b2 + ldb;
          if (alpha != T(1)) {
            for (idx i = 0; i < m; ++i) {
              b0[i] *= alpha;
              b1[i] *= alpha;
              b2[i] *= alpha;
              b3[i] *= alpha;
            }
          }
          if (upper) {
            for (idx k = m - 1; k >= 0; --k) {
              const T* ak = acol(k);
              if (!unit) {
                const T d = T(1) / ak[k];
                b0[k] *= d;
                b1[k] *= d;
                b2[k] *= d;
                b3[k] *= d;
              }
              const T neg[4] = {-b0[k], -b1[k], -b2[k], -b3[k]};
              axpy4_contig(k, neg, ak, b0, b1, b2, b3);
            }
          } else {
            for (idx k = 0; k < m; ++k) {
              const T* ak = acol(k);
              if (!unit) {
                const T d = T(1) / ak[k];
                b0[k] *= d;
                b1[k] *= d;
                b2[k] *= d;
                b3[k] *= d;
              }
              const T neg[4] = {-b0[k], -b1[k], -b2[k], -b3[k]};
              axpy4_contig(m - k - 1, neg, ak + k + 1, b0 + k + 1, b1 + k + 1,
                           b2 + k + 1, b3 + k + 1);
            }
          }
        }
        for (; j < n; ++j) {
          T* bcol = b + static_cast<std::size_t>(j) * ldb;
          if (alpha != T(1)) {
            for (idx i = 0; i < m; ++i) {
              bcol[i] *= alpha;
            }
          }
          if (upper) {
            for (idx k = m - 1; k >= 0; --k) {
              if (!unit) {
                bcol[k] /= acol(k)[k];
              }
              axpy_contig(k, -bcol[k], acol(k), bcol);
            }
          } else {
            for (idx k = 0; k < m; ++k) {
              if (!unit) {
                bcol[k] /= acol(k)[k];
              }
              axpy_contig(m - k - 1, -bcol[k], acol(k) + k + 1,
                          bcol + k + 1);
            }
          }
        }
        return;
      }
      // X := alpha * inv(A) * B
      for (idx j = 0; j < n; ++j) {
        T* bcol = b + static_cast<std::size_t>(j) * ldb;
        if (alpha != T(1)) {
          for (idx i = 0; i < m; ++i) {
            bcol[i] *= alpha;
          }
        }
        if (upper) {
          for (idx k = m - 1; k >= 0; --k) {
            if (bcol[k] == T(0)) {
              continue;
            }
            if (!unit) {
              bcol[k] /= acol(k)[k];
            }
            axpy(k, -bcol[k], acol(k), 1, bcol, 1);
          }
        } else {
          for (idx k = 0; k < m; ++k) {
            if (bcol[k] == T(0)) {
              continue;
            }
            if (!unit) {
              bcol[k] /= acol(k)[k];
            }
            axpy(m - k - 1, -bcol[k], acol(k) + k + 1, 1, bcol + k + 1, 1);
          }
        }
      }
    } else {
      // X := alpha * inv(op(A)^{T/H}) * B
      for (idx j = 0; j < n; ++j) {
        T* bcol = b + static_cast<std::size_t>(j) * ldb;
        if (upper) {
          for (idx i = 0; i < m; ++i) {
            T t = alpha * bcol[i];
            if constexpr (!is_complex_v<T>) {
              t -= dot_contig(i, acol(i), bcol);
            } else {
              for (idx k = 0; k < i; ++k) {
                t -= cj(acol(i)[k]) * bcol[k];
              }
            }
            if (!unit) {
              t /= cj(acol(i)[i]);
            }
            bcol[i] = t;
          }
        } else {
          for (idx i = m - 1; i >= 0; --i) {
            T t = alpha * bcol[i];
            if constexpr (!is_complex_v<T>) {
              t -= dot_contig(m - i - 1, acol(i) + i + 1, bcol + i + 1);
            } else {
              for (idx k = i + 1; k < m; ++k) {
                t -= cj(acol(i)[k]) * bcol[k];
              }
            }
            if (!unit) {
              t /= cj(acol(i)[i]);
            }
            bcol[i] = t;
          }
        }
      }
    }
  } else {
    if (trans == Trans::NoTrans) {
      // X := alpha * B * inv(A)
      if (upper) {
        for (idx j = 0; j < n; ++j) {
          T* bj = b + static_cast<std::size_t>(j) * ldb;
          if (alpha != T(1)) {
            for (idx i = 0; i < m; ++i) {
              bj[i] *= alpha;
            }
          }
          for (idx k = 0; k < j; ++k) {
            const T t = acol(j)[k];
            if (t == T(0)) {
              continue;
            }
            axpy(m, -t, b + static_cast<std::size_t>(k) * ldb, 1, bj, 1);
          }
          if (!unit) {
            const T d = T(1) / acol(j)[j];
            for (idx i = 0; i < m; ++i) {
              bj[i] *= d;
            }
          }
        }
      } else {
        for (idx j = n - 1; j >= 0; --j) {
          T* bj = b + static_cast<std::size_t>(j) * ldb;
          if (alpha != T(1)) {
            for (idx i = 0; i < m; ++i) {
              bj[i] *= alpha;
            }
          }
          for (idx k = j + 1; k < n; ++k) {
            const T t = acol(j)[k];
            if (t == T(0)) {
              continue;
            }
            axpy(m, -t, b + static_cast<std::size_t>(k) * ldb, 1, bj, 1);
          }
          if (!unit) {
            const T d = T(1) / acol(j)[j];
            for (idx i = 0; i < m; ++i) {
              bj[i] *= d;
            }
          }
        }
      }
    } else {
      // X := alpha * B * inv(op(A)^{T/H})
      if (upper) {
        for (idx k = n - 1; k >= 0; --k) {
          T* bk = b + static_cast<std::size_t>(k) * ldb;
          if (!unit) {
            const T d = T(1) / cj(acol(k)[k]);
            for (idx i = 0; i < m; ++i) {
              bk[i] *= d;
            }
          }
          for (idx j = 0; j < k; ++j) {
            const T t = cj(acol(k)[j]);
            if (t == T(0)) {
              continue;
            }
            axpy(m, -t, bk, 1, b + static_cast<std::size_t>(j) * ldb, 1);
          }
          if (alpha != T(1)) {
            for (idx i = 0; i < m; ++i) {
              bk[i] *= alpha;
            }
          }
        }
      } else {
        for (idx k = 0; k < n; ++k) {
          T* bk = b + static_cast<std::size_t>(k) * ldb;
          if (!unit) {
            const T d = T(1) / cj(acol(k)[k]);
            for (idx i = 0; i < m; ++i) {
              bk[i] *= d;
            }
          }
          for (idx j = k + 1; j < n; ++j) {
            const T t = cj(acol(k)[j]);
            if (t == T(0)) {
              continue;
            }
            axpy(m, -t, bk, 1, b + static_cast<std::size_t>(j) * ldb, 1);
          }
          if (alpha != T(1)) {
            for (idx i = 0; i < m; ++i) {
              bk[i] *= alpha;
            }
          }
        }
      }
    }
  }
}

}  // namespace detail

/// Triangular matrix-matrix multiply (xTRMM):
///   B := alpha * op(A) * B  (Left)   or   B := alpha * B * op(A)  (Right).
/// Large triangular operands are tiled into MC x MC blocks: diagonal blocks
/// keep the reference kernel, off-diagonal contributions are general
/// products through the threaded gemm. Working in effective-triangle order
/// (eff_upper folds uplo with trans) means every block of B is finished
/// before any block that depends on its old value is overwritten.
template <Scalar T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, idx m, idx n, T alpha,
          const T* a, idx lda, T* b, idx ldb) noexcept {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (alpha == T(0)) {
    detail::scale_c(m, n, T(0), b, ldb);
    return;
  }
  const idx nb = detail::GemmBlocking<T>::mc();
  const idx an = side == Side::Left ? m : n;
  if (an <= nb) {
    detail::trmm_ref(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
    return;
  }
  const bool nt = trans == Trans::NoTrans;
  const bool eff_upper = (uplo == Uplo::Upper) == nt;
  const idx nblk = (an + nb - 1) / nb;
  if (side == Side::Left) {
    for (idx t = 0; t < nblk; ++t) {
      const idx bi = eff_upper ? t : nblk - 1 - t;
      const idx k0 = bi * nb;
      const idx kb = std::min<idx>(nb, m - k0);
      detail::trmm_ref(side, uplo, trans, diag, kb, n, alpha,
                       a + static_cast<std::size_t>(k0) * lda + k0, lda,
                       b + k0, ldb);
      if (eff_upper) {
        const idx rem = m - k0 - kb;
        if (rem > 0) {
          const T* blk =
              nt ? a + static_cast<std::size_t>(k0 + kb) * lda + k0
                 : a + static_cast<std::size_t>(k0) * lda + k0 + kb;
          gemm(nt ? Trans::NoTrans : trans, Trans::NoTrans, kb, n, rem, alpha,
               blk, lda, b + k0 + kb, ldb, T(1), b + k0, ldb);
        }
      } else if (k0 > 0) {
        const T* blk = nt ? a + k0 : a + static_cast<std::size_t>(k0) * lda;
        gemm(nt ? Trans::NoTrans : trans, Trans::NoTrans, kb, n, k0, alpha,
             blk, lda, b, ldb, T(1), b + k0, ldb);
      }
    }
  } else {
    for (idx t = 0; t < nblk; ++t) {
      const idx bi = eff_upper ? nblk - 1 - t : t;
      const idx j0 = bi * nb;
      const idx jb = std::min<idx>(nb, n - j0);
      detail::trmm_ref(side, uplo, trans, diag, m, jb, alpha,
                       a + static_cast<std::size_t>(j0) * lda + j0, lda,
                       b + static_cast<std::size_t>(j0) * ldb, ldb);
      if (eff_upper) {
        if (j0 > 0) {
          const T* blk = nt ? a + static_cast<std::size_t>(j0) * lda : a + j0;
          gemm(Trans::NoTrans, nt ? Trans::NoTrans : trans, m, jb, j0, alpha,
               b, ldb, blk, lda, T(1),
               b + static_cast<std::size_t>(j0) * ldb, ldb);
        }
      } else {
        const idx rem = n - j0 - jb;
        if (rem > 0) {
          const T* blk =
              nt ? a + static_cast<std::size_t>(j0) * lda + j0 + jb
                 : a + static_cast<std::size_t>(j0 + jb) * lda + j0;
          gemm(Trans::NoTrans, nt ? Trans::NoTrans : trans, m, jb, rem, alpha,
               b + static_cast<std::size_t>(j0 + jb) * ldb, ldb, blk, lda,
               T(1), b + static_cast<std::size_t>(j0) * ldb, ldb);
        }
      }
    }
  }
}

/// Triangular solve with multiple right-hand sides (xTRSM):
///   op(A) * X = alpha * B  (Left)   or   X * op(A) = alpha * B  (Right),
/// X overwriting B. Left-looking blocked form: each block of B first
/// subtracts the already-solved blocks through the threaded gemm (which
/// also applies alpha, as its beta), then finishes with a reference solve
/// against the diagonal block. One left-hand column is a trsv: the blocked
/// form has nothing to amortize over it.
template <Scalar T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, idx m, idx n, T alpha,
          const T* a, idx lda, T* b, idx ldb) noexcept {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (alpha == T(0)) {
    detail::scale_c(m, n, T(0), b, ldb);
    return;
  }
  if (side == Side::Left && n == 1) {
    if (alpha != T(1)) {
      scal(m, alpha, b, 1);
    }
    trsv(uplo, trans, diag, m, a, lda, b, 1);
    return;
  }
  const idx nb = detail::GemmBlocking<T>::mc();
  const idx an = side == Side::Left ? m : n;
  if (an <= nb) {
    detail::trsm_ref(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
    return;
  }
  const bool nt = trans == Trans::NoTrans;
  const bool eff_upper = (uplo == Uplo::Upper) == nt;
  const idx nblk = (an + nb - 1) / nb;
  if (side == Side::Left) {
    for (idx t = 0; t < nblk; ++t) {
      const idx bi = eff_upper ? nblk - 1 - t : t;
      const idx k0 = bi * nb;
      const idx kb = std::min<idx>(nb, m - k0);
      if (t > 0) {
        if (eff_upper) {
          const T* blk =
              nt ? a + static_cast<std::size_t>(k0 + kb) * lda + k0
                 : a + static_cast<std::size_t>(k0) * lda + k0 + kb;
          gemm(nt ? Trans::NoTrans : trans, Trans::NoTrans, kb, n,
               m - k0 - kb, T(-1), blk, lda, b + k0 + kb, ldb, alpha, b + k0,
               ldb);
        } else {
          const T* blk = nt ? a + k0 : a + static_cast<std::size_t>(k0) * lda;
          gemm(nt ? Trans::NoTrans : trans, Trans::NoTrans, kb, n, k0, T(-1),
               blk, lda, b, ldb, alpha, b + k0, ldb);
        }
      }
      detail::trsm_ref(side, uplo, trans, diag, kb, n, t == 0 ? alpha : T(1),
                       a + static_cast<std::size_t>(k0) * lda + k0, lda,
                       b + k0, ldb);
    }
  } else {
    for (idx t = 0; t < nblk; ++t) {
      const idx bi = eff_upper ? t : nblk - 1 - t;
      const idx j0 = bi * nb;
      const idx jb = std::min<idx>(nb, n - j0);
      if (t > 0) {
        if (eff_upper) {
          const T* blk = nt ? a + static_cast<std::size_t>(j0) * lda : a + j0;
          gemm(Trans::NoTrans, nt ? Trans::NoTrans : trans, m, jb, j0, T(-1),
               b, ldb, blk, lda, alpha,
               b + static_cast<std::size_t>(j0) * ldb, ldb);
        } else {
          const T* blk =
              nt ? a + static_cast<std::size_t>(j0) * lda + j0 + jb
                 : a + static_cast<std::size_t>(j0 + jb) * lda + j0;
          gemm(Trans::NoTrans, nt ? Trans::NoTrans : trans, m, jb,
               n - j0 - jb, T(-1),
               b + static_cast<std::size_t>(j0 + jb) * ldb, ldb, blk, lda,
               alpha, b + static_cast<std::size_t>(j0) * ldb, ldb);
        }
      }
      detail::trsm_ref(side, uplo, trans, diag, m, jb, t == 0 ? alpha : T(1),
                       a + static_cast<std::size_t>(j0) * lda + j0, lda,
                       b + static_cast<std::size_t>(j0) * ldb, ldb);
    }
  }
}

}  // namespace la::blas
