// lapack90/batch/blas.hpp
//
// Batched Level-3 BLAS: many independent small GEMMs issued as one call.
// Entries are distributed by the batch scheduler (see schedule.hpp) and
// computed with serial arithmetic per entry, so results are bit-identical
// for every worker count.
//
// The interesting path is the tiny one. For matrices well below the
// packed-GEMM crossover, blas::gemm would fall back to the scalar triple
// loop — the packing machinery is not worth setting up for one small
// product. In a batch the economics flip: thousands of same-shaped
// products reuse the same per-worker pack buffers (hot in L1 after the
// first entry), so this path packs each entry once and drives the SIMD
// register-tile micro-kernel directly, skipping both the crossover
// fallback and the cache-blocking loop nest. Entries at or above the
// crossover go through the full blocked blas::gemm.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "lapack90/batch/descriptor.hpp"
#include "lapack90/batch/schedule.hpp"
#include "lapack90/blas/level3.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/core/workspace.hpp"

namespace la::batch {

namespace detail {

struct GemmEntryATag {};  // packed op(A) of one entry
struct GemmEntryBTag {};  // packed op(B) of one entry

/// One small product through the packed micro-kernel, no cache blocking:
/// pack op(A) (m x k) and op(B) (k x n) whole into the per-worker strip
/// buffers, then sweep the MR x NR register tiles. beta is applied by the
/// kernel (overwrite when beta == 0). Caller has handled the degenerate
/// m/n/k/alpha cases.
template <Scalar T>
void gemm_entry_direct(Trans ta, Trans tb, idx m, idx n, idx k, T alpha,
                       const T* a, idx lda, const T* b, idx ldb, T beta,
                       T* c, idx ldc) {
  using B = blas::detail::GemmBlocking<T>;
  const idx mstrips = (m + B::MR - 1) / B::MR;
  const idx nstrips = (n + B::NR - 1) / B::NR;
  // Strip s starts at s * k * MR (all strips before the last are full, the
  // last is packed unpadded), so the buffers are sized for rounded-up m/n.
  T* const ap = la::detail::work_buffer<T, GemmEntryATag>(
      static_cast<std::size_t>(mstrips) * B::MR * static_cast<std::size_t>(k));
  T* const bp = la::detail::work_buffer<T, GemmEntryBTag>(
      static_cast<std::size_t>(nstrips) * B::NR * static_cast<std::size_t>(k));
  blas::detail::pack_a(m, k, a, lda, ta, 0, 0, ap);
  blas::detail::pack_b(k, n, b, ldb, tb, 0, 0, bp);
  for (idx js = 0; js < nstrips; ++js) {
    const idx j = js * B::NR;
    const idx nr = std::min<idx>(B::NR, n - j);
    const T* bs = bp + static_cast<std::size_t>(js) * k * B::NR;
    for (idx is = 0; is < mstrips; ++is) {
      const idx i = is * B::MR;
      const idx mr = std::min<idx>(B::MR, m - i);
      blas::detail::micro_kernel(
          k, alpha, ap + static_cast<std::size_t>(is) * k * B::MR, mr, bs, nr,
          beta, c + static_cast<std::size_t>(j) * ldc + i, ldc);
    }
  }
}

/// Dispatch one entry: tiny products to the direct micro-kernel path,
/// everything else to the blocked gemm (which, inside a fanned-out batch
/// worker, runs serially — parallel_for does not nest). The path depends
/// only on the entry's shape, never on the worker, preserving bit-identity
/// across worker counts.
template <Scalar T>
void gemm_entry(Trans ta, Trans tb, idx m, idx n, idx k, T alpha, const T* a,
                idx lda, const T* b, idx ldb, T beta, T* c, idx ldc,
                std::int64_t crossover) {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (k <= 0 || alpha == T(0)) {
    blas::detail::scale_c(m, n, beta, c, ldc);
    return;
  }
  if (static_cast<std::int64_t>(m) * n * k < crossover) {
    gemm_entry_direct(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    blas::gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  }
}

}  // namespace detail

/// Batched GEMM over descriptors: C_i := alpha*op(A_i)*op(B_i) + beta*C_i
/// for every entry i. Entry shapes come from the descriptors
/// (m = rows(C_i), n = cols(C_i), k from op(A_i)); ragged batches are
/// fine. A and B entries are read-only despite the mutable descriptor
/// (the descriptor type is shared with the output operand).
template <Scalar T>
void gemm_batch(Trans ta, Trans tb, T alpha, const MatrixBatch<T>& a,
                const MatrixBatch<T>& b, T beta, const MatrixBatch<T>& c) {
  assert(a.count() == c.count() && b.count() == c.count());
  const idx maxdim = std::max({c.max_rows(), c.max_cols(), a.max_rows(),
                               a.max_cols()});
  const auto crossover = static_cast<std::int64_t>(
      ilaenv(EnvSpec::Crossover, EnvRoutine::gemm, 0));
  detail::for_each_entry(c.count(), maxdim, [&](idx i, int) {
    const idx m = c.rows(i);
    const idx n = c.cols(i);
    const idx k = ta == Trans::NoTrans ? a.cols(i) : a.rows(i);
    detail::gemm_entry(ta, tb, m, n, k, alpha, a.ptr(i), a.ld(i), b.ptr(i),
                       b.ld(i), beta, c.ptr(i), c.ld(i), crossover);
  });
}

/// Batched GEMM over raw strided storage (uniform shapes): entry i reads
/// op(a + i*stridea) (m x k) and op(b + i*strideb) (k x n) and updates
/// c + i*stridec (m x n). The layout cuBLAS/oneMKL call "strided batched".
template <Scalar T>
void gemm_batch_strided(Trans ta, Trans tb, idx m, idx n, idx k, T alpha,
                        const T* a, idx lda, std::ptrdiff_t stridea,
                        const T* b, idx ldb, std::ptrdiff_t strideb, T beta,
                        T* c, idx ldc, std::ptrdiff_t stridec, idx count) {
  const idx maxdim = std::max({m, n, k});
  const auto crossover = static_cast<std::int64_t>(
      ilaenv(EnvSpec::Crossover, EnvRoutine::gemm, 0));
  detail::for_each_entry(count, maxdim, [&](idx i, int) {
    detail::gemm_entry(ta, tb, m, n, k, alpha,
                       a + static_cast<std::ptrdiff_t>(i) * stridea, lda,
                       b + static_cast<std::ptrdiff_t>(i) * strideb, ldb,
                       beta, c + static_cast<std::ptrdiff_t>(i) * stridec,
                       ldc, crossover);
  });
}

}  // namespace la::batch
