// lapack90/batch/mixed.hpp
//
// Batched mixed-precision LU solve: la::mixed::gesv applied to every entry
// of a MatrixBatch. Many-small-problem workloads are where the demoted
// factorization pays most — the SIMD tiny-gemm micro-kernels process twice
// as many floats per vector — while each entry keeps the full working
// precision through compensated-residual refinement, with the per-entry
// ITER<0 fallback restoring the exact full-precision result when a system
// is too ill-conditioned (or too badly scaled) for the low precision.
//
// Scheduling, per-worker workspaces, bit-identity across worker counts,
// and the -100 injection protocol all follow batch/drivers.hpp.
#pragma once

#include <algorithm>
#include <cassert>

#include "lapack90/batch/descriptor.hpp"
#include "lapack90/batch/drivers.hpp"
#include "lapack90/batch/schedule.hpp"
#include "lapack90/core/error.hpp"
#include "lapack90/core/workspace.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/mixed/drivers.hpp"

namespace la::batch {

namespace detail {
struct WsBatchMixedPivotTag {};  // per-worker pivots for mixed_gesv
struct WsBatchMixedXTag {};      // per-worker solution buffer for mixed_gesv
}  // namespace detail

/// Batched mixed-precision LU solve (the batch analog of la::mixed::gesv,
/// DSGESV pattern per entry): refine each B_i to the full-precision
/// solution from a demoted factorization, falling back per entry. B_i is
/// overwritten by the solution; A_i is preserved on the mixed path and
/// overwritten by its full-precision LU factors when entry i fell back
/// (same post-state as gesv_batch for that entry).
///
/// `iters`, when non-null, receives each entry's ITER code (>= 0
/// refinement count, < 0 fallback reason — see mixed/drivers.hpp); a
/// fallback with a successful full-precision solve still reports
/// INFO == 0, so the aggregate return does not flag it. Entry INFO: -1 A_i
/// not square, -2 row mismatch, -100 workspace, > 0 singular U from the
/// full-precision factorization.
template <Scalar T>
  requires has_lower_precision_v<T>
idx mixed_gesv_batch(const MatrixBatch<T>& a, const MatrixBatch<T>& b,
                     idx* iters = nullptr, idx* infos = nullptr) {
  assert(a.count() == b.count());
  const idx maxdim = std::max({a.max_rows(), a.max_cols(), b.max_cols()});
  return detail::run(a.count(), maxdim, infos, [&](idx i) -> idx {
    if (iters != nullptr) {
      iters[i] = 0;
    }
    const idx n = a.rows(i);
    if (a.cols(i) != n) {
      return -1;
    }
    if (b.rows(i) != n) {
      return -2;
    }
    if (n == 0) {
      return 0;
    }
    if (alloc_should_fail()) {
      return -100;
    }
    const idx nrhs = b.cols(i);
    idx* const piv =
        la::detail::work_buffer<idx, detail::WsBatchMixedPivotTag>(
            static_cast<std::size_t>(n));
    T* const x = la::detail::work_buffer<T, detail::WsBatchMixedXTag>(
        static_cast<std::size_t>(n) * nrhs);
    idx iter = 0;
    const idx linfo =
        mixed::gesv(n, nrhs, a.ptr(i), a.ld(i), piv, b.ptr(i), b.ld(i), x, n,
                    iter);
    if (iters != nullptr) {
      iters[i] = iter;
    }
    if (linfo == 0) {
      lapack::lacpy(lapack::Part::All, n, nrhs, x, n, b.ptr(i), b.ld(i));
    }
    return linfo;
  });
}

/// Convenience spelling without the _batch suffix — the batch:: namespace
/// already disambiguates, and `batch::mixed_gesv` reads as the natural
/// batched counterpart of `mixed::gesv`.
template <Scalar T>
  requires has_lower_precision_v<T>
idx mixed_gesv(const MatrixBatch<T>& a, const MatrixBatch<T>& b,
               idx* iters = nullptr, idx* infos = nullptr) {
  return mixed_gesv_batch(a, b, iters, infos);
}

}  // namespace la::batch
