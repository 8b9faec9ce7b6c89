// lapack90/batch/drivers.hpp
//
// Batched LAPACK drivers: solve/factor every entry of a MatrixBatch in one
// call. The batch layer schedules and the library computes: entry i is
// exactly the la::lapack driver call on that entry (gesv, potrf, posv,
// geqrf, gels), so a batched result is bit-identical to the direct call
// by construction. Scheduling follows schedule.hpp (entries fan out
// across workers below the BatchGrain threshold, run serial-outer with
// threaded Level-3 inside above it); each entry is computed by exactly
// one worker with serial arithmetic, so results are bit-identical for
// every worker count.
//
// The drivers take their scratch from per-thread, grow-only buffers
// (la::detail::work_buffer, core/workspace.hpp), so the steady-state
// batch loop performs no heap allocation. Each entry that takes workspace
// makes exactly one pass through the alloc_should_fail() injection hook
// before the call: an injected failure marks that entry INFO = -100 and
// leaves its data untouched, exactly like the F90 wrappers' ALLOCATE ...
// STAT path.
//
// Error protocol: per-entry INFO in infos[i] (when infos != nullptr) with
// the usual meanings (negative = bad entry shape, positive = numerical
// failure, -100 = workspace). The return value aggregates: 0 when every
// entry succeeded, else the 1-based index of the first failing entry —
// deterministic regardless of which worker saw the failure first.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>

#include "lapack90/batch/descriptor.hpp"
#include "lapack90/batch/schedule.hpp"
#include "lapack90/core/error.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/core/workspace.hpp"
#include "lapack90/lapack/cholesky.hpp"
#include "lapack90/lapack/lls.hpp"
#include "lapack90/lapack/lu.hpp"
#include "lapack90/lapack/qr.hpp"

namespace la::batch {

namespace detail {

struct WsBatchPivotTag {};  // per-worker pivots of gesv_batch

/// Record entry `i` (0-based) as failed; keeps the smallest index so the
/// aggregate INFO does not depend on worker interleaving.
inline void note_failure(std::atomic<idx>& first, idx i) noexcept {
  idx cur = first.load(std::memory_order_relaxed);
  while (i + 1 < cur && !first.compare_exchange_weak(
                            cur, i + 1, std::memory_order_relaxed)) {
  }
}

/// Shared driver skeleton: schedule the entries, collect per-entry INFO,
/// aggregate the first failure. `body(i)` returns the entry's INFO.
template <class F>
idx run(idx count, idx maxdim, idx* infos, F&& body) {
  std::atomic<idx> first{count + 1};
  for_each_entry(count, maxdim, [&](idx i, int) {
    const idx linfo = body(i);
    if (infos != nullptr) {
      infos[i] = linfo;
    }
    if (linfo != 0) {
      note_failure(first, i);
    }
  });
  const idx f = first.load(std::memory_order_relaxed);
  return f == count + 1 ? 0 : f;
}

}  // namespace detail

/// Batched LU solve (xGESV): A_i X_i = B_i, A_i overwritten by its LU
/// factors, B_i by X_i. Entry INFO: -1 A_i not square, -2 row mismatch,
/// -100 workspace, > 0 singular U.
template <Scalar T>
idx gesv_batch(const MatrixBatch<T>& a, const MatrixBatch<T>& b,
               idx* infos = nullptr) {
  assert(a.count() == b.count());
  const idx maxdim = std::max({a.max_rows(), a.max_cols(), b.max_cols()});
  return detail::run(a.count(), maxdim, infos, [&](idx i) -> idx {
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
    idx* const piv = la::detail::work_buffer<idx, detail::WsBatchPivotTag>(
        static_cast<std::size_t>(n));
    return lapack::gesv(n, b.cols(i), a.ptr(i), a.ld(i), piv, b.ptr(i),
                        b.ld(i));
  });
}

/// Batched Cholesky factorization (xPOTRF): A_i := L_i L_i^H (or
/// U_i^H U_i). Allocation-free per entry. Entry INFO: -1 not square,
/// > 0 not positive definite.
template <Scalar T>
idx potrf_batch(Uplo uplo, const MatrixBatch<T>& a, idx* infos = nullptr) {
  const idx maxdim = std::max(a.max_rows(), a.max_cols());
  return detail::run(a.count(), maxdim, infos, [&](idx i) -> idx {
    const idx n = a.rows(i);
    if (a.cols(i) != n) {
      return -1;
    }
    return lapack::potrf(uplo, n, a.ptr(i), a.ld(i));
  });
}

/// Batched SPD/HPD solve (xPOSV): Cholesky-factor A_i and solve for B_i.
/// Allocation-free per entry. Entry INFO: -1 A_i not square, -2 row
/// mismatch, > 0 not positive definite.
template <Scalar T>
idx posv_batch(Uplo uplo, const MatrixBatch<T>& a, const MatrixBatch<T>& b,
               idx* infos = nullptr) {
  assert(a.count() == b.count());
  const idx maxdim = std::max({a.max_rows(), a.max_cols(), b.max_cols()});
  return detail::run(a.count(), maxdim, infos, [&](idx i) -> idx {
    const idx n = a.rows(i);
    if (a.cols(i) != n) {
      return -1;
    }
    if (b.rows(i) != n) {
      return -2;
    }
    return lapack::posv(uplo, n, b.cols(i), a.ptr(i), a.ld(i), b.ptr(i),
                        b.ld(i));
  });
}

/// Batched QR factorization (xGEQRF): entry i is lapack::geqrf on A_i,
/// reflectors below the diagonal, scalars in tau entry i (length >=
/// min(rows, cols); build the tau batch with MatrixBatch factories over
/// k x 1 entries). Entry INFO: -2 tau entry too short, -100 workspace.
template <Scalar T>
idx geqrf_batch(const MatrixBatch<T>& a, const MatrixBatch<T>& tau,
                idx* infos = nullptr) {
  assert(a.count() == tau.count());
  const idx maxdim = std::max(a.max_rows(), a.max_cols());
  return detail::run(a.count(), maxdim, infos, [&](idx i) -> idx {
    const idx m = a.rows(i);
    const idx n = a.cols(i);
    const idx k = std::min(m, n);
    if (tau.rows(i) < k) {
      return -2;
    }
    if (k == 0) {
      return 0;
    }
    if (alloc_should_fail()) {
      return -100;
    }
    return lapack::geqrf(m, n, a.ptr(i), a.ld(i), tau.ptr(i));
  });
}

/// Batched least squares (xGELS): entry i is lapack::gels on (A_i, B_i),
/// minimizing ||A_i X_i - B_i|| (or the minimum-norm / transposed
/// variants). B entry i is max(m, n) x nrhs: rows 0..m-1 hold the
/// right-hand sides on entry, rows 0..n-1 the solution on exit (NoTrans).
/// Entry INFO: -2 B_i too short, -100 workspace, > 0 rank deficient.
template <Scalar T>
idx gels_batch(Trans trans, const MatrixBatch<T>& a, const MatrixBatch<T>& b,
               idx* infos = nullptr) {
  assert(a.count() == b.count());
  const idx maxdim = std::max({a.max_rows(), a.max_cols(), b.max_cols()});
  return detail::run(a.count(), maxdim, infos, [&](idx i) -> idx {
    const idx m = a.rows(i);
    const idx n = a.cols(i);
    const idx nrhs = b.cols(i);
    if (b.rows(i) < std::max(m, n)) {
      return -2;
    }
    // An empty system takes no workspace: gels only zeroes its B.
    if (std::min(m, n) > 0 && nrhs > 0 && alloc_should_fail()) {
      return -100;
    }
    return lapack::gels(trans, m, n, nrhs, a.ptr(i), a.ld(i), b.ptr(i),
                        b.ld(i));
  });
}

}  // namespace la::batch
