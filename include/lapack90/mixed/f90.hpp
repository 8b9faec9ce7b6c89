// lapack90/mixed/f90.hpp
//
// F90-style front-end for the mixed-precision drivers: Matrix/Vector
// overloads with the paper's optional-argument shape, extended with the
// ITER out-parameter of the DSGESV family, plus span-of-Matrix batch
// overloads over batch::mixed_gesv.
//
//   la::mixed::gesv(A, B);                       // B := X, refine or fall back
//   la::mixed::gesv(A, B, &iter, &info);         // both outputs requested
//   la::mixed::gesv(span(As), span(Bs), iters, infos);
//
// ERINFO protocol, hardened for the two-output contract: ITER reports the
// refinement path taken (>= 0 converged, < 0 fell back — see
// mixed/drivers.hpp), INFO reports success/failure only. A fallback whose
// full-precision solve succeeds is a SUCCESS: ITER < 0 with INFO == 0, and
// with no `info` sink nothing is thrown — ITER is never folded into the
// code passed to erinfo. Only genuine failures (singular/not-positive-
// definite at full precision, shape errors, workspace -100) terminate.
//
// B is overwritten by the solution (matching LA_GESV); A is preserved on
// the refined path and holds the full-precision factors after a fallback.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "lapack90/batch/mixed.hpp"
#include "lapack90/core/error.hpp"
#include "lapack90/core/matrix.hpp"
#include "lapack90/f90/batch.hpp"
#include "lapack90/f90/linear.hpp"
#include "lapack90/mixed/drivers.hpp"

namespace la::mixed {

namespace detail {

struct WsF90SolutionTag {};  // X workspace behind the B-overwriting wrappers

/// Thread-local solution workspace with the -100 injection probe (the
/// ALLOCATE ... STAT analog, same contract as f90::detail::allocate).
template <class T>
T* solution_workspace(std::size_t n, idx& linfo) {
  if (alloc_should_fail()) {
    linfo = -100;
    return nullptr;
  }
  return la::detail::work_buffer<T, WsF90SolutionTag>(n);
}

}  // namespace detail

/// LA_GESV_MIXED( A, B, ITER=iter, INFO=info ) — mixed-precision solve of
/// A X = B with B overwritten by X. INFO: -1 A not square; -2 row
/// mismatch; -100 workspace allocation failed; > 0 singular U at full
/// precision (after fallback). ITER as documented in mixed/drivers.hpp.
template <Scalar T>
  requires has_lower_precision_v<T>
void gesv(Matrix<T>& a, Matrix<T>& b, idx* iter = nullptr,
          idx* info = nullptr) {
  idx linfo = 0;
  idx liter = 0;
  const idx n = a.rows();
  const idx nrhs = b.cols();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -2;
  } else if (n > 0) {
    idx* const lpiv = f90::detail::pivot_workspace(n, linfo);
    T* x = nullptr;
    if (linfo == 0) {
      x = detail::solution_workspace<T>(static_cast<std::size_t>(n) * nrhs,
                                        linfo);
    }
    if (linfo == 0) {
      linfo = mixed::gesv(n, nrhs, a.data(), a.ld(), lpiv, b.data(), b.ld(),
                          x, n, liter);
      if (linfo == 0) {
        lapack::lacpy(lapack::Part::All, n, nrhs, x, n, b.data(), b.ld());
      }
    }
  }
  if (iter != nullptr) {
    *iter = liter;
  }
  erinfo(linfo, "LA_GESV_MIXED", info);
}

/// LA_GESV_MIXED with a single right-hand side vector.
template <Scalar T>
  requires has_lower_precision_v<T>
void gesv(Matrix<T>& a, Vector<T>& b, idx* iter = nullptr,
          idx* info = nullptr) {
  idx linfo = 0;
  idx liter = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.size() != n) {
    linfo = -2;
  } else if (n > 0) {
    idx* const lpiv = f90::detail::pivot_workspace(n, linfo);
    T* x = nullptr;
    if (linfo == 0) {
      x = detail::solution_workspace<T>(static_cast<std::size_t>(n), linfo);
    }
    if (linfo == 0) {
      linfo = mixed::gesv(n, idx{1}, a.data(), a.ld(), lpiv, b.data(),
                          std::max<idx>(n, 1), x, n, liter);
      if (linfo == 0) {
        lapack::lacpy(lapack::Part::All, n, idx{1}, x, n, b.data(),
                      std::max<idx>(n, 1));
      }
    }
  }
  if (iter != nullptr) {
    *iter = liter;
  }
  erinfo(linfo, "LA_GESV_MIXED", info);
}

/// LA_POSV_MIXED( A, B, UPLO=uplo, ITER=iter, INFO=info ) —
/// mixed-precision positive definite solve, B overwritten by X. INFO: -1 A
/// not square; -2 row mismatch; -100 workspace; > 0 not positive definite
/// at full precision (after fallback).
template <Scalar T>
  requires has_lower_precision_v<T>
void posv(Matrix<T>& a, Matrix<T>& b, Uplo uplo = Uplo::Upper,
          idx* iter = nullptr, idx* info = nullptr) {
  idx linfo = 0;
  idx liter = 0;
  const idx n = a.rows();
  const idx nrhs = b.cols();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -2;
  } else if (n > 0) {
    T* const x = detail::solution_workspace<T>(
        static_cast<std::size_t>(n) * nrhs, linfo);
    if (linfo == 0) {
      linfo = mixed::posv(uplo, n, nrhs, a.data(), a.ld(), b.data(), b.ld(),
                          x, n, liter);
      if (linfo == 0) {
        lapack::lacpy(lapack::Part::All, n, nrhs, x, n, b.data(), b.ld());
      }
    }
  }
  if (iter != nullptr) {
    *iter = liter;
  }
  erinfo(linfo, "LA_POSV_MIXED", info);
}

/// LA_POSV_MIXED with a single right-hand side vector.
template <Scalar T>
  requires has_lower_precision_v<T>
void posv(Matrix<T>& a, Vector<T>& b, Uplo uplo = Uplo::Upper,
          idx* iter = nullptr, idx* info = nullptr) {
  idx linfo = 0;
  idx liter = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.size() != n) {
    linfo = -2;
  } else if (n > 0) {
    T* const x =
        detail::solution_workspace<T>(static_cast<std::size_t>(n), linfo);
    if (linfo == 0) {
      linfo = mixed::posv(uplo, n, idx{1}, a.data(), a.ld(), b.data(),
                          std::max<idx>(n, 1), x, n, liter);
      if (linfo == 0) {
        lapack::lacpy(lapack::Part::All, n, idx{1}, x, n, b.data(),
                      std::max<idx>(n, 1));
      }
    }
  }
  if (iter != nullptr) {
    *iter = liter;
  }
  erinfo(linfo, "LA_POSV_MIXED", info);
}

/// LA_GESV_MIXED( A(:), B(:), ITERS=iters, INFOS=infos, INFO=info ) —
/// batched mixed-precision solve, one system per span element, riding
/// batch::mixed_gesv. Per-entry ITER codes land in `iters`, per-entry INFO
/// in `infos` (each optional; when non-empty, one element per entry). The
/// aggregate passed to erinfo follows f90::gesv's batch rule — 0 when every
/// entry's INFO is 0 (fallbacks included), -100 when the first failure was
/// workspace injection, else the 1-based first failing entry.
template <Scalar T>
  requires has_lower_precision_v<T>
void gesv(std::span<Matrix<T>> a, std::span<Matrix<T>> b,
          std::span<idx> iters = {}, std::span<idx> infos = {},
          idx* info = nullptr) {
  idx linfo = 0;
  if (b.size() != a.size()) {
    linfo = -2;
  } else if (!iters.empty() && iters.size() != a.size()) {
    linfo = -3;
  } else if (!infos.empty() && infos.size() != a.size()) {
    linfo = -4;
  } else if (!a.empty()) {
    std::vector<T*> aptr, bptr;
    std::vector<idx> adim, bdim;
    std::vector<idx> local;
    if (infos.empty()) {
      local.resize(a.size());
    }
    idx* const per = infos.empty() ? local.data() : infos.data();
    const auto ab = f90::detail::make_batch(a, aptr, adim);
    const auto bb = f90::detail::make_batch(b, bptr, bdim);
    linfo = f90::detail::aggregate_info(
        batch::mixed_gesv_batch(ab, bb, iters.empty() ? nullptr : iters.data(),
                                per),
        per);
  }
  erinfo(linfo, "LA_GESV_MIXED", info);
}

}  // namespace la::mixed
