// lapack90/lapack/aux.hpp
//
// Small LAPACK auxiliary kernels shared across the factorization and
// eigensolver modules: xLACPY, xLASET, xLASCL, xLASWP, plus workspace
// helpers used by the F90 layer.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "lapack90/blas/level1.hpp"
#include "lapack90/core/precision.hpp"
#include "lapack90/core/types.hpp"

namespace la::lapack {

/// Which part of a matrix an operation touches (xLACPY / xLASET UPLO).
enum class Part : char {
  All = 'A',
  Upper = 'U',
  Lower = 'L',
};

/// Copy all or a triangle of A to B (xLACPY).
template <Scalar T>
void lacpy(Part part, idx m, idx n, const T* a, idx lda, T* b,
           idx ldb) noexcept {
  for (idx j = 0; j < n; ++j) {
    idx lo = 0;
    idx hi = m - 1;
    if (part == Part::Upper) {
      hi = std::min<idx>(j, m - 1);
    } else if (part == Part::Lower) {
      lo = std::min<idx>(j, m);
    }
    const T* ac = a + static_cast<std::size_t>(j) * lda;
    T* bc = b + static_cast<std::size_t>(j) * ldb;
    for (idx i = lo; i <= hi; ++i) {
      bc[i] = ac[i];
    }
  }
}

/// Set off-diagonal entries of (part of) A to `off` and the diagonal to
/// `diag` (xLASET).
template <Scalar T>
void laset(Part part, idx m, idx n, T off, T diag, T* a, idx lda) noexcept {
  for (idx j = 0; j < n; ++j) {
    idx lo = 0;
    idx hi = m - 1;
    if (part == Part::Upper) {
      hi = std::min<idx>(j - 1, m - 1);
    } else if (part == Part::Lower) {
      lo = j + 1;
    }
    T* ac = a + static_cast<std::size_t>(j) * lda;
    for (idx i = lo; i <= hi; ++i) {
      ac[i] = off;
    }
  }
  const idx k = std::min(m, n);
  for (idx i = 0; i < k; ++i) {
    a[static_cast<std::size_t>(i) * lda + i] = diag;
  }
}

/// Multiply A by cto/cfrom without over/underflow (xLASCL, full-matrix
/// case). Performs the scaling in safe steps.
template <Scalar T>
void lascl(idx m, idx n, real_t<T> cfrom, real_t<T> cto, T* a,
           idx lda) noexcept {
  using R = real_t<T>;
  if (m <= 0 || n <= 0 || cfrom == cto) {
    return;
  }
  const R smlnum = safmin<T>();
  const R bignum = R(1) / smlnum;
  R cfromc = cfrom;
  R ctoc = cto;
  bool done = false;
  while (!done) {
    const R cfrom1 = cfromc * smlnum;
    R mul;
    if (cfrom1 == cfromc) {
      // cfromc is inf or 0; a direct divide is as good as it gets.
      mul = ctoc / cfromc;
      done = true;
    } else {
      const R cto1 = ctoc / bignum;
      if (cto1 == ctoc) {
        mul = ctoc;
        done = true;
        cfromc = R(1);
      } else if (std::abs(cfrom1) > std::abs(ctoc) && ctoc != R(0)) {
        mul = smlnum;
        cfromc = cfrom1;
      } else if (std::abs(cto1) > std::abs(cfromc)) {
        mul = bignum;
        ctoc = cto1;
      } else {
        mul = ctoc / cfromc;
        done = true;
      }
    }
    for (idx j = 0; j < n; ++j) {
      T* col = a + static_cast<std::size_t>(j) * lda;
      for (idx i = 0; i < m; ++i) {
        col[i] *= mul;
      }
    }
  }
}

/// Apply a sequence of row interchanges to an m x n matrix (xLASWP):
/// rows k = k1..k2-1 are swapped with rows ipiv[k] (0-based pivot values).
template <Scalar T>
void laswp(idx n, T* a, idx lda, idx k1, idx k2, const idx* ipiv,
           idx incx = 1) noexcept {
  if (n <= 0) {
    return;
  }
  // Column-outer order: each column is contiguous, so the whole swap chain
  // for it runs inside one or two cache lines' worth of L1 traffic instead
  // of touching n distinct lines per row interchange (the dlaswp scheme).
  for (idx j = 0; j < n; ++j) {
    T* col = a + static_cast<std::size_t>(j) * lda;
    if (incx > 0) {
      for (idx k = k1; k < k2; ++k) {
        const idx p = ipiv[k];
        if (p != k) {
          std::swap(col[k], col[p]);
        }
      }
    } else {
      for (idx k = k2 - 1; k >= k1; --k) {
        const idx p = ipiv[k];
        if (p != k) {
          std::swap(col[k], col[p]);
        }
      }
    }
  }
}

/// Maximum |Re|+|Im| over a vector; helper used by equilibration and
/// refinement loops.
template <Scalar T>
[[nodiscard]] real_t<T> max_abs1(idx n, const T* x, idx incx = 1) noexcept {
  real_t<T> m(0);
  for (idx i = 0; i < n; ++i) {
    m = std::max(m, abs1(x[off(i, incx)]));
  }
  return m;
}

}  // namespace la::lapack
