// lapack90/lapack/symeig.hpp
//
// Symmetric / Hermitian eigensolvers — the substrate under LA_SYEV /
// LA_HEEV / LA_STEV / LA_SPEV / LA_SBEV:
//
//   sytrd / hetrd    Householder reduction to real symmetric tridiagonal
//   orgtr / ungtr    accumulate the reduction's unitary factor
//   steqr            implicit QL with Wilkinson shift (values + vectors)
//   sterf            values-only variant
//   syev / heev      dense drivers
//   stev             tridiagonal driver
//   spev / hpev      packed driver (dense scratch, same numerics)
//   sbev / hbev      band driver (dense scratch; see DESIGN.md)
//
// Eigenvalues are returned in ascending order, as LAPACK guarantees.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "lapack90/blas/level1.hpp"
#include "lapack90/blas/level2.hpp"
#include "lapack90/core/banded.hpp"
#include "lapack90/core/packed.hpp"
#include "lapack90/core/precision.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/blas/level3.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/lapack/norms.hpp"
#include "lapack90/lapack/qr.hpp"
#include "lapack90/lapack/reduce_aux.hpp"

namespace la::lapack {

namespace detail {

/// Unblocked tridiagonal reduction (xSYTD2 / xHETD2); `work` needs n
/// elements.
template <Scalar T>
void sytd2(Uplo uplo, idx n, T* a, idx lda, real_t<T>* d, real_t<T>* e,
           T* tau, T* work) noexcept {
  using R = real_t<T>;
  if (n == 0) {
    return;
  }
  auto at = [&](idx i, idx j) -> T& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  T* w = work;
  const T half = T(R(1) / R(2));

  if (uplo == Uplo::Upper) {
    if constexpr (is_complex_v<T>) {
      at(n - 1, n - 1) = T(real_part(at(n - 1, n - 1)));
    }
    for (idx i = n - 2; i >= 0; --i) {
      // Annihilate A(0:i-1, i+1); the reflector's unit entry sits at row i.
      T* col = a + static_cast<std::size_t>(i + 1) * lda;
      T taui;
      larfg(i + 1, col[i], col, 1, taui);
      e[i] = real_part(col[i]);
      if (taui != T(0)) {
        col[i] = T(1);
        // w = tau * A(0:i, 0:i) v.
        blas::hemv(Uplo::Upper, i + 1, taui, a, lda, col, 1, T(0), w, 1);
        const T alpha = -half * taui * blas::dotc(i + 1, w, 1, col, 1);
        blas::axpy(i + 1, alpha, col, 1, w, 1);
        blas::her2(Uplo::Upper, i + 1, T(-1), col, 1, w, 1, a, lda);
        col[i] = T(e[i]);
      } else if constexpr (is_complex_v<T>) {
        at(i, i) = T(real_part(at(i, i)));
      }
      d[i + 1] = real_part(at(i + 1, i + 1));
      at(i + 1, i + 1) = T(d[i + 1]);
      tau[i] = taui;
    }
    d[0] = real_part(at(0, 0));
  } else {
    if constexpr (is_complex_v<T>) {
      at(0, 0) = T(real_part(at(0, 0)));
    }
    for (idx i = 0; i < n - 1; ++i) {
      // Annihilate A(i+2:n-1, i); the unit entry sits at row i+1.
      T* col = a + static_cast<std::size_t>(i) * lda;
      T taui;
      larfg(n - i - 1, col[i + 1], col + std::min<idx>(i + 2, n - 1), 1,
            taui);
      e[i] = real_part(col[i + 1]);
      if (taui != T(0)) {
        col[i + 1] = T(1);
        blas::hemv(Uplo::Lower, n - i - 1, taui,
                   a + static_cast<std::size_t>(i + 1) * lda + i + 1, lda,
                   col + i + 1, 1, T(0), w, 1);
        const T alpha =
            -half * taui * blas::dotc(n - i - 1, w, 1, col + i + 1, 1);
        blas::axpy(n - i - 1, alpha, col + i + 1, 1, w, 1);
        blas::her2(Uplo::Lower, n - i - 1, T(-1), col + i + 1, 1, w, 1,
                   a + static_cast<std::size_t>(i + 1) * lda + i + 1, lda);
        col[i + 1] = T(e[i]);
      } else if constexpr (is_complex_v<T>) {
        at(i + 1, i + 1) = T(real_part(at(i + 1, i + 1)));
      }
      d[i] = real_part(at(i, i));
      at(i, i) = T(d[i]);
      tau[i] = taui;
    }
    d[n - 1] = real_part(at(n - 1, n - 1));
  }
}

}  // namespace detail

/// Reduce a symmetric/Hermitian matrix to real tridiagonal form by a
/// unitary similarity Q^H A Q = T (xSYTRD / xHETRD). d (n) and e (n-1)
/// receive the tridiagonal; tau the n-1 reflector scalars. The reflectors
/// remain in the `uplo` triangle of A. Blocked: latrd panels + a single
/// syr2k/her2k rank-2nb trailing update per panel (the Level-3 hot path);
/// sytd2 base case below the ilaenv crossover.
template <Scalar T>
void sytrd(Uplo uplo, idx n, T* a, idx lda, real_t<T>* d, real_t<T>* e,
           T* tau) {
  using R = real_t<T>;
  if (n == 0) {
    return;
  }
  const idx nb = std::max<idx>(block_size(EnvRoutine::sytrd, n), 1);
  T* const ws = la::detail::work_buffer<T, detail::WsSytrdTag>(
      static_cast<std::size_t>(n) * nb + static_cast<std::size_t>(n));
  T* const w = ws;                                      // n x nb panel W
  T* const work = ws + static_cast<std::size_t>(n) * nb;  // sytd2 scratch
  const idx nx = std::max(nb, ilaenv(EnvSpec::Crossover, EnvRoutine::sytrd, n));
  if (nb <= 1 || nb >= n || n <= nx) {
    detail::sytd2(uplo, n, a, lda, d, e, tau, work);
    return;
  }
  auto at = [&](idx i, idx j) -> T& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  const idx ldw = n;
  if (uplo == Uplo::Upper) {
    // Peel nb-column panels off the trailing end; kk columns remain for
    // the unblocked base case.
    const idx kk = n - ((n - nx + nb - 1) / nb) * nb;
    for (idx p = n - nb; p >= kk; p -= nb) {
      // Reduce columns p..p+nb-1 and form W for the leading block.
      detail::latrd(uplo, p + nb, nb, a, lda, e, tau, w, ldw);
      // A(0:p-1, 0:p-1) -= V W^H + W V^H.
      blas::her2k(Uplo::Upper, Trans::NoTrans, p, nb, T(-1),
                  a + static_cast<std::size_t>(p) * lda, lda, w, ldw, R(1), a,
                  lda);
      // Restore the superdiagonal entries overwritten by the unit entries.
      for (idx j = p; j < p + nb; ++j) {
        at(j - 1, j) = T(e[j - 1]);
        d[j] = real_part(at(j, j));
      }
    }
    detail::sytd2(uplo, kk, a, lda, d, e, tau, work);
  } else {
    idx p = 0;
    for (; p < n - nx; p += nb) {
      detail::latrd(uplo, n - p, nb, a + static_cast<std::size_t>(p) * lda + p,
                    lda, e + p, tau + p, w, ldw);
      // A(p+nb:, p+nb:) -= V W^H + W V^H.
      blas::her2k(Uplo::Lower, Trans::NoTrans, n - p - nb, nb, T(-1),
                  a + static_cast<std::size_t>(p) * lda + p + nb, lda, w + nb,
                  ldw, R(1),
                  a + static_cast<std::size_t>(p + nb) * lda + p + nb, lda);
      for (idx j = p; j < p + nb; ++j) {
        at(j + 1, j) = T(e[j]);
        d[j] = real_part(at(j, j));
      }
    }
    detail::sytd2(uplo, n - p, a + static_cast<std::size_t>(p) * lda + p, lda,
                  d + p, e + p, tau + p, work);
  }
}

/// Hermitian alias — the template above already handles both.
template <Scalar T>
void hetrd(Uplo uplo, idx n, T* a, idx lda, real_t<T>* d, real_t<T>* e,
           T* tau) {
  sytrd(uplo, n, a, lda, d, e, tau);
}

/// Accumulate the unitary factor of sytrd in place (xORGTR / xUNGTR):
/// on exit A holds the n x n Q with Q^H A_orig Q = T. The reflectors are
/// shifted onto the QR (Lower) or QL (Upper) layout and accumulated by
/// the blocked orgqr/orgql.
template <Scalar T>
void orgtr(Uplo uplo, idx n, T* a, idx lda, const T* tau) {
  if (n == 0) {
    return;
  }
  auto at = [&](idx i, idx j) -> T& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  if (uplo == Uplo::Lower) {
    // Q = [1 0; 0 Q1]: shift the reflectors one column right, then
    // accumulate Q1 with orgqr.
    for (idx j = n - 1; j >= 1; --j) {
      at(0, j) = T(0);
      for (idx i = j + 1; i < n; ++i) {
        at(i, j) = at(i, j - 1);
      }
    }
    at(0, 0) = T(1);
    for (idx i = 1; i < n; ++i) {
      at(i, 0) = T(0);
    }
    if (n > 1) {
      orgqr(n - 1, n - 1, n - 1, a + static_cast<std::size_t>(1) * lda + 1,
            lda, tau);
    }
  } else {
    // Q = [Q1 0; 0 1]: shift the reflectors one column left, then
    // accumulate Q1 with orgql (the reflectors end at the diagonal).
    for (idx j = 0; j < n - 1; ++j) {
      for (idx i = 0; i < j; ++i) {
        at(i, j) = at(i, j + 1);
      }
      at(n - 1, j) = T(0);
    }
    for (idx i = 0; i < n - 1; ++i) {
      at(i, n - 1) = T(0);
    }
    at(n - 1, n - 1) = T(1);
    if (n > 1) {
      orgql(n - 1, n - 1, n - 1, a, lda, tau);
    }
  }
}

/// Unitary alias for complex types.
template <Scalar T>
void ungtr(Uplo uplo, idx n, T* a, idx lda, const T* tau) {
  orgtr(uplo, n, a, lda, tau);
}

namespace detail {

/// Core implicit-QL iteration with Wilkinson shift on a real symmetric
/// tridiagonal (d, e). When Z != nullptr the rotations are accumulated
/// into its columns (Z may be real or complex). Eigenvalues are sorted
/// ascending on exit. Returns 0, or l+1 if off-diagonal l failed to
/// converge in 50 sweeps.
template <RealScalar R, class Z>
idx steqr_impl(idx n, R* d, R* e_in, Z* z, idx ldz) {
  constexpr int kMaxIter = 50;
  const R epsv = eps<R>();
  // The sweep uses e[m] with m up to n-1 as deflation scratch (the EISPACK
  // convention); work on a length-n copy so callers can pass n-1 entries.
  std::vector<R> ework(static_cast<std::size_t>(n), R(0));
  if (n > 1) {
    std::copy(e_in, e_in + (n - 1), ework.begin());
  }
  R* e = ework.data();
  for (idx l = 0; l < n; ++l) {
    int iter = 0;
    while (true) {
      // Look for a negligible off-diagonal splitting the problem.
      idx m = l;
      while (m < n - 1) {
        const R dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= epsv * dd) {
          break;
        }
        ++m;
      }
      if (m == l) {
        break;
      }
      if (iter++ == kMaxIter) {
        return l + 1;
      }
      // Wilkinson shift from the leading 2x2.
      R g = (d[l + 1] - d[l]) / (R(2) * e[l]);
      R r = lapy2(g, R(1));
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      R s(1);
      R c(1);
      R p(0);
      bool underflow = false;
      for (idx i = m - 1; i >= l; --i) {
        R f = s * e[i];
        const R b = c * e[i];
        r = lapy2(f, g);
        e[i + 1] = r;
        if (r == R(0)) {
          // Recover from underflow: split and restart.
          d[i + 1] -= p;
          e[m] = R(0);
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + R(2) * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        if (z != nullptr) {
          // Accumulate the rotation into columns i and i+1 of Z.
          Z* zi = z + static_cast<std::size_t>(i) * ldz;
          Z* zi1 = z + static_cast<std::size_t>(i + 1) * ldz;
          for (idx k = 0; k < n; ++k) {
            const Z f2 = zi1[k];
            zi1[k] = Z(s) * zi[k] + Z(c) * f2;
            zi[k] = Z(c) * zi[k] - Z(s) * f2;
          }
        }
      }
      if (underflow) {
        continue;
      }
      d[l] -= p;
      e[l] = g;
      e[m] = R(0);
    }
  }
  // Sort ascending, permuting vectors along (selection sort, as xSTEQR).
  for (idx i = 0; i < n - 1; ++i) {
    idx k = i;
    for (idx j = i + 1; j < n; ++j) {
      if (d[j] < d[k]) {
        k = j;
      }
    }
    if (k != i) {
      std::swap(d[i], d[k]);
      if (z != nullptr) {
        blas::swap(n, z + static_cast<std::size_t>(i) * ldz, 1,
                   z + static_cast<std::size_t>(k) * ldz, 1);
      }
    }
  }
  return 0;
}

}  // namespace detail

/// Eigenvalues (ascending) and optional eigenvectors of a real symmetric
/// tridiagonal matrix (xSTEQR). With job == Job::Vec, z (n x n) must hold
/// on entry the matrix used to transform to tridiagonal form (identity for
/// a bare tridiagonal problem); Z may be complex when accumulating the
/// unitary factor of hetrd.
template <RealScalar R, Scalar Z>
idx steqr(Job job, idx n, R* d, R* e, Z* z, idx ldz) {
  if (n == 0) {
    return 0;
  }
  return detail::steqr_impl(n, d, e, job == Job::Vec ? z : nullptr, ldz);
}

/// Eigenvalues only of a real symmetric tridiagonal matrix (xSTERF).
template <RealScalar R>
idx sterf(idx n, R* d, R* e) {
  if (n == 0) {
    return 0;
  }
  return detail::steqr_impl<R, R>(n, d, e, nullptr, 1);
}

/// Driver: all eigenvalues and optionally eigenvectors of a symmetric or
/// Hermitian matrix (xSYEV / xHEEV). On exit with Job::Vec, A holds the
/// orthonormal eigenvectors; w the ascending eigenvalues.
template <Scalar T>
idx syev(Job jobz, Uplo uplo, idx n, T* a, idx lda, real_t<T>* w) {
  using R = real_t<T>;
  if (n == 0) {
    return 0;
  }
  std::vector<R> e(static_cast<std::size_t>(std::max<idx>(n - 1, 1)));
  std::vector<T> tau(static_cast<std::size_t>(std::max<idx>(n - 1, 1)));
  sytrd(uplo, n, a, lda, w, e.data(), tau.data());
  if (jobz == Job::Vec) {
    orgtr(uplo, n, a, lda, tau.data());
    return steqr(Job::Vec, n, w, e.data(), a, lda);
  }
  return sterf(n, w, e.data());
}

/// Hermitian alias.
template <Scalar T>
idx heev(Job jobz, Uplo uplo, idx n, T* a, idx lda, real_t<T>* w) {
  return syev(jobz, uplo, n, a, lda, w);
}

/// Driver: symmetric tridiagonal eigenproblem (xSTEV). z is n x n when
/// jobz == Vec.
template <RealScalar R>
idx stev(Job jobz, idx n, R* d, R* e, R* z, idx ldz) {
  if (n == 0) {
    return 0;
  }
  if (jobz == Job::Vec) {
    laset(Part::All, n, n, R(0), R(1), z, ldz);
    return steqr(Job::Vec, n, d, e, z, ldz);
  }
  return sterf(n, d, e);
}

/// Driver: packed symmetric/Hermitian eigenproblem (xSPEV / xHPEV). The
/// packed triangle is expanded to a dense scratch (same numerics as the
/// native packed reduction; see DESIGN.md substitutions). z is n x n when
/// jobz == Vec.
template <Scalar T>
idx spev(Job jobz, Uplo uplo, idx n, T* ap, real_t<T>* w, T* z, idx ldz) {
  if (n == 0) {
    return 0;
  }
  std::vector<T> a(static_cast<std::size_t>(n) * n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      const bool stored = uplo == Uplo::Upper ? i <= j : i >= j;
      if (stored) {
        a[static_cast<std::size_t>(j) * n + i] =
            ap[packed_index(uplo, n, i, j)];
      }
    }
  }
  const idx info = syev(jobz, uplo, n, a.data(), n, w);
  if (jobz == Job::Vec) {
    lacpy(Part::All, n, n, a.data(), n, z, ldz);
  }
  // Overwrite AP with the tridiagonal-reduction byproduct, as xSPEV does
  // (contents become unspecified scratch; we store the factored triangle).
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      const bool stored = uplo == Uplo::Upper ? i <= j : i >= j;
      if (stored) {
        ap[packed_index(uplo, n, i, j)] =
            a[static_cast<std::size_t>(j) * n + i];
      }
    }
  }
  return info;
}

/// Packed Hermitian alias.
template <Scalar T>
idx hpev(Job jobz, Uplo uplo, idx n, T* ap, real_t<T>* w, T* z, idx ldz) {
  return spev(jobz, uplo, n, ap, w, z, ldz);
}

/// Driver: band symmetric/Hermitian eigenproblem (xSBEV / xHBEV). The band
/// is expanded to a dense scratch (documented substitution for the xSBTRD
/// rotation-chasing reduction; identical spectra). z is n x n when
/// jobz == Vec.
template <Scalar T>
idx sbev(Job jobz, Uplo uplo, idx n, idx kd, T* ab, idx ldab, real_t<T>* w,
         T* z, idx ldz) {
  if (n == 0) {
    return 0;
  }
  std::vector<T> a(static_cast<std::size_t>(n) * n);
  for (idx j = 0; j < n; ++j) {
    if (uplo == Uplo::Upper) {
      for (idx i = std::max<idx>(0, j - kd); i <= j; ++i) {
        a[static_cast<std::size_t>(j) * n + i] =
            ab[static_cast<std::size_t>(j) * ldab + (kd + i - j)];
      }
    } else {
      for (idx i = j; i <= std::min<idx>(n - 1, j + kd); ++i) {
        a[static_cast<std::size_t>(j) * n + i] =
            ab[static_cast<std::size_t>(j) * ldab + (i - j)];
      }
    }
  }
  const idx info = syev(jobz, uplo, n, a.data(), n, w);
  if (jobz == Job::Vec) {
    lacpy(Part::All, n, n, a.data(), n, z, ldz);
  }
  return info;
}

/// Band Hermitian alias.
template <Scalar T>
idx hbev(Job jobz, Uplo uplo, idx n, idx kd, T* ab, idx ldab, real_t<T>* w,
         T* z, idx ldz) {
  return sbev(jobz, uplo, n, kd, ab, ldab, w, z, ldz);
}

}  // namespace la::lapack
