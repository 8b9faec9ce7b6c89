// lapack90/lapack/svd.hpp
//
// Singular value decomposition — the substrate under LA_GESVD / LA_GELSS /
// LA_GGSVD:
//
//   gebrd    Householder bidiagonalization (upper for m >= n, lower else)
//   orgbr    accumulate the left (Q) or right (P^H) factor
//   las2     singular values of a 2x2 upper-triangular block
//   bdsqr    implicit-shift QR on the bidiagonal (Golub-Kahan step with
//            Demmel-Kahan zero-shift fallback)
//   gesvd    driver: A = U diag(s) V^H with s descending
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "lapack90/blas/level1.hpp"
#include "lapack90/blas/level3.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/core/precision.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/lapack/qr.hpp"
#include "lapack90/lapack/reduce_aux.hpp"

namespace la::lapack {

namespace detail {

/// Unblocked bidiagonalization (xGEBD2); `work` needs max(m, n) elements.
template <Scalar T>
void gebd2(idx m, idx n, T* a, idx lda, real_t<T>* d, real_t<T>* e, T* tauq,
           T* taup, T* work) noexcept {
  const idx k = std::min(m, n);
  if (k == 0) {
    return;
  }
  auto at = [&](idx i, idx j) -> T& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  if (m >= n) {
    for (idx i = 0; i < n; ++i) {
      // Column reflector: zero A(i+1:m-1, i).
      T* col = a + static_cast<std::size_t>(i) * lda;
      larfg(m - i, col[i], col + std::min<idx>(i + 1, m - 1), 1, tauq[i]);
      d[i] = real_part(col[i]);
      col[i] = T(1);
      if (i < n - 1) {
        larf(Side::Left, m - i, n - i - 1, col + i, 1, conj_if(tauq[i]),
             a + static_cast<std::size_t>(i + 1) * lda + i, lda, work);
      }
      col[i] = T(d[i]);
      if (i < n - 1) {
        // Row reflector: zero A(i, i+2:n-1).
        lacgv(n - i - 1, a + static_cast<std::size_t>(i + 1) * lda + i, lda);
        T& aii1 = at(i, i + 1);
        larfg(n - i - 1, aii1,
              a + static_cast<std::size_t>(std::min<idx>(i + 2, n - 1)) * lda +
                  i,
              lda, taup[i]);
        e[i] = real_part(aii1);
        aii1 = T(1);
        larf(Side::Right, m - i - 1, n - i - 1,
             a + static_cast<std::size_t>(i + 1) * lda + i, lda, taup[i],
             a + static_cast<std::size_t>(i + 1) * lda + i + 1, lda, work);
        lacgv(n - i - 1, a + static_cast<std::size_t>(i + 1) * lda + i, lda);
        aii1 = T(e[i]);
      } else {
        taup[i] = T(0);
      }
    }
  } else {
    for (idx i = 0; i < m; ++i) {
      // Row reflector: zero A(i, i+1:n-1).
      lacgv(n - i, a + static_cast<std::size_t>(i) * lda + i, lda);
      T& aii = at(i, i);
      larfg(n - i, aii,
            a + static_cast<std::size_t>(std::min<idx>(i + 1, n - 1)) * lda +
                i,
            lda, taup[i]);
      d[i] = real_part(aii);
      aii = T(1);
      if (i < m - 1) {
        larf(Side::Right, m - i - 1, n - i,
             a + static_cast<std::size_t>(i) * lda + i, lda, taup[i],
             a + static_cast<std::size_t>(i) * lda + i + 1, lda, work);
      }
      lacgv(n - i, a + static_cast<std::size_t>(i) * lda + i, lda);
      aii = T(d[i]);
      if (i < m - 1) {
        // Column reflector: zero A(i+2:m-1, i).
        T* col = a + static_cast<std::size_t>(i) * lda;
        larfg(m - i - 1, col[i + 1], col + std::min<idx>(i + 2, m - 1), 1,
              tauq[i]);
        e[i] = real_part(col[i + 1]);
        col[i + 1] = T(1);
        larf(Side::Left, m - i - 1, n - i - 1, col + i + 1, 1,
             conj_if(tauq[i]),
             a + static_cast<std::size_t>(i + 1) * lda + i + 1, lda, work);
        col[i + 1] = T(e[i]);
      } else {
        tauq[i] = T(0);
      }
    }
  }
}

}  // namespace detail

/// Bidiagonalize an m x n matrix (xGEBRD): Q^H A P = B with B upper
/// bidiagonal for m >= n, lower bidiagonal otherwise. d gets min(m,n)
/// diagonal entries, e the min(m,n)-1 off-diagonal ones (both real);
/// tauq/taup the reflector scalars (min(m,n) each). Blocked: labrd panels
/// + two gemm rank-nb trailing updates per panel (the Level-3 hot path);
/// gebd2 base case below the ilaenv crossover.
template <Scalar T>
void gebrd(idx m, idx n, T* a, idx lda, real_t<T>* d, real_t<T>* e, T* tauq,
           T* taup) {
  const idx minmn = std::min(m, n);
  if (minmn == 0) {
    return;
  }
  const idx nb = std::max<idx>(block_size(EnvRoutine::gebrd, minmn), 1);
  // Workspace: X (m x nb) + Y (n x nb), the concatenation scratch for the
  // merged trailing update (S: m x 2nb, Dm: 2nb x n), and the unblocked
  // kernel's max(m, n)-vector.
  T* const ws = la::detail::work_buffer<T, detail::WsGebrdTag>(
      3 * static_cast<std::size_t>(m + n) * nb +
      static_cast<std::size_t>(std::max<idx>(std::max(m, n), 1)));
  T* const x = ws;
  T* const y = ws + static_cast<std::size_t>(m) * nb;
  T* const cat = y + static_cast<std::size_t>(n) * nb;
  T* const work = cat + 2 * static_cast<std::size_t>(m + n) * nb;
  const idx ldx = m;
  const idx ldy = n;
  auto at = [&](idx i, idx j) -> T& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  idx i = 0;
  if (nb > 1 && nb < minmn) {
    const idx nx =
        std::max(nb, ilaenv(EnvSpec::Crossover, EnvRoutine::gebrd, minmn));
    for (; i < minmn - nx; i += nb) {
      // Panel: reduce rows/columns i..i+nb-1, forming X and Y.
      detail::labrd(m - i, n - i, nb, a + static_cast<std::size_t>(i) * lda + i,
                    lda, d + i, e + i, tauq + i, taup + i, x, ldx, y, ldy);
      // Trailing update A22 -= V2 Y2^H + X2 U2 (U rows already conjugated
      // by labrd for complex types). The two rank-nb products are merged
      // into ONE gemm of depth 2nb over S = [V2 X2] and Dm = [Y2^H ; U2],
      // so the trailing matrix — the bandwidth carrier — is read and
      // written once per panel instead of twice.
      const idx m2 = m - i - nb;
      const idx n2 = n - i - nb;
      const idx k2 = 2 * nb;
      T* const s = cat;                                     // m2 x 2nb
      T* const dm = cat + static_cast<std::size_t>(m2) * k2;  // 2nb x n2
      for (idx l = 0; l < nb; ++l) {
        const T* v2 = a + static_cast<std::size_t>(i + l) * lda + i + nb;
        const T* x2 = x + static_cast<std::size_t>(l) * ldx + nb;
        T* s1 = s + static_cast<std::size_t>(l) * m2;
        T* s2 = s + static_cast<std::size_t>(nb + l) * m2;
        for (idx r = 0; r < m2; ++r) {
          s1[r] = v2[r];
          s2[r] = x2[r];
        }
      }
      for (idx j = 0; j < n2; ++j) {
        const T* y2 = y + nb + j;                    // row j of Y2 (ldy)
        const T* u2 = a + static_cast<std::size_t>(i + nb + j) * lda + i;
        T* dcol = dm + static_cast<std::size_t>(j) * k2;
        for (idx l = 0; l < nb; ++l) {
          dcol[l] = conj_if(y2[static_cast<std::size_t>(l) * ldy]);
          dcol[nb + l] = u2[l];
        }
      }
      blas::gemm(Trans::NoTrans, Trans::NoTrans, m2, n2, k2, T(-1), s, m2,
                 dm, k2, T(1),
                 a + static_cast<std::size_t>(i + nb) * lda + i + nb, lda);
      // Restore the diagonal/off-diagonal entries overwritten by the unit
      // entries of the panel reflectors.
      for (idx j = i; j < i + nb; ++j) {
        at(j, j) = T(d[j]);
        if (m >= n) {
          at(j, j + 1) = T(e[j]);
        } else {
          at(j + 1, j) = T(e[j]);
        }
      }
    }
  }
  detail::gebd2(m - i, n - i, a + static_cast<std::size_t>(i) * lda + i, lda,
                d + i, e + i, tauq + i, taup + i, work);
}

/// Which factor orgbr accumulates.
enum class BrVect : char {
  Q = 'Q',  ///< the left factor Q of the bidiagonalization
  P = 'P',  ///< the right factor P^H
};

/// Accumulate a bidiagonalization factor (xORGBR / xUNGBR). A holds gebrd
/// output; `k` is the other dimension of the matrix that was reduced
/// (n for vect=Q, m for vect=P — matching the xORGBR K argument).
/// On exit A is mrows x ncols with the requested factor.
template <Scalar T>
void orgbr(BrVect vect, idx mrows, idx ncols, idx k, T* a, idx lda,
           const T* tau) {
  if (mrows == 0 || ncols == 0) {
    return;
  }
  auto at = [&](idx i, idx j) -> T& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  if (vect == BrVect::Q) {
    if (mrows >= k) {
      orgqr(mrows, ncols, std::min(mrows, k), a, lda, tau);
    } else {
      // m < k: column reflectors start one row below the diagonal; shift
      // them right by one column and embed in [1 0; 0 Q1].
      for (idx j = mrows - 1; j >= 1; --j) {
        at(0, j) = T(0);
        for (idx i = j + 1; i < mrows; ++i) {
          at(i, j) = at(i, j - 1);
        }
      }
      at(0, 0) = T(1);
      for (idx i = 1; i < mrows; ++i) {
        at(i, 0) = T(0);
      }
      if (mrows > 1) {
        orgqr(mrows - 1, mrows - 1, mrows - 1,
              a + static_cast<std::size_t>(1) * lda + 1, lda, tau);
      }
    }
  } else {
    if (k < ncols) {
      // Row reflectors align with LQ reflectors directly.
      orglq(mrows, ncols, std::min(mrows, k), a, lda, tau);
    } else {
      // k >= n: row reflectors start one column right of the diagonal;
      // shift them down by one row and embed in [1 0; 0 P1^H].
      at(0, 0) = T(1);
      for (idx i = 1; i < ncols; ++i) {
        at(i, 0) = T(0);
      }
      for (idx j = 1; j < ncols; ++j) {
        for (idx i = j - 1; i >= 1; --i) {
          at(i, j) = at(i - 1, j);
        }
        at(0, j) = T(0);
      }
      if (ncols > 1) {
        orglq(ncols - 1, ncols - 1, ncols - 1,
              a + static_cast<std::size_t>(1) * lda + 1, lda, tau);
      }
    }
  }
}

/// Singular values of the 2x2 upper-triangular [f g; 0 h] (xLAS2):
/// ssmin <= ssmax, computed without over/underflow.
template <RealScalar R>
void las2(R f, R g, R h, R& ssmin, R& ssmax) noexcept {
  const R fa = std::abs(f);
  const R ga = std::abs(g);
  const R ha = std::abs(h);
  const R fhmn = std::min(fa, ha);
  const R fhmx = std::max(fa, ha);
  if (fhmn == R(0)) {
    ssmin = R(0);
    if (fhmx == R(0)) {
      ssmax = ga;
    } else {
      const R mn = std::min(fhmx, ga);
      const R mx = std::max(fhmx, ga);
      const R q = mn / mx;
      ssmax = mx * std::sqrt(R(1) + q * q);
    }
    return;
  }
  if (ga < fhmx) {
    const R as = R(1) + fhmn / fhmx;
    const R at = (fhmx - fhmn) / fhmx;
    const R au = (ga / fhmx) * (ga / fhmx);
    const R c = R(2) / (std::sqrt(as * as + au) + std::sqrt(at * at + au));
    ssmin = fhmn * c;
    ssmax = fhmx / c;
  } else {
    const R au = fhmx / ga;
    if (au == R(0)) {
      // ga overflowsly large: avoid fhmn*fhmx/ga underflow pitfalls.
      ssmin = (fhmn * fhmx) / ga;
      ssmax = ga;
    } else {
      const R as = R(1) + fhmn / fhmx;
      const R at = (fhmx - fhmn) / fhmx;
      const R c = R(1) / (std::sqrt(R(1) + (as * au) * (as * au)) +
                          std::sqrt(R(1) + (at * au) * (at * au)));
      ssmin = (fhmn * c) * au;
      ssmin = ssmin + ssmin;
      ssmax = ga / (c + c);
    }
  }
}

/// Implicit-shift QR on a bidiagonal matrix (xBDSQR semantics): computes
/// the singular values of B (descending into d) and applies the
/// accumulated rotations to VT (rows; ncvt columns) and U (columns; nru
/// rows), so that on exit A = U diag(d) VT still holds for factors fed in
/// from gebrd/orgbr. uplo says whether B is upper or lower bidiagonal.
/// Returns 0, or the number of unconverged off-diagonals.
template <RealScalar R, Scalar Z>
idx bdsqr(Uplo uplo, idx n, idx ncvt, idx nru, R* d, R* e_in, Z* vt, idx ldvt,
          Z* u, idx ldu) {
  if (n == 0) {
    return 0;
  }
  const R epsv = eps<R>();
  std::vector<R> ework(static_cast<std::size_t>(n), R(0));
  if (n > 1) {
    std::copy(e_in, e_in + (n - 1), ework.begin());
  }
  R* e = ework.data();

  auto rot_vt_rows = [&](idx i, idx j, R c, R s) {
    // Rows i and j of VT: stride ldvt.
    if (ncvt > 0) {
      blas::rot(ncvt, vt + i, ldvt, vt + j, ldvt, c, s);
    }
  };
  auto rot_u_cols = [&](idx i, idx j, R c, R s) {
    if (nru > 0) {
      blas::rot(nru, u + static_cast<std::size_t>(i) * ldu, 1,
                u + static_cast<std::size_t>(j) * ldu, 1, c, s);
    }
  };

  if (uplo == Uplo::Lower && n > 1) {
    // Rotate lower bidiagonal to upper with left Givens; rotations act on
    // U's columns.
    for (idx i = 0; i < n - 1; ++i) {
      R c;
      R s;
      R r;
      blas::lartg(d[i], e[i], c, s, r);
      d[i] = r;
      e[i] = s * d[i + 1];
      d[i + 1] = c * d[i + 1];
      rot_u_cols(i, i + 1, c, s);
    }
  }

  const long maxit = 6L * n * n;
  long iter = 0;
  idx m = n - 1;  // index of the active block's last diagonal

  while (m > 0) {
    // Deflate converged off-diagonals at the bottom.
    while (m > 0 &&
           std::abs(e[m - 1]) <= epsv * (std::abs(d[m - 1]) + std::abs(d[m]))) {
      e[m - 1] = R(0);
      --m;
    }
    if (m == 0) {
      break;
    }
    // Find the top of the active block.
    idx ll = m - 1;
    while (ll > 0 &&
           std::abs(e[ll - 1]) > epsv * (std::abs(d[ll - 1]) + std::abs(d[ll]))) {
      --ll;
    }
    if (iter++ > maxit) {
      idx bad = 0;
      for (idx i = 0; i < n - 1; ++i) {
        if (e[i] != R(0)) {
          ++bad;
        }
      }
      return bad;
    }

    if (m == ll + 1) {
      // 2x2 block: solve directly (xLASV2-style via las2 + one QR step is
      // overkill; a single shifted step below converges it — but a direct
      // handling avoids shift pathologies). Fall through to the shifted
      // step; the convergence test will catch it next sweep.
    }

    // Shift from the trailing 2x2; fall back to zero shift when it would
    // wreck relative accuracy (Demmel-Kahan criterion, simplified) or when
    // the block contains an exactly-zero diagonal (the zero-shift sweep
    // deflates a zero singular value in one pass).
    R shift;
    R dummy;
    las2(d[m - 1], e[m - 1], d[m], shift, dummy);
    const R sll = std::abs(d[ll]);
    if (sll > R(0)) {
      const R q = shift / sll;
      if (q * q < epsv) {
        shift = R(0);
      }
    }
    for (idx i = ll; i <= m && shift != R(0); ++i) {
      if (d[i] == R(0)) {
        shift = R(0);
      }
    }

    if (shift == R(0)) {
      // Demmel-Kahan zero-shift QR sweep (forward).
      R cs(1);
      R oldcs(1);
      R sn(0);
      R oldsn(0);
      R r;
      for (idx i = ll; i < m; ++i) {
        blas::lartg(d[i] * cs, e[i], cs, sn, r);
        if (i > ll) {
          e[i - 1] = oldsn * r;
        }
        blas::lartg(oldcs * r, d[i + 1] * sn, oldcs, oldsn, d[i]);
        rot_vt_rows(i, i + 1, cs, sn);
        rot_u_cols(i, i + 1, oldcs, oldsn);
      }
      const R h = d[m] * cs;
      d[m] = h * oldcs;
      e[m - 1] = h * oldsn;
    } else {
      // Shifted Golub-Kahan sweep (forward).
      R f = (std::abs(d[ll]) - shift) *
            (std::copysign(R(1), d[ll]) + shift / d[ll]);
      R g = e[ll];
      for (idx i = ll; i < m; ++i) {
        R cosr;
        R sinr;
        R r;
        blas::lartg(f, g, cosr, sinr, r);
        if (i > ll) {
          e[i - 1] = r;
        }
        f = cosr * d[i] + sinr * e[i];
        e[i] = cosr * e[i] - sinr * d[i];
        g = sinr * d[i + 1];
        d[i + 1] = cosr * d[i + 1];
        R cosl;
        R sinl;
        blas::lartg(f, g, cosl, sinl, r);
        d[i] = r;
        f = cosl * e[i] + sinl * d[i + 1];
        d[i + 1] = cosl * d[i + 1] - sinl * e[i];
        if (i < m - 1) {
          g = sinl * e[i + 1];
          e[i + 1] = cosl * e[i + 1];
        }
        rot_vt_rows(i, i + 1, cosr, sinr);
        rot_u_cols(i, i + 1, cosl, sinl);
      }
      e[m - 1] = f;
    }
  }

  // Make singular values nonnegative (flip the matching VT row).
  for (idx i = 0; i < n; ++i) {
    if (d[i] < R(0)) {
      d[i] = -d[i];
      if (ncvt > 0) {
        blas::scal(ncvt, Z(-1), vt + i, ldvt);
      }
    }
  }
  // Sort descending, permuting U columns / VT rows along.
  for (idx i = 0; i < n - 1; ++i) {
    idx k = i;
    for (idx j = i + 1; j < n; ++j) {
      if (d[j] > d[k]) {
        k = j;
      }
    }
    if (k != i) {
      std::swap(d[i], d[k]);
      if (ncvt > 0) {
        blas::swap(ncvt, vt + i, ldvt, vt + k, ldvt);
      }
      if (nru > 0) {
        blas::swap(nru, u + static_cast<std::size_t>(i) * ldu, 1,
                   u + static_cast<std::size_t>(k) * ldu, 1);
      }
    }
  }
  return 0;
}

/// Driver: singular value decomposition (xGESVD, thin factors).
/// s gets min(m,n) singular values descending. With jobu == Vec, u must be
/// m x min(m,n); with jobvt == Vec, vt must be min(m,n) x n. A is
/// destroyed. Returns 0 or the number of unconverged superdiagonals.
template <Scalar T>
idx gesvd(Job jobu, Job jobvt, idx m, idx n, T* a, idx lda, real_t<T>* s,
          T* u, idx ldu, T* vt, idx ldvt) {
  using R = real_t<T>;
  const idx k = std::min(m, n);
  if (k == 0) {
    return 0;
  }
  std::vector<R> e(static_cast<std::size_t>(k));
  std::vector<T> tauq(static_cast<std::size_t>(k));
  std::vector<T> taup(static_cast<std::size_t>(k));
  gebrd(m, n, a, lda, s, e.data(), tauq.data(), taup.data());

  const bool wantu = jobu == Job::Vec;
  const bool wantvt = jobvt == Job::Vec;
  if (m >= n) {
    if (wantvt) {
      // Row reflectors live in the strictly-super part of A(0:n-1, :).
      lacpy(Part::Upper, n, n, a, lda, vt, ldvt);
      orgbr(BrVect::P, n, n, m, vt, ldvt, taup.data());
    }
    if (wantu) {
      lacpy(Part::All, m, n, a, lda, u, ldu);
      orgbr(BrVect::Q, m, n, n, u, ldu, tauq.data());
    }
    return bdsqr(Uplo::Upper, n, wantvt ? n : 0, wantu ? m : 0, s, e.data(),
                 vt, ldvt, u, ldu);
  }
  if (wantu) {
    lacpy(Part::All, m, m, a, lda, u, ldu);
    orgbr(BrVect::Q, m, m, n, u, ldu, tauq.data());
  }
  if (wantvt) {
    lacpy(Part::All, m, n, a, lda, vt, ldvt);
    orgbr(BrVect::P, m, n, m, vt, ldvt, taup.data());
  }
  return bdsqr(Uplo::Lower, m, wantvt ? n : 0, wantu ? m : 0, s, e.data(), vt,
               ldvt, u, ldu);
}

}  // namespace la::lapack
