// lapack90/lapack/nonsymeig.hpp
//
// Nonsymmetric eigenproblem — the substrate under LA_GEEV / LA_GEES /
// LA_GEEVX / LA_GEESX:
//
//   gebal / gebak    balancing (permute + scale) and its inverse
//   gehrd / orghr    Hessenberg reduction and its unitary factor
//   lanv2            2x2 real standard Schur form (xLANV2)
//   hseqr            Schur decomposition of a Hessenberg matrix
//                    (Francis implicit double shift for real types,
//                    Wilkinson single shift for complex types)
//   trevc            eigenvectors of a (quasi-)triangular matrix by
//                    back-substitution, with back-transformation
//   geev             driver: eigenvalues + left/right eigenvectors
//   gees             driver: Schur factorization (+ ordering, see trexc)
//
// Real eigenvalues are reported as (wr, wi) pairs; the complex driver uses
// a single complex w array — mirroring the paper's "ω is either WR, WI or
// W" convention for LA_GEEV / LA_GEES.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "lapack90/blas/level1.hpp"
#include "lapack90/blas/level2.hpp"
#include "lapack90/blas/level3.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/core/precision.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/lapack/norms.hpp"
#include "lapack90/lapack/qr.hpp"
#include "lapack90/lapack/reduce_aux.hpp"

namespace la::lapack {

/// Balancing output: the permuted/scaled range [ilo, ihi] and per-row
/// scale/permutation records (xGEBAL's SCALE array).
template <RealScalar R>
struct BalanceInfo {
  idx ilo = 0;
  idx ihi = -1;
  std::vector<R> scale;
};

/// Balance a general matrix (xGEBAL 'B'): permute to isolate eigenvalues,
/// then scale rows/columns toward equal norms. A is overwritten.
template <Scalar T>
BalanceInfo<real_t<T>> gebal(idx n, T* a, idx lda) {
  using R = real_t<T>;
  BalanceInfo<R> out;
  out.scale.assign(static_cast<std::size_t>(std::max<idx>(n, 1)), R(1));
  out.ilo = 0;
  out.ihi = n - 1;
  if (n == 0) {
    return out;
  }
  auto at = [&](idx i, idx j) -> T& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  auto exchange = [&](idx j, idx m) {
    // Record the swap in scale[m] and exchange rows/columns j <-> m.
    out.scale[m] = static_cast<R>(j);
    if (j == m) {
      return;
    }
    blas::swap(out.ihi + 1, a + static_cast<std::size_t>(j) * lda, 1,
               a + static_cast<std::size_t>(m) * lda, 1);
    blas::swap(n - out.ilo, a + static_cast<std::size_t>(out.ilo) * lda + j,
               lda, a + static_cast<std::size_t>(out.ilo) * lda + m, lda);
  };

  // Permutation phase: push rows whose off-diagonal entries are all zero
  // to the bottom, then columns to the top.
  bool moved = true;
  while (moved) {
    moved = false;
    for (idx i = out.ihi; i >= out.ilo; --i) {
      bool zero_row = true;
      for (idx j = out.ilo; j <= out.ihi; ++j) {
        if (j != i && at(i, j) != T(0)) {
          zero_row = false;
          break;
        }
      }
      if (zero_row) {
        exchange(i, out.ihi);
        --out.ihi;
        moved = true;
        break;
      }
    }
  }
  moved = true;
  while (moved) {
    moved = false;
    for (idx j = out.ilo; j <= out.ihi; ++j) {
      bool zero_col = true;
      for (idx i = out.ilo; i <= out.ihi; ++i) {
        if (i != j && at(i, j) != T(0)) {
          zero_col = false;
          break;
        }
      }
      if (zero_col) {
        exchange(j, out.ilo);
        ++out.ilo;
        moved = true;
        break;
      }
    }
  }

  // Scaling phase (xGEBAL's iterative row/column norm equalization).
  const R sclfac = R(2);
  const R factor = R(0.95);
  const R sfmin1 = safmin<T>() / eps<T>();
  const R sfmax1 = R(1) / sfmin1;
  bool noconv = true;
  while (noconv) {
    noconv = false;
    for (idx i = out.ilo; i <= out.ihi; ++i) {
      R c(0);
      R r(0);
      for (idx j = out.ilo; j <= out.ihi; ++j) {
        if (j == i) {
          continue;
        }
        c += abs1(at(j, i));
        r += abs1(at(i, j));
      }
      R ca = abs1(at(blas::iamax(out.ihi - out.ilo + 1,
                                       a + static_cast<std::size_t>(i) * lda +
                                           out.ilo,
                                       1) +
                               out.ilo,
                           i));
      R ra(0);
      for (idx j = 0; j < n; ++j) {
        ra = std::max(ra, abs1(at(i, j)));
      }
      if (c == R(0) || r == R(0)) {
        continue;
      }
      R g = r / sclfac;
      R f(1);
      const R s0 = c + r;
      while (c < g) {
        if (f >= sfmax1 || c >= sfmax1 / sclfac || std::max(c, ca) * sclfac >=
            sfmax1) {
          break;
        }
        f *= sclfac;
        c *= sclfac;
        ca *= sclfac;
        g /= sclfac;
        r /= sclfac;
        ra /= sclfac;
      }
      g = c / sclfac;
      while (g >= r) {
        if (f <= sfmin1 || std::min(std::min(r, g), ra) <= sfmin1 * sclfac) {
          break;
        }
        f /= sclfac;
        c /= sclfac;
        g /= sclfac;
        ca /= sclfac;
        r *= sclfac;
        ra *= sclfac;
      }
      if (c + r >= factor * s0) {
        continue;  // no worthwhile improvement
      }
      out.scale[i] *= f;
      noconv = true;
      // Row i *= 1/f; column i *= f.
      const R invf = R(1) / f;
      blas::scal(n - out.ilo, invf,
                 a + static_cast<std::size_t>(out.ilo) * lda + i, lda);
      blas::scal(out.ihi + 1, f, a + static_cast<std::size_t>(i) * lda, 1);
    }
  }
  return out;
}

/// Undo balancing on eigenvector rows (xGEBAK, right eigenvectors).
template <Scalar T>
void gebak(const BalanceInfo<real_t<T>>& bal, idx n, idx mcols, T* v,
           idx ldv) {
  if (n == 0 || mcols == 0) {
    return;
  }
  // Undo scaling.
  for (idx i = bal.ilo; i <= bal.ihi; ++i) {
    blas::scal(mcols, bal.scale[i], v + i, ldv);
  }
  // Undo permutations, in reverse order of application.
  for (idx i = bal.ilo - 1; i >= 0; --i) {
    const idx k = static_cast<idx>(bal.scale[i]);
    if (k != i) {
      blas::swap(mcols, v + i, ldv, v + k, ldv);
    }
  }
  for (idx i = bal.ihi + 1; i < n; ++i) {
    const idx k = static_cast<idx>(bal.scale[i]);
    if (k != i) {
      blas::swap(mcols, v + i, ldv, v + k, ldv);
    }
  }
}

namespace detail {

/// Unblocked Hessenberg reduction of rows/columns [ilo, ihi] (xGEHD2);
/// `work` needs n elements. tau entries outside [ilo, ihi) are untouched.
template <Scalar T>
void gehd2(idx n, idx ilo, idx ihi, T* a, idx lda, T* tau,
           T* work) noexcept {
  for (idx i = ilo; i < ihi; ++i) {
    // Reflector annihilating A(i+2:ihi, i); unit entry at row i+1.
    T* col = a + static_cast<std::size_t>(i) * lda;
    larfg(ihi - i, col[i + 1], col + std::min<idx>(i + 2, n - 1), 1, tau[i]);
    const T aii = col[i + 1];
    col[i + 1] = T(1);
    // Similarity: A := H A H^H applied as (right on columns, left on rows).
    larf(Side::Right, ihi + 1, ihi - i, col + i + 1, 1, tau[i],
         a + static_cast<std::size_t>(i + 1) * lda, lda, work);
    larf(Side::Left, ihi - i, n - i - 1, col + i + 1, 1, conj_if(tau[i]),
         a + static_cast<std::size_t>(i + 1) * lda + i + 1, lda, work);
    col[i + 1] = aii;
  }
}

}  // namespace detail

/// Reduce rows/columns [ilo, ihi] of A to upper Hessenberg form by
/// Householder similarity (xGEHRD). tau needs n-1 entries. Blocked: lahr2
/// panels + gemm/trmm/larfb trailing updates (~80% of the flops run as
/// Level-3 calls); gehd2 base case below the ilaenv crossover.
template <Scalar T>
void gehrd(idx n, idx ilo, idx ihi, T* a, idx lda, T* tau) {
  for (idx j = 0; j < n - 1; ++j) {
    tau[j] = T(0);
  }
  const idx nh = ihi - ilo + 1;  // order of the active block
  const idx nb = std::max<idx>(block_size(EnvRoutine::gehrd, nh), 1);
  const Trans ct = conj_trans_for<T>();
  // Workspace: Y (n x nb) + T (nb x nb) + larfb scratch (n x nb) + the
  // unblocked kernel's n-vector.
  T* const ws = la::detail::work_buffer<T, detail::WsGehrdTag>(
      2 * static_cast<std::size_t>(std::max<idx>(n, 1)) * nb +
      static_cast<std::size_t>(nb) * nb +
      static_cast<std::size_t>(std::max<idx>(n, 1)));
  T* const y = ws;
  T* const t = ws + static_cast<std::size_t>(n) * nb;
  T* const work2 = t + static_cast<std::size_t>(nb) * nb;
  T* const work = work2 + static_cast<std::size_t>(n) * nb;
  const idx ldy = n;
  idx i = ilo;
  if (nb > 1 && nb < nh) {
    const idx nx =
        std::max(nb, ilaenv(EnvSpec::Crossover, EnvRoutine::gehrd, nh));
    for (; i < ihi - nx; i += nb) {
      const idx ib = std::min<idx>(nb, ihi - i);
      // Panel: reduce columns i..i+ib-1, forming the block reflector
      // factor T and Y = A V T.
      detail::lahr2(ihi + 1, i + 1, ib, a + static_cast<std::size_t>(i) * lda,
                    lda, tau + i, t, nb, y, ldy);
      // Apply the block reflector from the right to A(0:ihi, i+ib:ihi):
      // A := A - Y V^H (the subdiagonal unit entry is patched in).
      T& eref = a[static_cast<std::size_t>(i + ib - 1) * lda + (i + ib)];
      const T ei = eref;
      eref = T(1);
      blas::gemm(Trans::NoTrans, ct, ihi + 1, ihi - i - ib + 1, ib, T(-1), y,
                 ldy, a + static_cast<std::size_t>(i) * lda + (i + ib), lda,
                 T(1), a + static_cast<std::size_t>(i + ib) * lda, lda);
      eref = ei;
      // Right-apply to the panel's own columns above the active block.
      blas::trmm(Side::Right, Uplo::Lower, ct, Diag::Unit, i + 1, ib - 1,
                 T(1), a + static_cast<std::size_t>(i) * lda + i + 1, lda, y,
                 ldy);
      for (idx j = 0; j < ib - 1; ++j) {
        blas::axpy(i + 1, T(-1), y + static_cast<std::size_t>(j) * ldy, 1,
                   a + static_cast<std::size_t>(i + 1 + j) * lda, 1);
      }
      // Left-apply H^H to the trailing columns.
      larfb(Side::Left, ct, ihi - i, n - i - ib, ib,
            a + static_cast<std::size_t>(i) * lda + i + 1, lda, t, nb,
            a + static_cast<std::size_t>(i + ib) * lda + i + 1, lda, work2,
            std::max<idx>(n - i - ib, 1));
    }
  }
  detail::gehd2(n, i, ihi, a, lda, tau, work);
}

/// Accumulate the unitary factor of gehrd into Q (xORGHR / xUNGHR):
/// on exit A holds the n x n Q. The reflectors are shifted one column
/// right onto the QR layout and accumulated by the blocked orgqr.
template <Scalar T>
void orghr(idx n, idx ilo, idx ihi, T* a, idx lda, const T* tau) {
  if (n == 0) {
    return;
  }
  auto at = [&](idx i, idx j) -> T& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  for (idx j = ihi; j >= ilo + 1; --j) {
    for (idx i = 0; i < j; ++i) {
      at(i, j) = T(0);
    }
    for (idx i = j + 1; i <= ihi; ++i) {
      at(i, j) = at(i, j - 1);
    }
    for (idx i = ihi + 1; i < n; ++i) {
      at(i, j) = T(0);
    }
  }
  for (idx j = 0; j <= ilo; ++j) {
    for (idx i = 0; i < n; ++i) {
      at(i, j) = T(0);
    }
    at(j, j) = T(1);
  }
  for (idx j = ihi + 1; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      at(i, j) = T(0);
    }
    at(j, j) = T(1);
  }
  const idx nh = ihi - ilo;
  if (nh > 0) {
    orgqr(nh, nh, nh, a + static_cast<std::size_t>(ilo + 1) * lda + ilo + 1,
          lda, tau + ilo);
  }
}

/// Standardize a real 2x2 block to Schur form (xLANV2): on exit either
/// c == 0 (two real eigenvalues) or a == d and b*c < 0 (a complex pair);
/// (cs, sn) is the rotation that achieves it. Eigenvalues in (rt1r, rt1i),
/// (rt2r, rt2i).
template <RealScalar R>
void lanv2(R& a, R& b, R& c, R& d, R& rt1r, R& rt1i, R& rt2r, R& rt2i, R& cs,
           R& sn) noexcept {
  const R epsv = eps<R>();
  auto sign1 = [](R x) { return x >= R(0) ? R(1) : R(-1); };
  if (c == R(0)) {
    cs = R(1);
    sn = R(0);
  } else if (b == R(0)) {
    // Swap rows and columns (quarter turn).
    cs = R(0);
    sn = R(1);
    const R temp = d;
    d = a;
    a = temp;
    b = -c;
    c = R(0);
  } else if ((a - d) == R(0) && sign1(b) != sign1(c)) {
    cs = R(1);
    sn = R(0);
  } else {
    R temp = a - d;
    const R p = temp / R(2);
    const R bcmax = std::max(std::abs(b), std::abs(c));
    const R bcmis = std::min(std::abs(b), std::abs(c)) * sign1(b) * sign1(c);
    const R scale = std::max(std::abs(p), bcmax);
    R z = (p / scale) * p + (bcmax / scale) * bcmis;
    if (z >= R(4) * epsv) {
      // Real eigenvalues: compute a direct rotation.
      z = p + std::copysign(std::sqrt(scale) * std::sqrt(z), p);
      a = d + z;
      d -= (bcmax / z) * bcmis;
      const R tau = lapy2(c, z);
      cs = z / tau;
      sn = c / tau;
      b -= c;
      c = R(0);
    } else {
      // Complex (or nearly equal real) eigenvalues.
      const R sigma = b + c;
      const R tau = lapy2(sigma, temp);
      cs = std::sqrt((R(1) + std::abs(sigma) / tau) / R(2));
      sn = -(p / (tau * cs)) * sign1(sigma);
      const R aa = a * cs + b * sn;
      const R bb = -a * sn + b * cs;
      const R cc = c * cs + d * sn;
      const R dd = -c * sn + d * cs;
      a = aa * cs + cc * sn;
      b = bb * cs + dd * sn;
      c = -aa * sn + cc * cs;
      d = -bb * sn + dd * cs;
      temp = (a + d) / R(2);
      a = temp;
      d = temp;
      if (c != R(0)) {
        if (b != R(0)) {
          if (sign1(b) == sign1(c)) {
            // Real eigenvalues after all: reduce to triangular.
            const R sab = std::sqrt(std::abs(b));
            const R sac = std::sqrt(std::abs(c));
            const R pp = std::copysign(sab * sac, c);
            const R tau1 = R(1) / std::sqrt(std::abs(b + c));
            a = temp + pp;
            d = temp - pp;
            b -= c;
            c = R(0);
            const R cs1 = sab * tau1;
            const R sn1 = sac * tau1;
            const R tcs = cs * cs1 - sn * sn1;
            sn = cs * sn1 + sn * cs1;
            cs = tcs;
          }
        } else {
          b = -c;
          c = R(0);
          const R tcs = cs;
          cs = -sn;
          sn = tcs;
        }
      }
    }
  }
  rt1r = a;
  rt2r = d;
  if (c == R(0)) {
    rt1i = R(0);
    rt2i = R(0);
  } else {
    rt1i = std::sqrt(std::abs(b)) * std::sqrt(std::abs(c));
    rt2i = -rt1i;
  }
}

/// Real Schur decomposition of an upper Hessenberg matrix (xLAHQR-style
/// Francis double-shift QR). On exit H is quasi-triangular; (wr, wi) hold
/// the eigenvalues; when z != nullptr the transformations accumulate into
/// it (z must be pre-initialized, e.g. to Q or I). Returns 0 or i+1 if
/// eigenvalue i failed to converge.
template <RealScalar R>
idx hseqr(idx n, idx ilo, idx ihi, R* h, idx ldh, R* wr, R* wi, R* z,
          idx ldz) {
  if (n == 0) {
    return 0;
  }
  const R ulp = R(2) * eps<R>();
  const R smlnum = safmin<R>() * (R(n) / ulp);
  auto at = [&](idx i, idx j) -> R& {
    return h[static_cast<std::size_t>(j) * ldh + i];
  };
  // Isolated eigenvalues outside [ilo, ihi].
  for (idx i = 0; i < ilo; ++i) {
    wr[i] = at(i, i);
    wi[i] = R(0);
  }
  for (idx i = ihi + 1; i < n; ++i) {
    wr[i] = at(i, i);
    wi[i] = R(0);
  }

  const long itmax = 30L * std::max<idx>(10, ihi - ilo + 1);
  long kdefl = 0;
  idx i = ihi;
  while (i >= ilo) {
    idx l = ilo;
    bool converged = false;
    for (long its = 0; its <= itmax; ++its) {
      // Look for a negligible subdiagonal.
      for (l = i; l > ilo; --l) {
        const R sub = std::abs(at(l, l - 1));
        if (sub <= smlnum) {
          break;
        }
        R tst = std::abs(at(l - 1, l - 1)) + std::abs(at(l, l));
        if (tst == R(0)) {
          if (l >= ilo + 2) {
            tst += std::abs(at(l - 1, l - 2));
          }
          if (l + 1 <= ihi) {
            tst += std::abs(at(l + 1, l));
          }
        }
        if (sub <= ulp * tst) {
          // Ahues-Tisseur deflation refinement.
          const R ab = std::max(sub, std::abs(at(l - 1, l)));
          const R ba = std::min(sub, std::abs(at(l - 1, l)));
          const R aa = std::max(std::abs(at(l, l)),
                                std::abs(at(l - 1, l - 1) - at(l, l)));
          const R bb = std::min(std::abs(at(l, l)),
                                std::abs(at(l - 1, l - 1) - at(l, l)));
          const R s = aa + ab;
          if (ba * (ab / s) <= std::max(smlnum, ulp * (bb * (aa / s)))) {
            break;
          }
        }
      }
      if (l > ilo) {
        at(l, l - 1) = R(0);
      }
      if (l >= i - 1) {
        converged = true;
        break;
      }
      ++kdefl;

      // Choose the double shift.
      R h11;
      R h21;
      R h12;
      R h22;
      if (kdefl % 20 == 0) {
        const R s = std::abs(at(i, i - 1)) + std::abs(at(i - 1, i - 2));
        h11 = R(0.75) * s + at(i, i);
        h12 = R(-0.4375) * s;
        h21 = s;
        h22 = h11;
      } else if (kdefl % 10 == 0) {
        const R s = std::abs(at(l + 1, l)) + std::abs(at(l + 2, l + 1));
        h11 = R(0.75) * s + at(l, l);
        h12 = R(-0.4375) * s;
        h21 = s;
        h22 = h11;
      } else {
        h11 = at(i - 1, i - 1);
        h21 = at(i, i - 1);
        h12 = at(i - 1, i);
        h22 = at(i, i);
      }
      R rt1r;
      R rt1i;
      R rt2r;
      R rt2i;
      {
        const R s = std::abs(h11) + std::abs(h12) + std::abs(h21) +
                    std::abs(h22);
        if (s == R(0)) {
          rt1r = rt1i = rt2r = rt2i = R(0);
        } else {
          const R a11 = h11 / s;
          const R a12 = h12 / s;
          const R a21 = h21 / s;
          const R a22 = h22 / s;
          const R tr = (a11 + a22) / R(2);
          const R det = (a11 - tr) * (a22 - tr) - a12 * a21;
          const R rtdisc = std::sqrt(std::abs(det));
          if (det >= R(0)) {
            // Complex conjugate shifts.
            rt1r = tr * s;
            rt2r = rt1r;
            rt1i = rtdisc * s;
            rt2i = -rt1i;
          } else {
            // Real shifts: use the one closer to h22 twice.
            rt1r = tr + rtdisc;
            rt2r = tr - rtdisc;
            if (std::abs(rt1r - a22) <= std::abs(rt2r - a22)) {
              rt2r = rt1r;
            } else {
              rt1r = rt2r;
            }
            rt1r *= s;
            rt2r *= s;
            rt1i = R(0);
            rt2i = R(0);
          }
        }
      }

      // Find the bulge start row m (look-ahead deflation).
      R v[3] = {};
      idx m = i - 2;
      for (; m >= l; --m) {
        const R h21s0 = at(m + 1, m);
        R s = std::abs(at(m, m) - rt2r) + std::abs(rt1i) + std::abs(h21s0);
        const R h21s = h21s0 / s;
        v[0] = h21s * at(m, m + 1) +
               (at(m, m) - rt1r) * ((at(m, m) - rt2r) / s) -
               rt1i * (rt2i / s);
        v[1] = h21s * (at(m, m) + at(m + 1, m + 1) - rt1r - rt2r);
        v[2] = h21s * at(m + 2, m + 1);
        const R vs = std::abs(v[0]) + std::abs(v[1]) + std::abs(v[2]);
        v[0] /= vs;
        v[1] /= vs;
        v[2] /= vs;
        if (m == l) {
          break;
        }
        const R lhs = std::abs(at(m, m - 1)) *
                      (std::abs(v[1]) + std::abs(v[2]));
        const R rhs = ulp * std::abs(v[0]) *
                      (std::abs(at(m - 1, m - 1)) + std::abs(at(m, m)) +
                       std::abs(at(m + 1, m + 1)));
        if (lhs <= rhs) {
          break;
        }
      }

      // Double-shift sweep: chase the 3x3 bulge from m to i-1.
      for (idx k = m; k < i; ++k) {
        const idx nr = std::min<idx>(3, i - k + 1);
        R vv[3];
        if (k > m) {
          vv[0] = at(k, k - 1);
          vv[1] = at(k + 1, k - 1);
          vv[2] = nr == 3 ? at(k + 2, k - 1) : R(0);
        } else {
          vv[0] = v[0];
          vv[1] = v[1];
          vv[2] = v[2];
        }
        R t1;
        larfg(nr, vv[0], &vv[1], 1, t1);
        if (k > m) {
          at(k, k - 1) = vv[0];
          at(k + 1, k - 1) = R(0);
          if (nr == 3) {
            at(k + 2, k - 1) = R(0);
          }
        } else if (m > l) {
          // Bulge introduced mid-matrix: account for the reflection of the
          // incoming subdiagonal (xLAHQR's (1 - t1) trick).
          at(k, k - 1) *= (R(1) - t1);
        }
        const R v2 = vv[1];
        const R t2 = t1 * v2;
        const R v3 = nr == 3 ? vv[2] : R(0);
        const R t3 = t1 * v3;
        // Row update on columns k..n-1 (wantt: full rows).
        for (idx j = k; j < n; ++j) {
          R sum = at(k, j) + v2 * at(k + 1, j);
          if (nr == 3) {
            sum += v3 * at(k + 2, j);
          }
          at(k, j) -= sum * t1;
          at(k + 1, j) -= sum * t2;
          if (nr == 3) {
            at(k + 2, j) -= sum * t3;
          }
        }
        // Column update on rows 0..min(k+3, i).
        const idx jhi = std::min<idx>(k + 3, i);
        for (idx j = 0; j <= jhi; ++j) {
          R sum = at(j, k) + v2 * at(j, k + 1);
          if (nr == 3) {
            sum += v3 * at(j, k + 2);
          }
          at(j, k) -= sum * t1;
          at(j, k + 1) -= sum * t2;
          if (nr == 3) {
            at(j, k + 2) -= sum * t3;
          }
        }
        if (z != nullptr) {
          for (idx j = 0; j < n; ++j) {
            R sum = z[static_cast<std::size_t>(k) * ldz + j] +
                    v2 * z[static_cast<std::size_t>(k + 1) * ldz + j];
            if (nr == 3) {
              sum += v3 * z[static_cast<std::size_t>(k + 2) * ldz + j];
            }
            z[static_cast<std::size_t>(k) * ldz + j] -= sum * t1;
            z[static_cast<std::size_t>(k + 1) * ldz + j] -= sum * t2;
            if (nr == 3) {
              z[static_cast<std::size_t>(k + 2) * ldz + j] -= sum * t3;
            }
          }
        }
      }
    }
    if (!converged) {
      return i + 1;
    }
    if (l == i) {
      // 1x1 block.
      wr[i] = at(i, i);
      wi[i] = R(0);
      i -= 1;
    } else {
      // 2x2 block: standardize and record the pair.
      R cs;
      R sn;
      lanv2(at(i - 1, i - 1), at(i - 1, i), at(i, i - 1), at(i, i), wr[i - 1],
            wi[i - 1], wr[i], wi[i], cs, sn);
      // Apply the rotation to the rest of row/column i-1, i and Z.
      if (i < n - 1) {
        blas::rot(n - i - 1, &at(i - 1, i + 1), ldh, &at(i, i + 1), ldh, cs,
                  sn);
      }
      blas::rot(i - 1, &at(0, i - 1), 1, &at(0, i), 1, cs, sn);
      if (z != nullptr) {
        blas::rot(n, z + static_cast<std::size_t>(i - 1) * ldz, 1,
                  z + static_cast<std::size_t>(i) * ldz, 1, cs, sn);
      }
      i -= 2;
    }
    kdefl = 0;
  }
  return 0;
}

/// Complex Schur decomposition of an upper Hessenberg matrix (xLAHQR,
/// single Wilkinson shift). Same contract as the real overload but with a
/// single complex eigenvalue array.
template <ComplexScalar T>
idx hseqr(idx n, idx ilo, idx ihi, T* h, idx ldh, T* w, T* z, idx ldz) {
  using R = real_t<T>;
  if (n == 0) {
    return 0;
  }
  const R ulp = R(2) * eps<T>();
  const R smlnum = safmin<T>() * (R(n) / ulp);
  auto at = [&](idx i, idx j) -> T& {
    return h[static_cast<std::size_t>(j) * ldh + i];
  };
  for (idx i = 0; i < ilo; ++i) {
    w[i] = at(i, i);
  }
  for (idx i = ihi + 1; i < n; ++i) {
    w[i] = at(i, i);
  }
  const long itmax = 30L * std::max<idx>(10, ihi - ilo + 1);
  idx i = ihi;
  long kdefl = 0;
  while (i >= ilo) {
    idx l = ilo;
    bool converged = false;
    for (long its = 0; its <= itmax; ++its) {
      for (l = i; l > ilo; --l) {
        const R sub = abs1(at(l, l - 1));
        if (sub <= smlnum) {
          break;
        }
        R tst = abs1(at(l - 1, l - 1)) + abs1(at(l, l));
        if (tst == R(0)) {
          if (l >= ilo + 2) {
            tst += abs1(at(l - 1, l - 2));
          }
          if (l + 1 <= ihi) {
            tst += abs1(at(l + 1, l));
          }
        }
        if (sub <= ulp * tst) {
          break;
        }
      }
      if (l > ilo) {
        at(l, l - 1) = T(0);
      }
      if (l >= i) {
        converged = true;
        break;
      }
      ++kdefl;

      // Wilkinson shift from the trailing 2x2 (exceptional every 10).
      T shift;
      if (kdefl % 10 == 0) {
        shift = at(i, i) + T(R(0.75) * std::abs(real_part(at(i, i - 1))));
      } else {
        shift = at(i, i);
        const T u = std::sqrt(at(i - 1, i)) * std::sqrt(at(i, i - 1));
        if (abs1(u) != R(0)) {
          const T x = (at(i - 1, i - 1) - shift) * T(R(0.5));
          const R sx = abs1(x);
          const R sm = std::max(sx, abs1(u));
          T y = T(sm) * std::sqrt((x / T(sm)) * (x / T(sm)) +
                                  (u / T(sm)) * (u / T(sm)));
          if (sx > R(0)) {
            const T xs = x / T(sx);
            if (real_part(xs) * real_part(y) + imag_part(xs) * imag_part(y) <
                R(0)) {
              y = -y;
            }
          }
          shift -= u * ladiv(u, x + y);
        }
      }

      // Single-shift sweep with 2-element reflectors.
      for (idx k = l; k < i; ++k) {
        T v1;
        T v2;
        if (k == l) {
          v1 = at(k, k) - shift;
          v2 = at(k + 1, k);
        } else {
          v1 = at(k, k - 1);
          v2 = at(k + 1, k - 1);
        }
        T t1;
        larfg(2, v1, &v2, 1, t1);
        if (k > l) {
          at(k, k - 1) = v1;
          at(k + 1, k - 1) = T(0);
        }
        const T t1c = std::conj(t1);
        const T v2c = std::conj(v2);
        // Rows k, k+1 across columns k..n-1.
        for (idx j = k; j < n; ++j) {
          const T sum = t1c * (at(k, j) + v2c * at(k + 1, j));
          at(k, j) -= sum;
          at(k + 1, j) -= sum * v2;
        }
        // Columns k, k+1 across rows 0..min(k+2, i).
        const idx jhi = std::min<idx>(k + 2, i);
        for (idx j = 0; j <= jhi; ++j) {
          const T sum = t1 * (at(j, k) + v2 * at(j, k + 1));
          at(j, k) -= sum;
          at(j, k + 1) -= sum * v2c;
        }
        if (z != nullptr) {
          for (idx j = 0; j < n; ++j) {
            T* zk = z + static_cast<std::size_t>(k) * ldz;
            T* zk1 = z + static_cast<std::size_t>(k + 1) * ldz;
            const T sum = t1 * (zk[j] + v2 * zk1[j]);
            zk[j] -= sum;
            zk1[j] -= sum * v2c;
          }
        }
      }
    }
    if (!converged) {
      return i + 1;
    }
    w[i] = at(i, i);
    --i;
    kdefl = 0;
  }
  return 0;
}

namespace detail {

/// Solve the k x k complex system M x = b (k <= 2) by Gaussian elimination
/// with partial pivoting, perturbing tiny pivots to smin.
template <RealScalar R>
void solve_small(idx k, std::complex<R>* mat, std::complex<R>* b,
                 R smin) noexcept {
  using C = std::complex<R>;
  if (k == 1) {
    C d = mat[0];
    if (std::abs(d.real()) + std::abs(d.imag()) < smin) {
      d = C(smin, 0);
    }
    b[0] = ladiv(b[0], d);
    return;
  }
  // k == 2, column-major 2x2.
  auto a1 = [&](const C& z) { return std::abs(z.real()) + std::abs(z.imag()); };
  if (a1(mat[1]) > a1(mat[0])) {
    std::swap(mat[0], mat[1]);
    std::swap(mat[2], mat[3]);
    std::swap(b[0], b[1]);
  }
  C p = mat[0];
  if (a1(p) < smin) {
    p = C(smin, 0);
  }
  const C m = ladiv(mat[1], p);
  C d = mat[3] - m * mat[2];
  if (a1(d) < smin) {
    d = C(smin, 0);
  }
  b[1] = ladiv(b[1] - m * b[0], d);
  b[0] = ladiv(b[0] - mat[2] * b[1], p);
}

}  // namespace detail

/// Right and/or left eigenvectors of a complex upper triangular matrix
/// with back-transformation (xTREVC, BACKTRANSFORM mode): on entry vr/vl
/// hold the Schur vectors Q; on exit column k holds the eigenvector of the
/// original matrix for w[k] = T(k,k). Pass nullptr to skip a side.
template <ComplexScalar T>
void trevc(idx n, const T* t, idx ldt, T* vl, idx ldvl, T* vr, idx ldvr) {
  using R = real_t<T>;
  const R smlnum = safmin<T>() * R(n) / eps<T>();
  const R tnorm = lanhs(Norm::One, n, t, ldt);
  std::vector<T> x(static_cast<std::size_t>(n));
  std::vector<T> y(static_cast<std::size_t>(n));
  auto at = [&](idx i, idx j) -> const T& {
    return t[static_cast<std::size_t>(j) * ldt + i];
  };

  if (vr != nullptr) {
    for (idx ki = n - 1; ki >= 0; --ki) {
      const T lambda = at(ki, ki);
      const R smin = std::max(eps<T>() * abs1(lambda),
                              std::max(eps<T>() * tnorm, smlnum));
      x[ki] = T(1);
      for (idx j = ki - 1; j >= 0; --j) {
        T s(0);
        for (idx l = j + 1; l <= ki; ++l) {
          s += at(j, l) * x[l];
        }
        T d = at(j, j) - lambda;
        if (abs1(d) < smin) {
          d = T(smin);
        }
        x[j] = ladiv(-s, d);
      }
      // Back-transform: VR(:, ki) = Q(:, 0:ki) x(0:ki).
      blas::gemv(Trans::NoTrans, n, ki + 1, T(1), vr, ldvr, x.data(), 1, T(0),
                 y.data(), 1);
      const R nrm = blas::nrm2(n, y.data(), 1);
      const R inv = nrm > R(0) ? R(1) / nrm : R(1);
      for (idx i = 0; i < n; ++i) {
        vr[static_cast<std::size_t>(ki) * ldvr + i] = y[i] * T(inv);
      }
    }
  }
  if (vl != nullptr) {
    for (idx ki = 0; ki < n; ++ki) {
      // Left eigenvector: solve (T^H - conj(lambda)) y = 0 forward.
      const T lambda = at(ki, ki);
      const R smin = std::max(eps<T>() * abs1(lambda),
                              std::max(eps<T>() * tnorm, smlnum));
      x[ki] = T(1);
      for (idx j = ki + 1; j < n; ++j) {
        T s(0);
        for (idx l = ki; l < j; ++l) {
          s += std::conj(at(l, j)) * x[l];
        }
        T d = std::conj(at(j, j) - lambda);
        if (abs1(d) < smin) {
          d = T(smin);
        }
        x[j] = ladiv(-s, d);
      }
      blas::gemv(Trans::NoTrans, n, n - ki, T(1),
                 vl + static_cast<std::size_t>(ki) * ldvl, ldvl, x.data() + ki,
                 1, T(0), y.data(), 1);
      const R nrm = blas::nrm2(n, y.data(), 1);
      const R inv = nrm > R(0) ? R(1) / nrm : R(1);
      for (idx i = 0; i < n; ++i) {
        vl[static_cast<std::size_t>(ki) * ldvl + i] = y[i] * T(inv);
      }
    }
  }
}

/// Right/left eigenvectors of a real quasi-triangular matrix with
/// back-transformation (xTREVC). Complex pairs are stored LAPACK-style:
/// for the pair at columns (k, k+1), column k holds the real part and
/// column k+1 the imaginary part of the eigenvector for wr[k] + i*wi[k].
template <RealScalar R>
void trevc(idx n, const R* t, idx ldt, const R* wr, const R* wi, R* vl,
           idx ldvl, R* vr, idx ldvr) {
  using C = std::complex<R>;
  const R smlnum = safmin<R>() * R(n) / eps<R>();
  const R tnorm = lanhs(Norm::One, n, t, ldt);
  auto at = [&](idx i, idx j) -> const R& {
    return t[static_cast<std::size_t>(j) * ldt + i];
  };
  std::vector<C> x(static_cast<std::size_t>(n));
  std::vector<C> rhs(static_cast<std::size_t>(n));
  std::vector<R> yr(static_cast<std::size_t>(n));
  std::vector<R> yi(static_cast<std::size_t>(n));

  // Shared quasi-triangular solve: (T(0:top, 0:top) - lambda I) x = -T(:,
  // seed columns) style systems, done column-by-column with 1x1/2x2 blocks.
  auto back_substitute = [&](idx top, C lambda, R smin) {
    idx j = top;
    while (j >= 0) {
      const bool two = j > 0 && at(j, j - 1) != R(0);
      if (!two) {
        C d = C(at(j, j)) - lambda;
        if (abs1(d) < smin) {
          d = C(smin);
        }
        x[j] = ladiv(-rhs[j], d);
        // Fold x[j] into the rhs of the remaining rows.
        for (idx i = 0; i < j; ++i) {
          rhs[i] += C(at(i, j)) * x[j];
        }
        --j;
      } else {
        C mat[4] = {C(at(j - 1, j - 1)) - lambda, C(at(j, j - 1)),
                    C(at(j - 1, j)), C(at(j, j)) - lambda};
        C b2[2] = {-rhs[j - 1], -rhs[j]};
        detail::solve_small(2, mat, b2, smin);
        x[j - 1] = b2[0];
        x[j] = b2[1];
        for (idx i = 0; i < j - 1; ++i) {
          rhs[i] += C(at(i, j - 1)) * x[j - 1] + C(at(i, j)) * x[j];
        }
        j -= 2;
      }
    }
  };

  if (vr != nullptr) {
    idx ki = n - 1;
    while (ki >= 0) {
      const R smin = std::max(eps<R>() * (std::abs(wr[ki]) + std::abs(wi[ki])),
                              std::max(eps<R>() * tnorm, smlnum));
      if (wi[ki] == R(0)) {
        // Real eigenvalue: solve (T - wr I) x = 0 with x[ki] = 1.
        const C lambda(wr[ki], 0);
        std::fill(x.begin(), x.end(), C(0));
        std::fill(rhs.begin(), rhs.end(), C(0));
        x[ki] = C(1);
        for (idx i = 0; i < ki; ++i) {
          rhs[i] = C(at(i, ki));
        }
        if (ki > 0) {
          back_substitute(ki - 1, lambda, smin);
        }
        for (idx i = 0; i <= ki; ++i) {
          yr[i] = x[i].real();
        }
        // VR(:, ki) = Q(:, 0:ki) * x.
        blas::gemv(Trans::NoTrans, n, ki + 1, R(1), vr, ldvr, yr.data(), 1,
                   R(0), yi.data(), 1);
        const R nrm = blas::nrm2(n, yi.data(), 1);
        blas::copy(n, yi.data(), 1, vr + static_cast<std::size_t>(ki) * ldvr,
                   1);
        if (nrm > R(0)) {
          blas::scal(n, R(1) / nrm, vr + static_cast<std::size_t>(ki) * ldvr,
                     1);
        }
        --ki;
      } else {
        // Complex pair at (ki-1, ki) with wi[ki-1] > 0 > wi[ki].
        const C lambda(wr[ki - 1], wi[ki - 1]);
        std::fill(x.begin(), x.end(), C(0));
        std::fill(rhs.begin(), rhs.end(), C(0));
        // Eigenvector of the standardized 2x2 block.
        if (std::abs(at(ki - 1, ki)) >= std::abs(at(ki, ki - 1))) {
          x[ki - 1] = C(1, 0);
          x[ki] = C(0, wi[ki - 1] / at(ki - 1, ki));
        } else {
          x[ki - 1] = C(-wi[ki - 1] / at(ki, ki - 1), 0);
          x[ki] = C(0, 1);
        }
        for (idx i = 0; i < ki - 1; ++i) {
          rhs[i] = C(at(i, ki - 1)) * x[ki - 1] + C(at(i, ki)) * x[ki];
        }
        if (ki > 1) {
          back_substitute(ki - 2, lambda, smin);
        }
        for (idx i = 0; i <= ki; ++i) {
          yr[i] = x[i].real();
          yi[i] = x[i].imag();
        }
        std::vector<R> re(static_cast<std::size_t>(n));
        std::vector<R> im(static_cast<std::size_t>(n));
        blas::gemv(Trans::NoTrans, n, ki + 1, R(1), vr, ldvr, yr.data(), 1,
                   R(0), re.data(), 1);
        blas::gemv(Trans::NoTrans, n, ki + 1, R(1), vr, ldvr, yi.data(), 1,
                   R(0), im.data(), 1);
        R ss(0);
        for (idx i = 0; i < n; ++i) {
          ss += re[i] * re[i] + im[i] * im[i];
        }
        const R inv = ss > R(0) ? R(1) / std::sqrt(ss) : R(1);
        for (idx i = 0; i < n; ++i) {
          vr[static_cast<std::size_t>(ki - 1) * ldvr + i] = re[i] * inv;
          vr[static_cast<std::size_t>(ki) * ldvr + i] = im[i] * inv;
        }
        ki -= 2;
      }
    }
  }

  if (vl != nullptr) {
    // Left eigenvectors by forward substitution on T^T.
    idx ki = 0;
    while (ki < n) {
      const R smin = std::max(eps<R>() * (std::abs(wr[ki]) + std::abs(wi[ki])),
                              std::max(eps<R>() * tnorm, smlnum));
      const bool pair = wi[ki] != R(0);
      // Left vectors come from (T^T - conj(lambda)) x = 0; the stored
      // columns then satisfy u^H T = lambda u^H directly (xTREVC scheme).
      const C lambda(wr[ki], pair ? -wi[ki] : R(0));
      std::fill(x.begin(), x.end(), C(0));
      std::fill(rhs.begin(), rhs.end(), C(0));
      idx seed_hi;
      if (!pair) {
        x[ki] = C(1);
        seed_hi = ki;
        for (idx j = ki + 1; j < n; ++j) {
          rhs[j] = C(at(ki, j));
        }
      } else {
        // Standardized block rows (ki, ki+1); lambda = wr + i wi, wi > 0.
        if (std::abs(at(ki, ki + 1)) >= std::abs(at(ki + 1, ki))) {
          x[ki] = C(wi[ki] / at(ki, ki + 1), 0);
          x[ki + 1] = C(0, 1);
        } else {
          x[ki] = C(1, 0);
          x[ki + 1] = C(0, -wi[ki] / at(ki + 1, ki));
        }
        seed_hi = ki + 1;
        for (idx j = ki + 2; j < n; ++j) {
          rhs[j] = C(at(ki, j)) * x[ki] + C(at(ki + 1, j)) * x[ki + 1];
        }
      }
      // Forward solve (T^T - lambda) on rows seed_hi+1..n-1, by columns of
      // T^T = rows of T, handling 2x2 blocks.
      idx j = seed_hi + 1;
      while (j < n) {
        const bool two = j < n - 1 && at(j + 1, j) != R(0);
        if (!two) {
          // Left vectors satisfy y^T T = lambda y^T: solve (T^T - lambda).
          C d = C(at(j, j)) - lambda;
          if (abs1(d) < smin) {
            d = C(smin);
          }
          x[j] = ladiv(-rhs[j], d);
          for (idx l = j + 1; l < n; ++l) {
            rhs[l] += C(at(j, l)) * x[j];
          }
          ++j;
        } else {
          // 2x2 block rows (j, j+1): solve x^T (B - lambda I) = -r^T, i.e.
          // (B^T - lambda I) x = -r.
          C mat[4] = {C(at(j, j)) - lambda, C(at(j, j + 1)), C(at(j + 1, j)),
                      C(at(j + 1, j + 1)) - lambda};
          C b2[2] = {-rhs[j], -rhs[j + 1]};
          detail::solve_small(2, mat, b2, smin);
          x[j] = b2[0];
          x[j + 1] = b2[1];
          for (idx l = j + 2; l < n; ++l) {
            rhs[l] += C(at(j, l)) * x[j] + C(at(j + 1, l)) * x[j + 1];
          }
          j += 2;
        }
      }
      // Back-transform with Q columns ki..n-1 and store.
      for (idx i = ki; i < n; ++i) {
        yr[i - ki] = x[i].real();
        yi[i - ki] = x[i].imag();
      }
      if (!pair) {
        std::vector<R> re(static_cast<std::size_t>(n));
        blas::gemv(Trans::NoTrans, n, n - ki, R(1),
                   vl + static_cast<std::size_t>(ki) * ldvl, ldvl, yr.data(),
                   1, R(0), re.data(), 1);
        const R nrm = blas::nrm2(n, re.data(), 1);
        blas::copy(n, re.data(), 1, vl + static_cast<std::size_t>(ki) * ldvl,
                   1);
        if (nrm > R(0)) {
          blas::scal(n, R(1) / nrm, vl + static_cast<std::size_t>(ki) * ldvl,
                     1);
        }
        ++ki;
      } else {
        std::vector<R> re(static_cast<std::size_t>(n));
        std::vector<R> im(static_cast<std::size_t>(n));
        blas::gemv(Trans::NoTrans, n, n - ki, R(1),
                   vl + static_cast<std::size_t>(ki) * ldvl, ldvl, yr.data(),
                   1, R(0), re.data(), 1);
        blas::gemv(Trans::NoTrans, n, n - ki, R(1),
                   vl + static_cast<std::size_t>(ki) * ldvl, ldvl, yi.data(),
                   1, R(0), im.data(), 1);
        R ss(0);
        for (idx i = 0; i < n; ++i) {
          ss += re[i] * re[i] + im[i] * im[i];
        }
        const R inv = ss > R(0) ? R(1) / std::sqrt(ss) : R(1);
        for (idx i = 0; i < n; ++i) {
          vl[static_cast<std::size_t>(ki) * ldvl + i] = re[i] * inv;
          vl[static_cast<std::size_t>(ki + 1) * ldvl + i] = im[i] * inv;
        }
        ki += 2;
      }
    }
  }
}

/// Driver: eigenvalues and optional right/left eigenvectors of a general
/// real matrix (xGEEV). Eigenvalues come out as (wr, wi) pairs; complex
/// eigenvectors use the packed real/imaginary column convention of trevc.
/// Returns 0 or >0 if the QR iteration failed at that eigenvalue.
template <RealScalar R>
idx geev(Job jobvl, Job jobvr, idx n, R* a, idx lda, R* wr, R* wi, R* vl,
         idx ldvl, R* vr, idx ldvr) {
  if (n == 0) {
    return 0;
  }
  auto bal = gebal(n, a, lda);
  std::vector<R> tau(static_cast<std::size_t>(std::max<idx>(n - 1, 1)));
  gehrd(n, bal.ilo, bal.ihi, a, lda, tau.data());
  const bool wantv = jobvl == Job::Vec || jobvr == Job::Vec;
  std::vector<R> z;
  if (wantv) {
    z.assign(static_cast<std::size_t>(n) * n, R(0));
    lacpy(Part::All, n, n, a, lda, z.data(), n);
    orghr(n, bal.ilo, bal.ihi, z.data(), n, tau.data());
  }
  // Clear the reflector storage so A is a genuine Hessenberg matrix (the
  // QR iteration and trevc read the subdiagonal structure).
  if (n > 2) {
    laset(Part::Lower, n - 2, n - 2, R(0), R(0), a + 2, lda);
  }
  const idx info = hseqr(n, bal.ilo, bal.ihi, a, lda, wr, wi,
                         wantv ? z.data() : static_cast<R*>(nullptr), n);
  if (info != 0) {
    return info;
  }
  if (wantv) {
    if (jobvl == Job::Vec) {
      lacpy(Part::All, n, n, z.data(), n, vl, ldvl);
    }
    if (jobvr == Job::Vec) {
      lacpy(Part::All, n, n, z.data(), n, vr, ldvr);
    }
    trevc(n, a, lda, wr, wi, jobvl == Job::Vec ? vl : nullptr, ldvl,
          jobvr == Job::Vec ? vr : nullptr, ldvr);
    if (jobvl == Job::Vec) {
      gebak(bal, n, n, vl, ldvl);
    }
    if (jobvr == Job::Vec) {
      gebak(bal, n, n, vr, ldvr);
    }
  }
  return 0;
}

/// Driver: complex eigenvalues/eigenvectors (xGEEV, C/Z types).
template <ComplexScalar T>
idx geev(Job jobvl, Job jobvr, idx n, T* a, idx lda, T* w, T* vl, idx ldvl,
         T* vr, idx ldvr) {
  if (n == 0) {
    return 0;
  }
  auto bal = gebal(n, a, lda);
  std::vector<T> tau(static_cast<std::size_t>(std::max<idx>(n - 1, 1)));
  gehrd(n, bal.ilo, bal.ihi, a, lda, tau.data());
  const bool wantv = jobvl == Job::Vec || jobvr == Job::Vec;
  std::vector<T> z;
  if (wantv) {
    z.assign(static_cast<std::size_t>(n) * n, T(0));
    lacpy(Part::All, n, n, a, lda, z.data(), n);
    orghr(n, bal.ilo, bal.ihi, z.data(), n, tau.data());
  }
  if (n > 2) {
    laset(Part::Lower, n - 2, n - 2, T(0), T(0), a + 2, lda);
  }
  const idx info = hseqr(n, bal.ilo, bal.ihi, a, lda, w,
                         wantv ? z.data() : static_cast<T*>(nullptr), n);
  if (info != 0) {
    return info;
  }
  if (wantv) {
    if (jobvl == Job::Vec) {
      lacpy(Part::All, n, n, z.data(), n, vl, ldvl);
    }
    if (jobvr == Job::Vec) {
      lacpy(Part::All, n, n, z.data(), n, vr, ldvr);
    }
    trevc(n, a, lda, jobvl == Job::Vec ? vl : nullptr, ldvl,
          jobvr == Job::Vec ? vr : nullptr, ldvr);
    if (jobvl == Job::Vec) {
      gebak(bal, n, n, vl, ldvl);
    }
    if (jobvr == Job::Vec) {
      gebak(bal, n, n, vr, ldvr);
    }
  }
  return 0;
}

// --------------------------------------------------------------------------
// Schur-form reordering (xLAEXC / xTREXC semantics) and the GEES drivers.
// --------------------------------------------------------------------------

namespace detail {

/// Solve the Sylvester equation T11 X - X T22 = G for the tiny blocks met
/// in laexc (n1, n2 <= 2) via the Kronecker system with complete pivoting.
/// Returns false if the blocks are too close (near-singular system).
template <RealScalar R>
bool sylvester_small(idx n1, idx n2, const R* t11, idx ld1, const R* t22,
                     idx ld2, const R* g, idx ldg, R* x, idx ldx) {
  const idx k = n1 * n2;
  R kron[16];
  R rhs[4];
  // vec ordering: x(i, j) -> index j*n1 + i.
  for (idx j = 0; j < n2; ++j) {
    for (idx i = 0; i < n1; ++i) {
      const idx row = j * n1 + i;
      rhs[row] = g[static_cast<std::size_t>(j) * ldg + i];
      for (idx jj = 0; jj < n2; ++jj) {
        for (idx ii = 0; ii < n1; ++ii) {
          const idx col = jj * n1 + ii;
          R v(0);
          if (jj == j) {
            v += t11[static_cast<std::size_t>(ii) * ld1 + i];
          }
          if (ii == i) {
            v -= t22[static_cast<std::size_t>(j) * ld2 + jj];
          }
          kron[col * k + row] = v;
        }
      }
    }
  }
  // Gaussian elimination with complete pivoting; the singularity test is
  // relative to the operator's scale.
  R kmax(0);
  for (idx q = 0; q < k * k; ++q) {
    kmax = std::max(kmax, std::abs(kron[q]));
  }
  idx perm[4] = {0, 1, 2, 3};
  for (idx s = 0; s < k; ++s) {
    idx pr = s;
    idx pc = s;
    R best(0);
    for (idx j = s; j < k; ++j) {
      for (idx i = s; i < k; ++i) {
        const R v = std::abs(kron[j * k + i]);
        if (v > best) {
          best = v;
          pr = i;
          pc = j;
        }
      }
    }
    if (best < R(8) * eps<R>() * std::max(kmax, R(1))) {
      return false;  // blocks share (nearly) an eigenvalue
    }
    if (pr != s) {
      for (idx j = 0; j < k; ++j) {
        std::swap(kron[j * k + s], kron[j * k + pr]);
      }
      std::swap(rhs[s], rhs[pr]);
    }
    if (pc != s) {
      for (idx i = 0; i < k; ++i) {
        std::swap(kron[s * k + i], kron[pc * k + i]);
      }
      std::swap(perm[s], perm[pc]);
    }
    for (idx i = s + 1; i < k; ++i) {
      const R m = kron[s * k + i] / kron[s * k + s];
      kron[s * k + i] = R(0);
      for (idx j = s + 1; j < k; ++j) {
        kron[j * k + i] -= m * kron[j * k + s];
      }
      rhs[i] -= m * rhs[s];
    }
  }
  R sol[4];
  for (idx i = k - 1; i >= 0; --i) {
    R v = rhs[i];
    for (idx j = i + 1; j < k; ++j) {
      v -= kron[j * k + i] * sol[j];
    }
    sol[i] = v / kron[i * k + i];
  }
  for (idx i = 0; i < k; ++i) {
    const idx orig = perm[i];
    x[static_cast<std::size_t>(orig / n1) * ldx + (orig % n1)] = sol[i];
  }
  return true;
}

}  // namespace detail

/// Swap the adjacent diagonal blocks T11 (n1 x n1, at j1) and T22 (n2 x n2)
/// of a real Schur form, updating Q (xLAEXC semantics; n1, n2 in {1, 2}).
/// Returns 0 on success, 1 if the swap was rejected as too ill-conditioned
/// (T and Q are then unchanged).
template <RealScalar R>
idx laexc(idx n, R* t, idx ldt, R* q, idx ldq, idx j1, idx n1, idx n2) {
  if (n1 == 0 || n2 == 0) {
    return 0;
  }
  const idx k = n1 + n2;
  auto at = [&](idx i, idx j) -> R& {
    return t[static_cast<std::size_t>(j) * ldt + i];
  };
  // Local copy of the k x k window.
  R d[16];
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < k; ++i) {
      d[j * k + i] = at(j1 + i, j1 + j);
    }
  }
  // Solve T11 X - X T22 = T12.
  R x[4] = {};
  if (!detail::sylvester_small(n1, n2, d, k, &d[n1 * k + n1], k, &d[n1 * k],
                               k, x, n1)) {
    return 1;
  }
  // Z = [[-X],[I]] spans the T22 invariant subspace; orthonormalize by QR
  // and extend to a square Q_loc.
  R zbuf[16] = {};
  for (idx j = 0; j < n2; ++j) {
    for (idx i = 0; i < n1; ++i) {
      zbuf[j * k + i] = -x[j * n1 + i];
    }
    zbuf[j * k + n1 + j] = R(1);
  }
  R tauq[4];
  R workq[8];
  geqr2(k, n2, zbuf, k, tauq, workq);
  orgqr(k, k, n2, zbuf, k, tauq);
  // Similarity on the window: D := Qloc^T D Qloc.
  R tmp[16];
  blas::gemm(Trans::Trans, Trans::NoTrans, k, k, k, R(1), zbuf, k, d, k, R(0),
             tmp, k);
  blas::gemm(Trans::NoTrans, Trans::NoTrans, k, k, k, R(1), tmp, k, zbuf, k,
             R(0), d, k);
  // Accept only if the (2,1) block collapsed.
  const R tol = R(20) * eps<R>() *
                std::max(lanhs(Norm::One, n, t, ldt), R(1));
  for (idx j = 0; j < n2; ++j) {
    for (idx i = n2; i < k; ++i) {
      if (std::abs(d[j * k + i]) > tol) {
        return 1;
      }
      d[j * k + i] = R(0);
    }
  }
  // Standardize any new 2x2 blocks.
  R rot[4][3];  // extra rotations: {pos, cs, sn}
  idx nrot = 0;
  if (n2 == 2) {
    R rt1r;
    R rt1i;
    R rt2r;
    R rt2i;
    R cs;
    R sn;
    lanv2(d[0], d[k], d[1], d[k + 1], rt1r, rt1i, rt2r, rt2i, cs, sn);
    // Apply to the remaining columns of the window rows 0,1.
    for (idx j = 2; j < k; ++j) {
      const R t0 = d[j * k];
      d[j * k] = cs * t0 + sn * d[j * k + 1];
      d[j * k + 1] = cs * d[j * k + 1] - sn * t0;
    }
    rot[nrot][0] = R(0);
    rot[nrot][1] = cs;
    rot[nrot][2] = sn;
    ++nrot;
  }
  if (n1 == 2) {
    const idx p = n2;
    R rt1r;
    R rt1i;
    R rt2r;
    R rt2i;
    R cs;
    R sn;
    lanv2(d[p * k + p], d[(p + 1) * k + p], d[p * k + p + 1],
          d[(p + 1) * k + p + 1], rt1r, rt1i, rt2r, rt2i, cs, sn);
    for (idx i = 0; i < p; ++i) {
      const R t0 = d[p * k + i];
      d[p * k + i] = cs * t0 + sn * d[(p + 1) * k + i];
      d[(p + 1) * k + i] = cs * d[(p + 1) * k + i] - sn * t0;
    }
    rot[nrot][0] = static_cast<R>(p);
    rot[nrot][1] = cs;
    rot[nrot][2] = sn;
    ++nrot;
  }
  // Commit: write the window back and apply Qloc (and the standardization
  // rotations) to the rest of T and to Q.
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < k; ++i) {
      at(j1 + i, j1 + j) = d[j * k + i];
    }
  }
  // Rows j1..j1+k-1, columns j1+k..n-1: W := Qloc^T W.
  if (j1 + k < n) {
    const idx ncols = n - j1 - k;
    std::vector<R> w(static_cast<std::size_t>(k) * ncols);
    lacpy(Part::All, k, ncols, &at(j1, j1 + k), ldt, w.data(), k);
    blas::gemm(Trans::Trans, Trans::NoTrans, k, ncols, k, R(1), zbuf, k,
               w.data(), k, R(0), &at(j1, j1 + k), ldt);
  }
  // Columns j1..j1+k-1, rows 0..j1-1: W := W Qloc.
  if (j1 > 0) {
    std::vector<R> w(static_cast<std::size_t>(j1) * k);
    lacpy(Part::All, j1, k, &at(0, j1), ldt, w.data(), j1);
    blas::gemm(Trans::NoTrans, Trans::NoTrans, j1, k, k, R(1), w.data(), j1,
               zbuf, k, R(0), &at(0, j1), ldt);
  }
  if (q != nullptr) {
    std::vector<R> w(static_cast<std::size_t>(n) * k);
    lacpy(Part::All, n, k, q + static_cast<std::size_t>(j1) * ldq, ldq,
          w.data(), n);
    blas::gemm(Trans::NoTrans, Trans::NoTrans, n, k, k, R(1), w.data(), n,
               zbuf, k, R(0), q + static_cast<std::size_t>(j1) * ldq, ldq);
  }
  // Apply the standardization rotations outside the window.
  for (idx r = 0; r < nrot; ++r) {
    const idx p = j1 + static_cast<idx>(rot[r][0]);
    const R cs = rot[r][1];
    const R sn = rot[r][2];
    if (p + 2 + (j1 + k - p - 2) < n) {
      // columns beyond the window for rows p, p+1
    }
    if (j1 + k < n) {
      blas::rot(n - j1 - k, &at(p, j1 + k), ldt, &at(p + 1, j1 + k), ldt, cs,
                sn);
    }
    if (j1 > 0) {
      blas::rot(j1, &at(0, p), 1, &at(0, p + 1), 1, cs, sn);
    }
    if (q != nullptr) {
      blas::rot(n, q + static_cast<std::size_t>(p) * ldq, 1,
                q + static_cast<std::size_t>(p + 1) * ldq, 1, cs, sn);
    }
  }
  return 0;
}

/// Complex Schur-form block swap (xTREXC step for adjacent 1x1 blocks):
/// swap T(j, j) and T(j+1, j+1) with a single rotation.
template <ComplexScalar T>
void trexc_swap(idx n, T* t, idx ldt, T* q, idx ldq, idx j) {
  using R = real_t<T>;
  auto at = [&](idx i, idx jj) -> T& {
    return t[static_cast<std::size_t>(jj) * ldt + i];
  };
  const T t11 = at(j, j);
  const T t22 = at(j + 1, j + 1);
  // Rotation from zlartg(t12, t22 - t11).
  const T f = at(j, j + 1);
  const T g = t22 - t11;
  R c;
  T s;
  {
    // Complex Givens: [c conj(s); -s c] [f; g] = [r; 0].
    const R fn = std::abs(f);
    const R gn = std::abs(g);
    if (gn == R(0)) {
      c = R(1);
      s = T(0);
    } else if (fn == R(0)) {
      c = R(0);
      s = std::conj(g) / T(gn);
    } else {
      const R d = lapy2(fn, gn);
      c = fn / d;
      s = (f / T(fn)) * (std::conj(g) / T(d));
    }
  }
  // Apply G from the left to rows j, j+1 (columns j..n-1) and G^H from the
  // right to columns j, j+1.
  for (idx col = j; col < n; ++col) {
    const T a0 = at(j, col);
    const T b0 = at(j + 1, col);
    at(j, col) = T(c) * a0 + s * b0;
    at(j + 1, col) = T(c) * b0 - std::conj(s) * a0;
  }
  for (idx row = 0; row <= j + 1; ++row) {
    const T a0 = at(row, j);
    const T b0 = at(row, j + 1);
    at(row, j) = T(c) * a0 + std::conj(s) * b0;
    at(row, j + 1) = T(c) * b0 - s * a0;
  }
  at(j + 1, j) = T(0);
  if (q != nullptr) {
    for (idx row = 0; row < n; ++row) {
      T& a0 = q[static_cast<std::size_t>(j) * ldq + row];
      T& b0 = q[static_cast<std::size_t>(j + 1) * ldq + row];
      const T tmp = T(c) * a0 + std::conj(s) * b0;
      b0 = T(c) * b0 - s * a0;
      a0 = tmp;
    }
  }
}

/// Driver: real Schur factorization A = Z T Z^T (xGEES). With a selector,
/// the selected eigenvalues are moved to the top-left and their count
/// returned in sdim (conjugate pairs move together). `select(wr, wi)`
/// decides membership. Returns 0, >0 on QR failure, or n+1 if reordering
/// stalled on an ill-conditioned swap.
template <RealScalar R, class Select>
idx gees(Job jobvs, idx n, R* a, idx lda, idx& sdim, R* wr, R* wi, R* vs,
         idx ldvs, Select&& select, bool do_sort) {
  sdim = 0;
  if (n == 0) {
    return 0;
  }
  std::vector<R> tau(static_cast<std::size_t>(std::max<idx>(n - 1, 1)));
  gehrd(n, 0, n - 1, a, lda, tau.data());
  R* z = nullptr;
  if (jobvs == Job::Vec) {
    lacpy(Part::All, n, n, a, lda, vs, ldvs);
    orghr(n, 0, n - 1, vs, ldvs, tau.data());
    z = vs;
  }
  if (n > 2) {
    laset(Part::Lower, n - 2, n - 2, R(0), R(0), a + 2, lda);
  }
  idx info = hseqr(n, 0, n - 1, a, lda, wr, wi, z, ldvs);
  if (info != 0) {
    return info;
  }
  if (!do_sort) {
    return 0;
  }
  // Selection sort over diagonal blocks: repeatedly bring the first
  // selected block below the accepted prefix up to the boundary.
  auto block_size_at = [&](idx j) -> idx {
    return (j < n - 1 && a[static_cast<std::size_t>(j) * lda + j + 1] != R(0))
               ? 2
               : 1;
  };
  bool swap_failed = false;
  idx top = 0;
  while (top < n) {
    // Find first selected block at or after `top`.
    idx j = top;
    idx bs = 0;
    bool found = false;
    while (j < n) {
      bs = block_size_at(j);
      if (select(wr[j], wi[j])) {
        found = true;
        break;
      }
      j += bs;
    }
    if (!found) {
      break;
    }
    // Bubble it up to `top`.
    while (j > top) {
      // Find the block immediately above j.
      idx p = top;
      idx prev = top;
      while (p < j) {
        prev = p;
        p += block_size_at(p);
      }
      const idx n1 = block_size_at(prev);
      const idx n2 = bs;
      if (laexc(n, a, lda, z, ldvs, prev, n1, n2) != 0) {
        swap_failed = true;
        break;
      }
      // Update eigenvalues around the swapped window.
      for (idx q2 = prev; q2 < prev + n1 + n2; ++q2) {
        if (block_size_at(q2) == 2) {
          R a11 = a[static_cast<std::size_t>(q2) * lda + q2];
          R a12 = a[static_cast<std::size_t>(q2 + 1) * lda + q2];
          R a21 = a[static_cast<std::size_t>(q2) * lda + q2 + 1];
          R a22 = a[static_cast<std::size_t>(q2 + 1) * lda + q2 + 1];
          const R p2 = (a11 + a22) / R(2);
          const R disc = (a11 - p2) * (a22 - p2) - a12 * a21;
          if (disc >= R(0)) {
            wr[q2] = p2;
            wr[q2 + 1] = p2;
            wi[q2] = std::sqrt(disc);
            wi[q2 + 1] = -wi[q2];
          } else {
            const R rd = std::sqrt(-disc);
            wr[q2] = p2 + rd;
            wr[q2 + 1] = p2 - rd;
            wi[q2] = R(0);
            wi[q2 + 1] = R(0);
          }
          ++q2;
        } else {
          wr[q2] = a[static_cast<std::size_t>(q2) * lda + q2];
          wi[q2] = R(0);
        }
      }
      j = prev;
    }
    if (swap_failed) {
      break;
    }
    top += bs;
    sdim = top;
  }
  if (!swap_failed) {
    sdim = 0;
    idx j = 0;
    while (j < n && select(wr[j], wi[j])) {
      const idx bs = block_size_at(j);
      sdim += bs;
      j += bs;
    }
  }
  return swap_failed ? n + 1 : 0;
}

/// Driver: complex Schur factorization with optional ordering (xGEES).
template <ComplexScalar T, class Select>
idx gees(Job jobvs, idx n, T* a, idx lda, idx& sdim, T* w, T* vs, idx ldvs,
         Select&& select, bool do_sort) {
  sdim = 0;
  if (n == 0) {
    return 0;
  }
  std::vector<T> tau(static_cast<std::size_t>(std::max<idx>(n - 1, 1)));
  gehrd(n, 0, n - 1, a, lda, tau.data());
  T* z = nullptr;
  if (jobvs == Job::Vec) {
    lacpy(Part::All, n, n, a, lda, vs, ldvs);
    orghr(n, 0, n - 1, vs, ldvs, tau.data());
    z = vs;
  }
  if (n > 2) {
    laset(Part::Lower, n - 2, n - 2, T(0), T(0), a + 2, lda);
  }
  idx info = hseqr(n, 0, n - 1, a, lda, w, z, ldvs);
  if (info != 0) {
    return info;
  }
  if (do_sort) {
    // Stable selection sort with adjacent swaps.
    idx top = 0;
    for (idx j = 0; j < n; ++j) {
      if (select(w[j])) {
        for (idx p = j; p > top; --p) {
          trexc_swap(n, a, lda, z, ldvs, p - 1);
          std::swap(w[p - 1], w[p]);
        }
        ++top;
      }
    }
    // Refresh eigenvalues from the reordered diagonal.
    for (idx j = 0; j < n; ++j) {
      w[j] = a[static_cast<std::size_t>(j) * lda + j];
    }
    sdim = top;
  }
  return 0;
}

}  // namespace la::lapack
