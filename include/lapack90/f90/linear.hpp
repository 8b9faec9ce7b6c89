// lapack90/f90/linear.hpp
//
// F90_LAPACK driver routines for linear equations (paper §3, §7 and
// Appendix G). These are the paper's headline artifact: shape-deducing,
// optional-argument generic interfaces with the ERINFO error protocol.
//
//   CALL LA_GESV( A, B, IPIV=ipiv, INFO=info )
//   ->  la::gesv(A, B);                        // both optional omitted
//   ->  la::gesv(A, B, ipiv, &info);           // both requested
//
// Optional output arrays are std::span (empty = not requested); optional
// scalars are pointers (nullptr = not requested). Every routine validates
// its arguments in the paper's order, producing the documented negative
// INFO codes, and finishes through erinfo: with no `info` out-parameter a
// failure throws la::Error carrying ERINFO's message.
#pragma once

#include <span>
#include <vector>

#include "lapack90/core/banded.hpp"
#include "lapack90/core/error.hpp"
#include "lapack90/core/matrix.hpp"
#include "lapack90/core/packed.hpp"
#include "lapack90/core/workspace.hpp"
#include "lapack90/f77/f77_lapack.hpp"

namespace la::f90 {

namespace detail {

/// Workspace allocation with the -100 failure-injection hook (the C++
/// analog of ALLOCATE(..., STAT=istat) in the paper's wrapper listings).
template <class T>
bool allocate(std::vector<T>& buf, std::size_t n, idx& linfo) {
  if (alloc_should_fail()) {
    linfo = -100;
    return false;
  }
  buf.resize(n);
  return true;
}

struct PivotTag {};

/// Reusable pivot workspace for the simple drivers when the caller omits
/// IPIV: a per-thread, grow-only la::detail::work_buffer, so the
/// steady-state solve path performs no heap allocation. The -100
/// failure-injection hook is checked on every call, exactly like
/// allocate().
inline idx* pivot_workspace(idx n, idx& linfo) {
  if (alloc_should_fail()) {
    linfo = -100;
    return nullptr;
  }
  return la::detail::work_buffer<idx, PivotTag>(static_cast<std::size_t>(n));
}

}  // namespace detail

/// LA_GESV( A, B, IPIV=ipiv, INFO=info ) — solves A X = B.
/// INFO: -1 A not square; -2 size(B,1) /= size(A,1); -3 bad IPIV size;
/// -100 workspace allocation failed; > 0 U(i,i) == 0 (singular).
template <Scalar T>
void gesv(Matrix<T>& a, Matrix<T>& b, std::span<idx> ipiv = {},
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  const idx nrhs = b.cols();
  idx* lpiv = ipiv.data();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -2;
  } else if (!ipiv.empty() && static_cast<idx>(ipiv.size()) != n) {
    linfo = -3;
  } else if (n > 0) {
    if (ipiv.empty()) {
      lpiv = detail::pivot_workspace(n, linfo);
    }
    if (linfo == 0) {
      f77::la_gesv(n, nrhs, a.data(), a.ld(), lpiv, b.data(), b.ld(), linfo);
    }
  }
  erinfo(linfo, "LA_GESV", info);
}

/// LA_GESV with a single right-hand side vector (the B(:) rank-1 overload
/// the paper dispatches to SGESV1_F90).
template <Scalar T>
void gesv(Matrix<T>& a, Vector<T>& b, std::span<idx> ipiv = {},
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  idx* lpiv = ipiv.data();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.size() != n) {
    linfo = -2;
  } else if (!ipiv.empty() && static_cast<idx>(ipiv.size()) != n) {
    linfo = -3;
  } else if (n > 0) {
    if (ipiv.empty()) {
      lpiv = detail::pivot_workspace(n, linfo);
    }
    if (linfo == 0) {
      f77::la_gesv(n, idx{1}, a.data(), a.ld(), lpiv, b.data(),
                   std::max<idx>(n, 1), linfo);
    }
  }
  erinfo(linfo, "LA_GESV", info);
}

/// LA_GBSV( AB, B, IPIV=ipiv, INFO=info ) — band system solve.
template <Scalar T>
void gbsv(BandMatrix<T>& ab, Matrix<T>& b, std::span<idx> ipiv = {},
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ab.n();
  idx* lpiv = ipiv.data();
  if (b.rows() != n) {
    linfo = -2;
  } else if (!ipiv.empty() && static_cast<idx>(ipiv.size()) != n) {
    linfo = -3;
  } else if (n > 0) {
    if (ipiv.empty()) {
      lpiv = detail::pivot_workspace(n, linfo);
    }
    if (linfo == 0) {
      f77::la_gbsv(n, ab.kl(), ab.ku(), b.cols(), ab.data(), ab.ldab(), lpiv,
                   b.data(), b.ld(), linfo);
    }
  }
  erinfo(linfo, "LA_GBSV", info);
}

/// LA_GTSV( DL, D, DU, B, INFO=info ) — tridiagonal solve.
template <Scalar T>
void gtsv(Vector<T>& dl, Vector<T>& d, Vector<T>& du, Matrix<T>& b,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = d.size();
  if (n > 0 && (dl.size() != n - 1 || du.size() != n - 1)) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -4;
  } else if (n > 0) {
    f77::la_gtsv(n, b.cols(), dl.data(), d.data(), du.data(), b.data(),
                 b.ld(), linfo);
  }
  erinfo(linfo, "LA_GTSV", info);
}

/// LA_POSV( A, B, UPLO=uplo, INFO=info ) — positive definite solve.
template <Scalar T>
void posv(Matrix<T>& a, Matrix<T>& b, Uplo uplo = Uplo::Upper,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -2;
  } else if (n > 0) {
    f77::la_posv(uplo, n, b.cols(), a.data(), a.ld(), b.data(), b.ld(),
                 linfo);
  }
  erinfo(linfo, "LA_POSV", info);
}

/// LA_POSV with a single right-hand side.
template <Scalar T>
void posv(Matrix<T>& a, Vector<T>& b, Uplo uplo = Uplo::Upper,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.size() != n) {
    linfo = -2;
  } else if (n > 0) {
    f77::la_posv(uplo, n, idx{1}, a.data(), a.ld(), b.data(),
                 std::max<idx>(n, 1), linfo);
  }
  erinfo(linfo, "LA_POSV", info);
}

/// LA_PPSV( AP, B, UPLO=uplo, INFO=info ) — packed positive definite.
template <Scalar T>
void ppsv(PackedMatrix<T>& ap, Matrix<T>& b, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ap.n();
  if (b.rows() != n) {
    linfo = -2;
  } else if (n > 0) {
    f77::la_ppsv(ap.uplo(), n, b.cols(), ap.data(), b.data(), b.ld(), linfo);
  }
  erinfo(linfo, "LA_PPSV", info);
}

/// LA_PBSV( AB, B, UPLO=uplo, INFO=info ) — band positive definite.
template <Scalar T>
void pbsv(SymBandMatrix<T>& ab, Matrix<T>& b, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ab.n();
  if (b.rows() != n) {
    linfo = -2;
  } else if (n > 0) {
    f77::la_pbsv(ab.uplo(), n, ab.kd(), b.cols(), ab.data(), ab.ldab(),
                 b.data(), b.ld(), linfo);
  }
  erinfo(linfo, "LA_PBSV", info);
}

/// LA_PTSV( D, E, B, INFO=info ) — s.p.d. tridiagonal solve; D is real.
template <Scalar T>
void ptsv(Vector<real_t<T>>& d, Vector<T>& e, Matrix<T>& b,
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = d.size();
  if (n > 0 && e.size() != n - 1) {
    linfo = -2;
  } else if (b.rows() != n) {
    linfo = -3;
  } else if (n > 0) {
    f77::la_ptsv<T>(n, b.cols(), d.data(), e.data(), b.data(), b.ld(), linfo);
  }
  erinfo(linfo, "LA_PTSV", info);
}

/// LA_SYSV( A, B, UPLO=uplo, IPIV=ipiv, INFO=info ) — symmetric
/// indefinite solve (also serves complex symmetric matrices).
template <Scalar T>
void sysv(Matrix<T>& a, Matrix<T>& b, Uplo uplo = Uplo::Upper,
          std::span<idx> ipiv = {}, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  idx* lpiv = ipiv.data();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -2;
  } else if (!ipiv.empty() && static_cast<idx>(ipiv.size()) != n) {
    linfo = -4;
  } else if (n > 0) {
    if (ipiv.empty()) {
      lpiv = detail::pivot_workspace(n, linfo);
    }
    if (linfo == 0) {
      f77::la_sysv(uplo, n, b.cols(), a.data(), a.ld(), lpiv, b.data(),
                   b.ld(), linfo);
    }
  }
  erinfo(linfo, "LA_SYSV", info);
}

/// LA_HESV — Hermitian indefinite solve.
template <Scalar T>
void hesv(Matrix<T>& a, Matrix<T>& b, Uplo uplo = Uplo::Upper,
          std::span<idx> ipiv = {}, idx* info = nullptr) {
  idx linfo = 0;
  const idx n = a.rows();
  idx* lpiv = ipiv.data();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -2;
  } else if (!ipiv.empty() && static_cast<idx>(ipiv.size()) != n) {
    linfo = -4;
  } else if (n > 0) {
    if (ipiv.empty()) {
      lpiv = detail::pivot_workspace(n, linfo);
    }
    if (linfo == 0) {
      f77::la_hesv(uplo, n, b.cols(), a.data(), a.ld(), lpiv, b.data(),
                   b.ld(), linfo);
    }
  }
  erinfo(linfo, "LA_HESV", info);
}

/// LA_SPSV — packed symmetric indefinite solve.
template <Scalar T>
void spsv(PackedMatrix<T>& ap, Matrix<T>& b, std::span<idx> ipiv = {},
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ap.n();
  idx* lpiv = ipiv.data();
  if (b.rows() != n) {
    linfo = -2;
  } else if (!ipiv.empty() && static_cast<idx>(ipiv.size()) != n) {
    linfo = -4;
  } else if (n > 0) {
    if (ipiv.empty()) {
      lpiv = detail::pivot_workspace(n, linfo);
    }
    if (linfo == 0) {
      f77::la_spsv(ap.uplo(), n, b.cols(), ap.data(), lpiv, b.data(), b.ld(),
                   linfo);
    }
  }
  erinfo(linfo, "LA_SPSV", info);
}

/// LA_HPSV — packed Hermitian indefinite solve.
template <Scalar T>
void hpsv(PackedMatrix<T>& ap, Matrix<T>& b, std::span<idx> ipiv = {},
          idx* info = nullptr) {
  idx linfo = 0;
  const idx n = ap.n();
  idx* lpiv = ipiv.data();
  if (b.rows() != n) {
    linfo = -2;
  } else if (!ipiv.empty() && static_cast<idx>(ipiv.size()) != n) {
    linfo = -4;
  } else if (n > 0) {
    if (ipiv.empty()) {
      lpiv = detail::pivot_workspace(n, linfo);
    }
    if (linfo == 0) {
      f77::la_hpsv(ap.uplo(), n, b.cols(), ap.data(), lpiv, b.data(), b.ld(),
                   linfo);
    }
  }
  erinfo(linfo, "LA_HPSV", info);
}

// ---------------------------------------------------------------------------
// Expert drivers (LA_GESVX family): keep A/B, return X plus bounds.
// ---------------------------------------------------------------------------

/// LA_GESVX( A, B, X, TRANS=, EQUED(equilibrate)=, FERR=, BERR=, RCOND=,
/// RPVGRW=, INFO= ). A and B are preserved (copies are factored/scaled
/// internally, matching the FACT='E' behaviour with fresh workspace).
template <Scalar T>
void gesvx(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& x,
           Trans trans = Trans::NoTrans, bool equilibrate = true,
           std::span<real_t<T>> ferr = {}, std::span<real_t<T>> berr = {},
           real_t<T>* rcond = nullptr, real_t<T>* rpvgrw = nullptr,
           idx* info = nullptr) {
  using R = real_t<T>;
  idx linfo = 0;
  const idx n = a.rows();
  const idx nrhs = b.cols();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -2;
  } else if (x.rows() != n || x.cols() != nrhs) {
    linfo = -3;
  } else if (!ferr.empty() && static_cast<idx>(ferr.size()) != nrhs) {
    linfo = -6;
  } else if (!berr.empty() && static_cast<idx>(berr.size()) != nrhs) {
    linfo = -7;
  } else if (n > 0) {
    std::vector<T> ac;
    std::vector<T> bc;
    std::vector<T> af;
    std::vector<idx> ipiv;
    std::vector<R> r;
    std::vector<R> c;
    std::vector<R> fb;
    const std::size_t nn = static_cast<std::size_t>(n) * n;
    if (detail::allocate(ac, nn, linfo) && detail::allocate(af, nn, linfo) &&
        detail::allocate(bc, static_cast<std::size_t>(n) * nrhs, linfo) &&
        detail::allocate(ipiv, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(r, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(c, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(fb, static_cast<std::size_t>(2 * nrhs), linfo)) {
      lapack::lacpy(lapack::Part::All, n, n, a.data(), a.ld(), ac.data(), n);
      lapack::lacpy(lapack::Part::All, n, nrhs, b.data(), b.ld(), bc.data(),
                    n);
      R lrcond(0);
      R lrpvgrw(0);
      f77::la_gesvx(equilibrate, trans, n, nrhs, ac.data(), n, af.data(), n,
                    ipiv.data(), r.data(), c.data(), bc.data(), n, x.data(),
                    x.ld(), lrcond, fb.data(), fb.data() + nrhs, &lrpvgrw,
                    linfo);
      if (rcond != nullptr) {
        *rcond = lrcond;
      }
      if (rpvgrw != nullptr) {
        *rpvgrw = lrpvgrw;
      }
      for (idx j = 0; j < nrhs && !ferr.empty(); ++j) {
        ferr[j] = fb[j];
      }
      for (idx j = 0; j < nrhs && !berr.empty(); ++j) {
        berr[j] = fb[nrhs + j];
      }
    }
  }
  erinfo(linfo, "LA_GESVX", info);
}

/// LA_POSVX( A, B, X, UPLO=, FERR=, BERR=, RCOND=, INFO= ).
template <Scalar T>
void posvx(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& x,
           Uplo uplo = Uplo::Upper, std::span<real_t<T>> ferr = {},
           std::span<real_t<T>> berr = {}, real_t<T>* rcond = nullptr,
           idx* info = nullptr) {
  using R = real_t<T>;
  idx linfo = 0;
  const idx n = a.rows();
  const idx nrhs = b.cols();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -2;
  } else if (x.rows() != n || x.cols() != nrhs) {
    linfo = -3;
  } else if (n > 0) {
    std::vector<T> ac;
    std::vector<T> af;
    std::vector<R> fb;
    if (detail::allocate(ac, static_cast<std::size_t>(n) * n, linfo) &&
        detail::allocate(af, static_cast<std::size_t>(n) * n, linfo) &&
        detail::allocate(fb, static_cast<std::size_t>(2 * nrhs), linfo)) {
      lapack::lacpy(lapack::Part::All, n, n, a.data(), a.ld(), ac.data(), n);
      R lrcond(0);
      f77::la_posvx(uplo, n, nrhs, ac.data(), n, af.data(), n,
                    b.data(), b.ld(), x.data(), x.ld(),
                    lrcond, fb.data(), fb.data() + nrhs, linfo);
      if (rcond != nullptr) {
        *rcond = lrcond;
      }
      for (idx j = 0; j < nrhs && !ferr.empty(); ++j) {
        ferr[j] = fb[j];
      }
      for (idx j = 0; j < nrhs && !berr.empty(); ++j) {
        berr[j] = fb[nrhs + j];
      }
    }
  }
  erinfo(linfo, "LA_POSVX", info);
}

/// LA_SYSVX( A, B, X, UPLO=, IPIV=, FERR=, BERR=, RCOND=, INFO= ).
template <Scalar T>
void sysvx(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& x,
           Uplo uplo = Uplo::Upper, std::span<idx> ipiv = {},
           std::span<real_t<T>> ferr = {}, std::span<real_t<T>> berr = {},
           real_t<T>* rcond = nullptr, idx* info = nullptr) {
  using R = real_t<T>;
  idx linfo = 0;
  const idx n = a.rows();
  const idx nrhs = b.cols();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -2;
  } else if (x.rows() != n || x.cols() != nrhs) {
    linfo = -3;
  } else if (!ipiv.empty() && static_cast<idx>(ipiv.size()) != n) {
    linfo = -5;
  } else if (n > 0) {
    std::vector<T> af;
    std::vector<idx> lpiv_store;
    std::vector<R> fb;
    idx* lpiv = ipiv.data();
    if (detail::allocate(af, static_cast<std::size_t>(n) * n, linfo) &&
        detail::allocate(fb, static_cast<std::size_t>(2 * nrhs), linfo)) {
      if (ipiv.empty()) {
        if (detail::allocate(lpiv_store, static_cast<std::size_t>(n),
                             linfo)) {
          lpiv = lpiv_store.data();
        }
      }
      if (linfo == 0) {
        R lrcond(0);
        f77::la_sysvx(uplo, n, nrhs, a.data(), a.ld(), af.data(), n, lpiv,
                      b.data(), b.ld(), x.data(), x.ld(), lrcond, fb.data(),
                      fb.data() + nrhs, linfo);
        if (rcond != nullptr) {
          *rcond = lrcond;
        }
        for (idx j = 0; j < nrhs && !ferr.empty(); ++j) {
          ferr[j] = fb[j];
        }
        for (idx j = 0; j < nrhs && !berr.empty(); ++j) {
          berr[j] = fb[nrhs + j];
        }
      }
    }
  }
  erinfo(linfo, "LA_SYSVX", info);
}

/// LA_HESVX — Hermitian expert driver.
template <Scalar T>
void hesvx(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& x,
           Uplo uplo = Uplo::Upper, std::span<idx> ipiv = {},
           std::span<real_t<T>> ferr = {}, std::span<real_t<T>> berr = {},
           real_t<T>* rcond = nullptr, idx* info = nullptr) {
  using R = real_t<T>;
  idx linfo = 0;
  const idx n = a.rows();
  const idx nrhs = b.cols();
  if (a.cols() != n) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -2;
  } else if (x.rows() != n || x.cols() != nrhs) {
    linfo = -3;
  } else if (!ipiv.empty() && static_cast<idx>(ipiv.size()) != n) {
    linfo = -5;
  } else if (n > 0) {
    std::vector<T> af;
    std::vector<idx> lpiv_store;
    std::vector<R> fb;
    idx* lpiv = ipiv.data();
    if (detail::allocate(af, static_cast<std::size_t>(n) * n, linfo) &&
        detail::allocate(fb, static_cast<std::size_t>(2 * nrhs), linfo)) {
      if (ipiv.empty()) {
        if (detail::allocate(lpiv_store, static_cast<std::size_t>(n),
                             linfo)) {
          lpiv = lpiv_store.data();
        }
      }
      if (linfo == 0) {
        R lrcond(0);
        f77::la_hesvx(uplo, n, nrhs, a.data(), a.ld(), af.data(), n, lpiv,
                      b.data(), b.ld(), x.data(), x.ld(), lrcond, fb.data(),
                      fb.data() + nrhs, linfo);
        if (rcond != nullptr) {
          *rcond = lrcond;
        }
        for (idx j = 0; j < nrhs && !ferr.empty(); ++j) {
          ferr[j] = fb[j];
        }
        for (idx j = 0; j < nrhs && !berr.empty(); ++j) {
          berr[j] = fb[nrhs + j];
        }
      }
    }
  }
  erinfo(linfo, "LA_HESVX", info);
}

/// LA_GBSVX( AB, B, X, TRANS=, FERR=, BERR=, RCOND=, INFO= ).
template <Scalar T>
void gbsvx(const BandMatrix<T>& ab, const Matrix<T>& b, Matrix<T>& x,
           Trans trans = Trans::NoTrans, std::span<real_t<T>> ferr = {},
           std::span<real_t<T>> berr = {}, real_t<T>* rcond = nullptr,
           idx* info = nullptr) {
  using R = real_t<T>;
  idx linfo = 0;
  const idx n = ab.n();
  const idx nrhs = b.cols();
  if (b.rows() != n) {
    linfo = -2;
  } else if (x.rows() != n || x.cols() != nrhs) {
    linfo = -3;
  } else if (n > 0) {
    std::vector<T> afb;
    std::vector<idx> ipiv;
    std::vector<R> fb;
    if (detail::allocate(afb,
                         static_cast<std::size_t>(ab.ldab()) * n, linfo) &&
        detail::allocate(ipiv, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(fb, static_cast<std::size_t>(2 * nrhs), linfo)) {
      R lrcond(0);
      f77::la_gbsvx(trans, n, ab.kl(), ab.ku(), nrhs, ab.data(), ab.ldab(),
                    afb.data(), ab.ldab(), ipiv.data(), b.data(), b.ld(),
                    x.data(), x.ld(), lrcond, fb.data(), fb.data() + nrhs,
                    linfo);
      if (rcond != nullptr) {
        *rcond = lrcond;
      }
      for (idx j = 0; j < nrhs && !ferr.empty(); ++j) {
        ferr[j] = fb[j];
      }
      for (idx j = 0; j < nrhs && !berr.empty(); ++j) {
        berr[j] = fb[nrhs + j];
      }
    }
  }
  erinfo(linfo, "LA_GBSVX", info);
}

/// LA_GTSVX( DL, D, DU, B, X=, TRANS=, FERR=, BERR=, RCOND=, INFO= ).
template <Scalar T>
void gtsvx(const Vector<T>& dl, const Vector<T>& d, const Vector<T>& du,
           const Matrix<T>& b, Matrix<T>& x, Trans trans = Trans::NoTrans,
           std::span<real_t<T>> ferr = {}, std::span<real_t<T>> berr = {},
           real_t<T>* rcond = nullptr, idx* info = nullptr) {
  using R = real_t<T>;
  idx linfo = 0;
  const idx n = d.size();
  const idx nrhs = b.cols();
  if (n > 0 && (dl.size() != n - 1 || du.size() != n - 1)) {
    linfo = -1;
  } else if (b.rows() != n) {
    linfo = -4;
  } else if (x.rows() != n || x.cols() != nrhs) {
    linfo = -5;
  } else if (n > 0) {
    std::vector<T> dlf;
    std::vector<T> df;
    std::vector<T> duf;
    std::vector<T> du2;
    std::vector<idx> ipiv;
    std::vector<R> fb;
    if (detail::allocate(dlf, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(df, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(duf, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(du2, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(ipiv, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(fb, static_cast<std::size_t>(2 * nrhs), linfo)) {
      R lrcond(0);
      f77::la_gtsvx(trans, n, nrhs, dl.data(), d.data(), du.data(),
                    dlf.data(), df.data(), duf.data(), du2.data(),
                    ipiv.data(), b.data(), b.ld(), x.data(), x.ld(), lrcond,
                    fb.data(), fb.data() + nrhs, linfo);
      if (rcond != nullptr) {
        *rcond = lrcond;
      }
      for (idx j = 0; j < nrhs && !ferr.empty(); ++j) {
        ferr[j] = fb[j];
      }
      for (idx j = 0; j < nrhs && !berr.empty(); ++j) {
        berr[j] = fb[nrhs + j];
      }
    }
  }
  erinfo(linfo, "LA_GTSVX", info);
}

/// LA_PTSVX( D, E, B, X, FERR=, BERR=, RCOND=, INFO= ).
template <Scalar T>
void ptsvx(const Vector<real_t<T>>& d, const Vector<T>& e,
           const Matrix<T>& b, Matrix<T>& x, std::span<real_t<T>> ferr = {},
           std::span<real_t<T>> berr = {}, real_t<T>* rcond = nullptr,
           idx* info = nullptr) {
  using R = real_t<T>;
  idx linfo = 0;
  const idx n = d.size();
  const idx nrhs = b.cols();
  if (n > 0 && e.size() != n - 1) {
    linfo = -2;
  } else if (b.rows() != n) {
    linfo = -3;
  } else if (x.rows() != n || x.cols() != nrhs) {
    linfo = -4;
  } else if (n > 0) {
    std::vector<R> df;
    std::vector<T> ef;
    std::vector<R> fb;
    if (detail::allocate(df, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(ef, static_cast<std::size_t>(n), linfo) &&
        detail::allocate(fb, static_cast<std::size_t>(2 * nrhs), linfo)) {
      R lrcond(0);
      f77::la_ptsvx<T>(n, nrhs, d.data(), e.data(), df.data(), ef.data(),
                       b.data(), b.ld(), x.data(), x.ld(), lrcond, fb.data(),
                       fb.data() + nrhs, linfo);
      if (rcond != nullptr) {
        *rcond = lrcond;
      }
      for (idx j = 0; j < nrhs && !ferr.empty(); ++j) {
        ferr[j] = fb[j];
      }
      for (idx j = 0; j < nrhs && !berr.empty(); ++j) {
        berr[j] = fb[nrhs + j];
      }
    }
  }
  erinfo(linfo, "LA_PTSVX", info);
}

}  // namespace la::f90
