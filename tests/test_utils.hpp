// tests/test_utils.hpp
//
// Shared helpers for the gtest suite: the four LAPACK element types as a
// typed-test list, random matrix construction, residual metrics (the
// LAPACK scaled ratios), and tolerance selection per precision.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>

#include "lapack90/lapack90.hpp"

namespace la::test {

using AllTypes = ::testing::Types<float, double, std::complex<float>,
                                  std::complex<double>>;
using RealTypes = ::testing::Types<float, double>;
using ComplexTypes =
    ::testing::Types<std::complex<float>, std::complex<double>>;

/// Base tolerance: 30 * eps, LAPACK's own test threshold scale.
template <Scalar T>
[[nodiscard]] real_t<T> tol(real_t<T> factor = real_t<T>(30)) {
  return factor * eps<T>();
}

/// Deterministic per-test seed.
[[nodiscard]] inline Iseed seed_for(int salt) {
  return Iseed{idx(salt % 4096), idx((salt * 7) % 4096),
               idx((salt * 13) % 4096), idx(((salt * 29) % 4096) | 1)};
}

/// Random general matrix, entries uniform in (-1, 1).
template <Scalar T>
[[nodiscard]] Matrix<T> random_matrix(idx m, idx n, Iseed& seed) {
  Matrix<T> a(m, n);
  larnv(Dist::Uniform11, seed, static_cast<idx>(a.size()), a.data());
  return a;
}

/// Random symmetric matrix (complex-symmetric for complex T).
template <Scalar T>
[[nodiscard]] Matrix<T> random_symmetric(idx n, Iseed& seed) {
  Matrix<T> a = random_matrix<T>(n, n, seed);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < j; ++i) {
      a(j, i) = a(i, j);
    }
  }
  return a;
}

/// Random Hermitian matrix (== symmetric for real T).
template <Scalar T>
[[nodiscard]] Matrix<T> random_hermitian(idx n, Iseed& seed) {
  Matrix<T> a = random_matrix<T>(n, n, seed);
  for (idx j = 0; j < n; ++j) {
    a(j, j) = T(real_part(a(j, j)));
    for (idx i = 0; i < j; ++i) {
      a(j, i) = conj_if(a(i, j));
    }
  }
  return a;
}

/// Random Hermitian positive definite matrix: A A^H + n I.
template <Scalar T>
[[nodiscard]] Matrix<T> random_spd(idx n, Iseed& seed) {
  Matrix<T> g = random_matrix<T>(n, n, seed);
  Matrix<T> a(n, n);
  blas::gemm(Trans::NoTrans, conj_trans_for<T>(), n, n, n, T(1), g.data(),
             g.ld(), g.data(), g.ld(), T(0), a.data(), a.ld());
  for (idx i = 0; i < n; ++i) {
    a(i, i) += T(real_t<T>(n));
  }
  return a;
}

/// Dense product C = op(A) op(B) via the reference kernel.
template <Scalar T>
[[nodiscard]] Matrix<T> multiply(const Matrix<T>& a, const Matrix<T>& b,
                                 Trans ta = Trans::NoTrans,
                                 Trans tb = Trans::NoTrans) {
  const idx m = ta == Trans::NoTrans ? a.rows() : a.cols();
  const idx k = ta == Trans::NoTrans ? a.cols() : a.rows();
  const idx n = tb == Trans::NoTrans ? b.cols() : b.rows();
  Matrix<T> c(m, n);
  blas::gemm_naive(ta, tb, m, n, k, T(1), a.data(), a.ld(), b.data(), b.ld(),
                   T(0), c.data(), c.ld());
  return c;
}

/// Dense expansion of a stored triangle (unit diagonal honoured).
template <Scalar T>
[[nodiscard]] Matrix<T> dense_triangle(const Matrix<T>& a, Uplo uplo,
                                       Diag diag) {
  const idx n = a.rows();
  Matrix<T> d(n, n);
  d.fill(T(0));
  for (idx j = 0; j < n; ++j) {
    const idx lo = uplo == Uplo::Upper ? 0 : j;
    const idx hi = uplo == Uplo::Upper ? j : n - 1;
    for (idx i = lo; i <= hi; ++i) {
      d(i, j) = a(i, j);
    }
    if (diag == Diag::Unit) {
      d(j, j) = T(1);
    }
  }
  return d;
}

/// max |a_ij - b_ij|.
template <Scalar T>
[[nodiscard]] real_t<T> max_diff(const Matrix<T>& a, const Matrix<T>& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  real_t<T> m(0);
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      m = std::max(m, real_t<T>(std::abs(a(i, j) - b(i, j))));
    }
  }
  return m;
}

/// Checks syrk (herm false, two false), herk, syr2k or her2k on an n x n C
/// with depth k against explicit sums, over both uplo, every trans the
/// routine accepts (N/T for syrk, N/C for herk, all three for real T),
/// alpha in {0, other} and beta in {0, 1, other}. beta == 0 starts C at
/// NaN, so the overwrite is checked; the unstored triangle must come back
/// bit-unchanged and a Hermitian diagonal exactly real.
template <Scalar T>
void check_rank_update(bool herm, bool two, idx n, idx k, Iseed& seed) {
  using R = real_t<T>;
  auto cj = [herm](T v) { return herm ? conj_if(v) : v; };
  const R nan = std::numeric_limits<R>::quiet_NaN();
  const T alphas[] = {T(0), herm && !two ? T(R(0.75))
                                         : make_scalar<T>(R(0.5), R(1.0))};
  const T betas[] = {T(0), T(1),
                     herm ? T(R(-1.5)) : make_scalar<T>(R(-1.5), R(0.25))};
  for (Trans trans : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
    if (is_complex_v<T> &&
        trans == (herm ? Trans::Trans : Trans::ConjTrans)) {
      continue;
    }
    const bool nt = trans == Trans::NoTrans;
    const Matrix<T> a =
        nt ? random_matrix<T>(n, k, seed) : random_matrix<T>(k, n, seed);
    const Matrix<T> b = two ? (nt ? random_matrix<T>(n, k, seed)
                                  : random_matrix<T>(k, n, seed))
                            : a;
    // X = op(A), Y = op(B) (Y = X for rank-k); P = X op(Y), Q = Y op(X),
    // where op is ^T for the symmetric and ^H for the Hermitian routines.
    auto op_elem = [&](const Matrix<T>& m, idx i, idx l) {
      return nt ? m(i, l) : cj(m(l, i));
    };
    Matrix<T> p(n, n);
    Matrix<T> q(n, n);
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < n; ++i) {
        T sp(0);
        T sq(0);
        for (idx l = 0; l < k; ++l) {
          sp += op_elem(a, i, l) * cj(op_elem(b, j, l));
          sq += op_elem(b, i, l) * cj(op_elem(a, j, l));
        }
        p(i, j) = sp;
        q(i, j) = sq;
      }
    }
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      for (const T alpha : alphas) {
        for (const T beta : betas) {
          Matrix<T> c0 = herm ? random_hermitian<T>(n, seed)
                              : random_matrix<T>(n, n, seed);
          if (beta == T(0)) {
            c0.fill(T(nan));
          }
          Matrix<T> c = c0;
          if (!two && !herm) {
            blas::syrk(uplo, trans, n, k, alpha, a.data(), a.ld(), beta,
                       c.data(), c.ld());
          } else if (!two) {
            blas::herk(uplo, trans, n, k, real_part(alpha), a.data(), a.ld(),
                       real_part(beta), c.data(), c.ld());
          } else if (!herm) {
            blas::syr2k(uplo, trans, n, k, alpha, a.data(), a.ld(), b.data(),
                        b.ld(), beta, c.data(), c.ld());
          } else {
            blas::her2k(uplo, trans, n, k, alpha, a.data(), a.ld(), b.data(),
                        b.ld(), real_part(beta), c.data(), c.ld());
          }
          R err(0);  // NaN-sticky: std::max would drop a NaN
          idx touched = 0;
          idx complex_diag = 0;
          for (idx j = 0; j < n; ++j) {
            for (idx i = 0; i < n; ++i) {
              const bool stored = uplo == Uplo::Upper ? i <= j : i >= j;
              if (!stored) {
                touched += std::memcmp(&c(i, j), &c0(i, j), sizeof(T)) != 0;
                continue;
              }
              T expected = alpha * p(i, j);
              if (two) {
                expected += cj(alpha) * q(i, j);
              }
              if (beta != T(0)) {
                expected += beta * c0(i, j);
              }
              if (herm && i == j) {
                complex_diag += imag_part(c(i, j)) != R(0);
                expected = T(real_part(expected));
              }
              const R e = std::abs(c(i, j) - expected);
              err = e > err || std::isnan(e) ? e : err;
            }
          }
          EXPECT_LE(err, tol<T>() * R(two ? 4 * k : k))
              << "herm=" << herm << " two=" << two << " n=" << n
              << " k=" << k << " uplo=" << static_cast<char>(uplo)
              << " trans=" << static_cast<char>(trans) << " alpha=" << alpha
              << " beta=" << beta;
          EXPECT_EQ(touched, 0) << "unstored entries changed";
          EXPECT_EQ(complex_diag, 0) << "non-real Hermitian diagonal";
        }
      }
    }
  }
}

/// LAPACK solve ratio: ||B - A X||_1 / (||A||_1 ||X||_1 n eps).
template <Scalar T>
[[nodiscard]] real_t<T> solve_ratio(const Matrix<T>& a, const Matrix<T>& x,
                                    const Matrix<T>& b) {
  using R = real_t<T>;
  Matrix<T> r = b;
  blas::gemm_naive(Trans::NoTrans, Trans::NoTrans, a.rows(), x.cols(),
                   a.cols(), T(-1), a.data(), a.ld(), x.data(), x.ld(), T(1),
                   r.data(), r.ld());
  const R rn = lapack::lange(Norm::One, r.rows(), r.cols(), r.data(), r.ld());
  const R an = lapack::lange(Norm::One, a.rows(), a.cols(), a.data(), a.ld());
  const R xn = lapack::lange(Norm::One, x.rows(), x.cols(), x.data(), x.ld());
  const R denom = an * xn * R(a.rows()) * eps<T>();
  return denom > R(0) ? rn / denom : rn / eps<T>();
}

/// Orthogonality residual ||Q^H Q - I||_max (columns of Q orthonormal).
template <Scalar T>
[[nodiscard]] real_t<T> orthogonality(const Matrix<T>& q) {
  const idx n = q.cols();
  Matrix<T> g(n, n);
  blas::gemm_naive(conj_trans_for<T>(), Trans::NoTrans, n, n, q.rows(), T(1),
                   q.data(), q.ld(), q.data(), q.ld(), T(0), g.data(),
                   g.ld());
  for (idx i = 0; i < n; ++i) {
    g(i, i) -= T(1);
  }
  return lapack::lange(Norm::Max, n, n, g.data(), g.ld());
}

}  // namespace la::test
