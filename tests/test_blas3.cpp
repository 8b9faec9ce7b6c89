// Level-3 BLAS unit tests: the blocked gemm against the reference kernel
// across shapes and transpose modes, plus the symmetric/triangular
// kernels against dense equivalents.
#include <gtest/gtest.h>

#include <tuple>

#include "test_utils.hpp"

namespace la::test {
namespace {

template <class T>
class Blas3Test : public ::testing::Test {};
TYPED_TEST_SUITE(Blas3Test, AllTypes);

TYPED_TEST(Blas3Test, BlockedGemmMatchesReferenceAcrossModes) {
  using T = TypeParam;
  Iseed seed = seed_for(31);
  const idx m = 37;
  const idx n = 23;
  const idx k = 41;
  const T alpha = make_scalar<T>(real_t<T>(1.25), real_t<T>(-0.5));
  const T beta = make_scalar<T>(real_t<T>(0.5));
  for (Trans ta : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
    for (Trans tb : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
      const Matrix<T> a = ta == Trans::NoTrans ? random_matrix<T>(m, k, seed)
                                               : random_matrix<T>(k, m, seed);
      const Matrix<T> b = tb == Trans::NoTrans ? random_matrix<T>(k, n, seed)
                                               : random_matrix<T>(n, k, seed);
      Matrix<T> c = random_matrix<T>(m, n, seed);
      Matrix<T> cref = c;
      blas::gemm(ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
                 beta, c.data(), c.ld());
      blas::gemm_naive(ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(),
                       b.ld(), beta, cref.data(), cref.ld());
      EXPECT_LE(max_diff(c, cref), tol<T>() * real_t<T>(k))
          << static_cast<char>(ta) << static_cast<char>(tb);
    }
  }
}

TYPED_TEST(Blas3Test, GemmLargeEnoughToUsePackedPath) {
  using T = TypeParam;
  Iseed seed = seed_for(32);
  const idx n = 150;  // beyond the small-problem cutoff
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  const Matrix<T> b = random_matrix<T>(n, n, seed);
  Matrix<T> c(n, n);
  Matrix<T> cref(n, n);
  blas::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n, T(1), a.data(), a.ld(),
             b.data(), b.ld(), T(0), c.data(), c.ld());
  blas::gemm_naive(Trans::NoTrans, Trans::NoTrans, n, n, n, T(1), a.data(),
                   a.ld(), b.data(), b.ld(), T(0), cref.data(), cref.ld());
  EXPECT_LE(max_diff(c, cref), tol<T>() * real_t<T>(n));
}

TYPED_TEST(Blas3Test, GemmBetaZeroOverwritesNan) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(33);
  const idx n = 6;
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  const Matrix<T> b = random_matrix<T>(n, n, seed);
  Matrix<T> c(n, n);
  c.fill(T(std::numeric_limits<R>::quiet_NaN()));
  blas::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n, T(1), a.data(), a.ld(),
             b.data(), b.ld(), T(0), c.data(), c.ld());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      EXPECT_TRUE(std::isfinite(real_part(c(i, j))));
    }
  }
}

TYPED_TEST(Blas3Test, SymmHemmMatchDenseMultiply) {
  using T = TypeParam;
  Iseed seed = seed_for(34);
  const idx m = 12;
  const idx n = 9;
  const Matrix<T> sy = random_symmetric<T>(m, seed);
  const Matrix<T> he = random_hermitian<T>(m, seed);
  const Matrix<T> b = random_matrix<T>(m, n, seed);
  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    Matrix<T> c1(m, n);
    blas::symm(Side::Left, uplo, m, n, T(1), sy.data(), sy.ld(), b.data(),
               b.ld(), T(0), c1.data(), c1.ld());
    EXPECT_LE(max_diff(c1, multiply(sy, b)), tol<T>() * real_t<T>(m));
    Matrix<T> c2(m, n);
    blas::hemm(Side::Left, uplo, m, n, T(1), he.data(), he.ld(), b.data(),
               b.ld(), T(0), c2.data(), c2.ld());
    EXPECT_LE(max_diff(c2, multiply(he, b)), tol<T>() * real_t<T>(m));
  }
  // Right side as well.
  const Matrix<T> br = random_matrix<T>(n, m, seed);
  Matrix<T> c3(n, m);
  blas::symm(Side::Right, Uplo::Upper, n, m, T(1), sy.data(), sy.ld(),
             br.data(), br.ld(), T(0), c3.data(), c3.ld());
  EXPECT_LE(max_diff(c3, multiply(br, sy)), tol<T>() * real_t<T>(m));
}

TYPED_TEST(Blas3Test, SyrkHerkMatchExplicitProducts) {
  // n = 10 runs the reference kernel alone, n = 300 (> MC) the blocked
  // recast; see check_rank_update for the uplo/trans/alpha/beta sweep.
  Iseed seed = seed_for(35);
  for (const idx n : {idx(10), idx(300)}) {
    check_rank_update<TypeParam>(false, false, n, 7, seed);
    check_rank_update<TypeParam>(true, false, n, 7, seed);
  }
}

TYPED_TEST(Blas3Test, Syr2kHer2kMatchExplicitProducts) {
  Iseed seed = seed_for(36);
  for (const idx n : {idx(10), idx(300)}) {
    check_rank_update<TypeParam>(false, true, n, 5, seed);
    check_rank_update<TypeParam>(true, true, n, 5, seed);
  }
}

TYPED_TEST(Blas3Test, TrsmInvertsTrmmAllSixteenCases) {
  using T = TypeParam;
  Iseed seed = seed_for(37);
  const idx m = 11;
  const idx n = 7;
  for (Side side : {Side::Left, Side::Right}) {
    const idx asz = side == Side::Left ? m : n;
    Matrix<T> a = random_matrix<T>(asz, asz, seed);
    for (idx i = 0; i < asz; ++i) {
      a(i, i) += T(real_t<T>(4));
    }
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      for (Trans trans : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
        for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
          Matrix<T> b = random_matrix<T>(m, n, seed);
          const Matrix<T> b0 = b;
          blas::trmm(side, uplo, trans, diag, m, n, T(1), a.data(), a.ld(),
                     b.data(), b.ld());
          blas::trsm(side, uplo, trans, diag, m, n, T(1), a.data(), a.ld(),
                     b.data(), b.ld());
          EXPECT_LE(max_diff(b, b0), tol<T>(real_t<T>(300)))
              << static_cast<char>(side) << static_cast<char>(uplo)
              << static_cast<char>(trans) << static_cast<char>(diag);
        }
      }
    }
  }
}

TYPED_TEST(Blas3Test, TrsmSolvesAgainstDenseReference) {
  using T = TypeParam;
  Iseed seed = seed_for(38);
  const idx n = 9;
  const idx nrhs = 4;
  Matrix<T> a = random_matrix<T>(n, n, seed);
  for (idx i = 0; i < n; ++i) {
    a(i, i) += T(real_t<T>(4));
  }
  // Zero strictly-lower part -> clean upper triangular U.
  Matrix<T> u = a;
  for (idx j = 0; j < n; ++j) {
    for (idx i = j + 1; i < n; ++i) {
      u(i, j) = T(0);
    }
  }
  const Matrix<T> x = random_matrix<T>(n, nrhs, seed);
  Matrix<T> b = multiply(u, x);
  blas::trsm(Side::Left, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n, nrhs,
             T(1), a.data(), a.ld(), b.data(), b.ld());
  EXPECT_LE(max_diff(b, x), tol<T>(real_t<T>(300)));
}

TYPED_TEST(Blas3Test, SmallTrmmMatchesDenseExpansion) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(40);
  // Every size stays at or below MC, so trmm runs trmm_ref alone; the sizes
  // straddle one and two SIMD vectors (the axpy sweeps' scalar tails).
  constexpr idx W = simd_width_v<R>;
  const idx sizes[] = {1, 3, std::max<idx>(W - 1, 1), W, W + 1, 2 * W + 1, 64};
  const T alphas[] = {T(1), make_scalar<T>(R(0.5), R(-1.0))};
  constexpr Trans kTrans[] = {Trans::NoTrans, Trans::Trans,
                              Trans::ConjTrans};
  for (const bool sparse : {false, true}) {
    for (const idx m : sizes) {
      for (const idx n : sizes) {
        for (Side side : {Side::Left, Side::Right}) {
          const idx an = side == Side::Left ? m : n;
          // The sparse pass zeroes every third entry of A and of B, so
          // both the triangle and the B-driven `t == 0` skips are taken.
          Matrix<T> a = random_matrix<T>(an, an, seed);
          Matrix<T> b0 = random_matrix<T>(m, n, seed);
          if (sparse) {
            for (idx j = 0; j < an; ++j) {
              for (idx i = 0; i < an; ++i) {
                if (i != j && (i + 2 * j) % 3 == 0) {
                  a(i, j) = T(0);
                }
              }
            }
            for (idx j = 0; j < n; ++j) {
              for (idx i = 0; i < m; ++i) {
                if ((2 * i + j) % 3 == 0) {
                  b0(i, j) = T(0);
                }
              }
            }
          }
          for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
            for (Trans trans : kTrans) {
              for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
                const Matrix<T> d = dense_triangle(a, uplo, diag);
                for (const T alpha : alphas) {
                  Matrix<T> b = b0;
                  Matrix<T> bref(m, n);
                  if (side == Side::Left) {
                    blas::gemm_naive(trans, Trans::NoTrans, m, n, m, alpha,
                                     d.data(), d.ld(), b0.data(), b0.ld(),
                                     T(0), bref.data(), bref.ld());
                  } else {
                    blas::gemm_naive(Trans::NoTrans, trans, m, n, n, alpha,
                                     b0.data(), b0.ld(), d.data(), d.ld(),
                                     T(0), bref.data(), bref.ld());
                  }
                  blas::trmm(side, uplo, trans, diag, m, n, alpha, a.data(),
                             a.ld(), b.data(), b.ld());
                  EXPECT_LE(max_diff(b, bref), tol<T>() * R(an))
                      << static_cast<char>(side) << static_cast<char>(uplo)
                      << static_cast<char>(trans) << static_cast<char>(diag)
                      << " m=" << m << " n=" << n << " sparse=" << sparse
                      << " alpha=" << alpha;
                }
              }
            }
          }
        }
      }
    }
  }
}

TYPED_TEST(Blas3Test, SingleColumnTrsmIsTrsv) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(41);
  const T alpha = make_scalar<T>(R(0.75), R(0.5));
  constexpr Trans kTrans[] = {Trans::NoTrans, Trans::Trans,
                              Trans::ConjTrans};
  // 200 > MC: a one-column left trsm used to take the blocked path there.
  for (const idx m : {idx(1), idx(7), idx(200)}) {
    Matrix<T> a = random_matrix<T>(m, m, seed);
    for (idx j = 0; j < m; ++j) {
      for (idx i = 0; i < m; ++i) {
        a(i, j) = a(i, j) / T(R(m));
      }
      a(j, j) += T(1);
    }
    const Matrix<T> b0 = random_matrix<T>(m, 1, seed);
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      for (Trans trans : kTrans) {
        for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
          Matrix<T> x = b0;
          blas::trsv(uplo, trans, diag, m, a.data(), a.ld(), x.data(), 1);
          Matrix<T> b = b0;
          blas::trsm(Side::Left, uplo, trans, diag, m, 1, T(1), a.data(),
                     a.ld(), b.data(), b.ld());
          for (idx i = 0; i < m; ++i) {
            EXPECT_EQ(b(i, 0), x(i, 0))
                << "m=" << m << " i=" << i << static_cast<char>(uplo)
                << static_cast<char>(trans) << static_cast<char>(diag);
          }
          Matrix<T> bs = b0;
          blas::trsm(Side::Left, uplo, trans, diag, m, 1, alpha, a.data(),
                     a.ld(), bs.data(), bs.ld());
          for (idx i = 0; i < m; ++i) {
            x(i, 0) *= alpha;
          }
          EXPECT_LE(max_diff(bs, x), tol<T>() * R(m))
              << "m=" << m << static_cast<char>(uplo)
              << static_cast<char>(trans) << static_cast<char>(diag);
        }
      }
    }
  }
}

TYPED_TEST(Blas3Test, GemmAlphaScalesLinearly) {
  using T = TypeParam;
  Iseed seed = seed_for(39);
  const idx n = 16;
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  const Matrix<T> b = random_matrix<T>(n, n, seed);
  Matrix<T> c1(n, n);
  Matrix<T> c2(n, n);
  blas::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n, T(2), a.data(), a.ld(),
             b.data(), b.ld(), T(0), c1.data(), c1.ld());
  blas::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n, T(1), a.data(), a.ld(),
             b.data(), b.ld(), T(0), c2.data(), c2.ld());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(c1(i, j) - T(2) * c2(i, j)),
                tol<T>() * real_t<T>(n));
    }
  }
}

}  // namespace
}  // namespace la::test
