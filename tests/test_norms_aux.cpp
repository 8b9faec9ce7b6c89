// Norm computations and small auxiliary kernels (lacpy/laset/lascl/laswp/
// ladiv/lapy2) checked against direct evaluation.
#include <gtest/gtest.h>

#include "test_utils.hpp"

namespace la::test {
namespace {

template <class T>
class NormsTest : public ::testing::Test {};
TYPED_TEST_SUITE(NormsTest, AllTypes);

TYPED_TEST(NormsTest, LangeMatchesDirectComputation) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(41);
  const idx m = 9;
  const idx n = 13;
  const Matrix<T> a = random_matrix<T>(m, n, seed);
  // Direct computations.
  R one(0);
  R inf(0);
  R mx(0);
  R frob(0);
  for (idx j = 0; j < n; ++j) {
    R cs(0);
    for (idx i = 0; i < m; ++i) {
      cs += std::abs(a(i, j));
      mx = std::max(mx, R(std::abs(a(i, j))));
      frob += std::norm(std::complex<R>(real_part(a(i, j)),
                                        imag_part(a(i, j))));
    }
    one = std::max(one, cs);
  }
  for (idx i = 0; i < m; ++i) {
    R rs(0);
    for (idx j = 0; j < n; ++j) {
      rs += std::abs(a(i, j));
    }
    inf = std::max(inf, rs);
  }
  frob = std::sqrt(frob);
  EXPECT_NEAR(lapack::lange(Norm::One, m, n, a.data(), a.ld()), one,
              tol<T>() * one);
  EXPECT_NEAR(lapack::lange(Norm::Inf, m, n, a.data(), a.ld()), inf,
              tol<T>() * inf);
  EXPECT_NEAR(lapack::lange(Norm::Max, m, n, a.data(), a.ld()), mx,
              tol<T>() * mx);
  EXPECT_NEAR(lapack::lange(Norm::Frobenius, m, n, a.data(), a.ld()), frob,
              tol<T>() * frob);
  // Two infinite entries give an infinite Frobenius norm, not NaN.
  Matrix<T> ainf = a;
  ainf(1, 2) = T(std::numeric_limits<R>::infinity());
  ainf(7, 11) = T(-std::numeric_limits<R>::infinity());
  EXPECT_EQ(lapack::lange(Norm::Frobenius, m, n, ainf.data(), ainf.ld()),
            std::numeric_limits<R>::infinity());
}

TYPED_TEST(NormsTest, LansyEqualsLangeOnFullSymmetric) {
  using T = TypeParam;
  Iseed seed = seed_for(42);
  const idx n = 11;
  const Matrix<T> a = random_symmetric<T>(n, seed);
  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    for (Norm norm : {Norm::One, Norm::Inf, Norm::Max, Norm::Frobenius}) {
      EXPECT_NEAR(lapack::lansy(norm, uplo, n, a.data(), a.ld()),
                  lapack::lange(norm, n, n, a.data(), a.ld()),
                  tol<T>() * real_t<T>(n) *
                      lapack::lange(norm, n, n, a.data(), a.ld()));
    }
  }
}

TYPED_TEST(NormsTest, LanheEqualsLangeOnFullHermitian) {
  using T = TypeParam;
  Iseed seed = seed_for(43);
  const idx n = 10;
  const Matrix<T> a = random_hermitian<T>(n, seed);
  for (Norm norm : {Norm::One, Norm::Max, Norm::Frobenius}) {
    EXPECT_NEAR(lapack::lanhe(norm, Uplo::Upper, n, a.data(), a.ld()),
                lapack::lange(norm, n, n, a.data(), a.ld()),
                tol<T>() * real_t<T>(n) *
                    (lapack::lange(norm, n, n, a.data(), a.ld()) +
                     real_t<T>(1)));
  }
}

TYPED_TEST(NormsTest, LangtAndLanstMatchDenseEquivalents) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(44);
  const idx n = 14;
  std::vector<T> dl(n - 1);
  std::vector<T> d(n);
  std::vector<T> du(n - 1);
  larnv(Dist::Uniform11, seed, n - 1, dl.data());
  larnv(Dist::Uniform11, seed, n, d.data());
  larnv(Dist::Uniform11, seed, n - 1, du.data());
  Matrix<T> dense(n, n);
  for (idx i = 0; i < n; ++i) {
    dense(i, i) = d[i];
    if (i < n - 1) {
      dense(i + 1, i) = dl[i];
      dense(i, i + 1) = du[i];
    }
  }
  for (Norm norm : {Norm::One, Norm::Inf, Norm::Max, Norm::Frobenius}) {
    EXPECT_NEAR(lapack::langt(norm, n, dl.data(), d.data(), du.data()),
                lapack::lange(norm, n, n, dense.data(), dense.ld()),
                tol<T>() * R(n));
  }
  // Symmetric tridiagonal (real arrays).
  std::vector<R> rd(n);
  std::vector<R> re(n - 1);
  larnv(Dist::Uniform11, seed, n, rd.data());
  larnv(Dist::Uniform11, seed, n - 1, re.data());
  Matrix<R> rdense(n, n);
  for (idx i = 0; i < n; ++i) {
    rdense(i, i) = rd[i];
    if (i < n - 1) {
      rdense(i + 1, i) = re[i];
      rdense(i, i + 1) = re[i];
    }
  }
  for (Norm norm : {Norm::One, Norm::Max, Norm::Frobenius}) {
    EXPECT_NEAR(lapack::lanst(norm, n, rd.data(), re.data()),
                lapack::lange(norm, n, n, rdense.data(), rdense.ld()),
                tol<R>() * R(n));
  }
}

TYPED_TEST(NormsTest, LacpyRespectsTrianglePart) {
  using T = TypeParam;
  Iseed seed = seed_for(45);
  const idx n = 8;
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  Matrix<T> upper(n, n);
  lapack::lacpy(lapack::Part::Upper, n, n, a.data(), a.ld(), upper.data(),
                upper.ld());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      EXPECT_EQ(upper(i, j), i <= j ? a(i, j) : T(0));
    }
  }
  Matrix<T> lower(n, n);
  lapack::lacpy(lapack::Part::Lower, n, n, a.data(), a.ld(), lower.data(),
                lower.ld());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      EXPECT_EQ(lower(i, j), i >= j ? a(i, j) : T(0));
    }
  }
}

TYPED_TEST(NormsTest, LaswpAppliesAndReversesPivots) {
  using T = TypeParam;
  Iseed seed = seed_for(46);
  const idx n = 7;
  Matrix<T> a = random_matrix<T>(n, n, seed);
  const Matrix<T> a0 = a;
  std::vector<idx> ipiv = {2, 4, 3, 6, 4, 5, 6};
  lapack::laswp(n, a.data(), a.ld(), 0, n, ipiv.data(), 1);
  EXPECT_GT(max_diff(a, a0), real_t<T>(0));
  lapack::laswp(n, a.data(), a.ld(), 0, n, ipiv.data(), -1);
  EXPECT_EQ(max_diff(a, a0), real_t<T>(0));
}

TYPED_TEST(NormsTest, LasclScalesWithoutOverflow) {
  using T = TypeParam;
  using R = real_t<T>;
  const idx n = 4;
  Matrix<T> a(n, n);
  a.fill(T(R(1)));
  lapack::lascl(n, n, R(4), R(1), a.data(), a.ld());
  EXPECT_NEAR(real_part(a(0, 0)), R(0.25), tol<T>());
  // Huge upscale applied in steps stays finite at each step.
  Matrix<T> b(n, n);
  b.fill(T(Machine<T>::tiny_val()));
  lapack::lascl(n, n, Machine<T>::tiny_val(), R(1), b.data(), b.ld());
  EXPECT_NEAR(real_part(b(0, 0)), R(1), tol<T>(R(10)));
}

template <class R>
class AuxRealTest : public ::testing::Test {};
TYPED_TEST_SUITE(AuxRealTest, RealTypes);

TYPED_TEST(AuxRealTest, Lapy2AvoidsOverflow) {
  using R = TypeParam;
  const R big = std::numeric_limits<R>::max() / R(2);
  EXPECT_TRUE(std::isfinite(lapy2(big, big)));
  EXPECT_NEAR(lapy2(R(3), R(4)), R(5), tol<R>(R(10)));
  EXPECT_NEAR(lapy3(R(1), R(2), R(2)), R(3), tol<R>(R(10)));
}

TYPED_TEST(AuxRealTest, LadivMatchesComplexDivision) {
  using R = TypeParam;
  const std::complex<R> x(R(3), R(-2));
  const std::complex<R> y(R(0.5), R(4));
  const std::complex<R> q = ladiv(x, y);
  const std::complex<R> ref = x / y;
  EXPECT_NEAR(q.real(), ref.real(), tol<R>(R(10)));
  EXPECT_NEAR(q.imag(), ref.imag(), tol<R>(R(10)));
}

TEST(EnvTest, IlaenvRespectsOverridesAndClamps) {
  const idx def = ilaenv(EnvSpec::BlockSize, EnvRoutine::getrf, 1000);
  EXPECT_GE(def, 1);
  set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, 17);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::getrf, 1000), 17);
  set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, 0);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::getrf, 1000), def);
  // NB never exceeds the problem size.
  EXPECT_LE(ilaenv(EnvSpec::BlockSize, EnvRoutine::getrf, 8), 8);
}

TEST(EnvTest, BlockSizeFallsToOneBelowCrossover) {
  EXPECT_EQ(block_size(EnvRoutine::getrf, 16), 1);
  EXPECT_GT(block_size(EnvRoutine::getrf, 2000), 1);
}

}  // namespace
}  // namespace la::test
