// LU family tests: factorization structure, solves, inverse, condition
// estimation, equilibration, refinement, expert driver and failure modes.
#include <gtest/gtest.h>

#include "test_utils.hpp"

namespace la::test {
namespace {

template <class T>
class LuTest : public ::testing::Test {};
TYPED_TEST_SUITE(LuTest, AllTypes);

/// Reconstruct P^T L U from getrf output and compare to A.
template <Scalar T>
real_t<T> plu_residual(const Matrix<T>& a, const Matrix<T>& lu,
                       const std::vector<idx>& ipiv) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  Matrix<T> l(m, k);
  Matrix<T> u(k, n);
  for (idx j = 0; j < k; ++j) {
    l(j, j) = T(1);
    for (idx i = j + 1; i < m; ++i) {
      l(i, j) = lu(i, j);
    }
  }
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= std::min<idx>(j, k - 1); ++i) {
      u(i, j) = lu(i, j);
    }
  }
  Matrix<T> rec = multiply(l, u);
  // Apply the interchanges in reverse to recover A's row order.
  for (idx i = k - 1; i >= 0; --i) {
    if (ipiv[i] != i) {
      blas::swap(n, rec.data() + i, rec.ld(), rec.data() + ipiv[i], rec.ld());
    }
  }
  return max_diff(rec, a);
}

TYPED_TEST(LuTest, GetrfReconstructsSquare) {
  using T = TypeParam;
  Iseed seed = seed_for(51);
  const idx n = 35;
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  Matrix<T> lu = a;
  std::vector<idx> ipiv(n);
  EXPECT_EQ(lapack::getrf(n, n, lu.data(), lu.ld(), ipiv.data()), 0);
  EXPECT_LE(plu_residual(a, lu, ipiv), tol<T>() * real_t<T>(n));
}

TYPED_TEST(LuTest, GetrfReconstructsRectangular) {
  using T = TypeParam;
  Iseed seed = seed_for(52);
  for (auto [m, n] : {std::pair<idx, idx>{20, 12}, {12, 20}}) {
    const Matrix<T> a = random_matrix<T>(m, n, seed);
    Matrix<T> lu = a;
    std::vector<idx> ipiv(std::min(m, n));
    EXPECT_EQ(lapack::getrf(m, n, lu.data(), lu.ld(), ipiv.data()), 0);
    EXPECT_LE(plu_residual(a, lu, ipiv), tol<T>() * real_t<T>(m + n));
  }
}

TYPED_TEST(LuTest, PartialPivotingBoundsMultipliers) {
  using T = TypeParam;
  Iseed seed = seed_for(53);
  const idx n = 30;
  Matrix<T> lu = random_matrix<T>(n, n, seed);
  std::vector<idx> ipiv(n);
  lapack::getrf(n, n, lu.data(), lu.ld(), ipiv.data());
  // Pivoting maximizes |Re|+|Im|, so moduli are bounded by sqrt(2).
  const real_t<T> bound =
      (is_complex_v<T> ? std::sqrt(real_t<T>(2)) : real_t<T>(1)) + tol<T>();
  for (idx j = 0; j < n; ++j) {
    for (idx i = j + 1; i < n; ++i) {
      EXPECT_LE(std::abs(lu(i, j)), bound);
    }
  }
}

TYPED_TEST(LuTest, BlockedMatchesUnblocked) {
  using T = TypeParam;
  Iseed seed = seed_for(54);
  const idx n = 200;  // above the blocking crossover
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  Matrix<T> blocked = a;
  Matrix<T> unblocked = a;
  std::vector<idx> p1(n);
  std::vector<idx> p2(n);
  lapack::getrf(n, n, blocked.data(), blocked.ld(), p1.data());
  lapack::getf2(n, n, unblocked.data(), unblocked.ld(), p2.data());
  EXPECT_EQ(p1, p2);  // identical pivot sequence
  EXPECT_LE(max_diff(blocked, unblocked), tol<T>(real_t<T>(60)) * real_t<T>(n));
}

TYPED_TEST(LuTest, GetrsSolvesAllTransModes) {
  using T = TypeParam;
  Iseed seed = seed_for(55);
  const idx n = 25;
  const idx nrhs = 3;
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  Matrix<T> lu = a;
  std::vector<idx> ipiv(n);
  lapack::getrf(n, n, lu.data(), lu.ld(), ipiv.data());
  for (Trans trans : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
    const Matrix<T> x = random_matrix<T>(n, nrhs, seed);
    Matrix<T> b = multiply(a, x, trans, Trans::NoTrans);
    lapack::getrs(trans, n, nrhs, lu.data(), lu.ld(), ipiv.data(), b.data(),
                  b.ld());
    EXPECT_LE(max_diff(b, x), tol<T>(real_t<T>(1000)) * real_t<T>(n));
  }
}

TYPED_TEST(LuTest, GesvSolveRatioUnderThreshold) {
  using T = TypeParam;
  Iseed seed = seed_for(56);
  const idx n = 60;
  const idx nrhs = 4;
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  const Matrix<T> b = random_matrix<T>(n, nrhs, seed);
  Matrix<T> af = a;
  Matrix<T> x = b;
  std::vector<idx> ipiv(n);
  EXPECT_EQ(lapack::gesv(n, nrhs, af.data(), af.ld(), ipiv.data(), x.data(),
                         x.ld()),
            0);
  EXPECT_LT(solve_ratio(a, x, b), real_t<T>(30));
}

TYPED_TEST(LuTest, SingularMatrixReportsFirstZeroPivot) {
  using T = TypeParam;
  const idx n = 5;
  Matrix<T> a(n, n);  // all zeros: pivot 1 is exactly zero
  std::vector<idx> ipiv(n);
  Matrix<T> b(n, 1);
  const idx info =
      lapack::gesv(n, 1, a.data(), a.ld(), ipiv.data(), b.data(), b.ld());
  EXPECT_EQ(info, 1);
}

TYPED_TEST(LuTest, SingularRankDeficientDetected) {
  using T = TypeParam;
  Iseed seed = seed_for(57);
  const idx n = 12;
  Matrix<T> a = random_matrix<T>(n, n, seed);
  // Zero a column: partial pivoting meets an exactly-zero pivot there.
  for (idx i = 0; i < n; ++i) {
    a(i, 7) = T(0);
  }
  std::vector<idx> ipiv(n);
  const idx info = lapack::getrf(n, n, a.data(), a.ld(), ipiv.data());
  EXPECT_GT(info, 0);
}

/// getrf2 against getf2 on tall, square and wide shapes whose widths sit
/// around the recursion's leaf width W (W-1, W, W+1, 2W+1) and split
/// unevenly (odd widths; n1 = min(m, n) / 2 well below n / 2 when wide,
/// down to one-row levels).
TYPED_TEST(LuTest, Getrf2MatchesGetf2AcrossShapes) {
  using T = TypeParam;
  using R = real_t<T>;
  constexpr idx w = lapack::detail::kGetrf2Width;
  Iseed seed = seed_for(63);
  for (const idx n : {w - 1, w, w + 1, 2 * w + 1, 5 * w + 3}) {
    for (const idx m : {3 * n + 7, n, n / 2 + 1}) {  // tall, square, wide
      const Matrix<T> a = random_matrix<T>(m, n, seed);
      const idx k = std::min(m, n);
      Matrix<T> lu = a;
      Matrix<T> ref = a;
      std::vector<idx> p(k, -1);
      std::vector<idx> pref(k, -1);
      EXPECT_EQ(lapack::getrf2(m, n, lu.data(), lu.ld(), p.data()), 0);
      EXPECT_EQ(lapack::getf2(m, n, ref.data(), ref.ld(), pref.data()), 0);
      for (idx i = 0; i < k; ++i) {
        EXPECT_GE(p[i], i);
        EXPECT_LT(p[i], m);
      }
      EXPECT_EQ(p, pref) << m << " x " << n;
      EXPECT_LE(plu_residual(a, lu, p), tol<T>() * R(m + n)) << m << " x " << n;
      EXPECT_LE(max_diff(lu, ref), tol<T>(R(60)) * R(m + n)) << m << " x " << n;
    }
  }
}

/// An exactly-zero column leaves an exactly-zero pivot at its own index,
/// whichever half of which recursion level holds it. getrf2's INFO is that
/// absolute 1-based index (the first one when there are two), as getf2's
/// is, and the factors still reconstruct A.
TYPED_TEST(LuTest, Getrf2ReportsFirstZeroPivot) {
  using T = TypeParam;
  using R = real_t<T>;
  constexpr idx w = lapack::detail::kGetrf2Width;
  Iseed seed = seed_for(64);
  const idx m = 6 * w, n = 4 * w + 5;
  const idx n1 = n / 2;               // top-level split
  const idx n11 = n1 / 2;             // split of the left half
  const idx n21 = n1 + (n - n1) / 2;  // split of the right half
  // Zero columns, then the INFO they must give.
  const std::vector<std::pair<std::vector<idx>, idx>> cases = {
      {{2}, 3},                   // left half, its left half
      {{n11 + 1}, n11 + 2},       // left half, its right half
      {{n1 - 1}, n1},             // last column of the left half
      {{n1}, n1 + 1},             // first column of the right half
      {{n21 + 2}, n21 + 3},       // right half, its right half
      {{n - 1}, n},               // last column
      {{n1 + 3, 4}, 5},           // both halves: the left one wins
      {{n - 2, n1 + 1}, n1 + 2},  // both in the right half
  };
  for (const auto& [zeros, want] : cases) {
    Matrix<T> a = random_matrix<T>(m, n, seed);
    for (const idx c : zeros) {
      for (idx i = 0; i < m; ++i) {
        a(i, c) = T(0);
      }
    }
    Matrix<T> lu = a;
    Matrix<T> ref = a;
    std::vector<idx> p(n, -1);
    std::vector<idx> pref(n, -1);
    const idx info = lapack::getrf2(m, n, lu.data(), lu.ld(), p.data());
    EXPECT_EQ(info, want);
    EXPECT_EQ(info, lapack::getf2(m, n, ref.data(), ref.ld(), pref.data()));
    EXPECT_LE(plu_residual(a, lu, p), tol<T>() * R(m + n));
  }
}

/// Pivots below 1/huge, where 1/pivot overflows: getf2 divides by them
/// instead of scaling by the reciprocal, as xGETF2 does below the safe
/// minimum. On 1e-310-scale input (4.6e-41 in single precision) getf2 and
/// getrf2 return finite factors with INFO 0, and gesv solves the system
/// as it solves the unscaled one, to the precision subnormals keep.
TYPED_TEST(LuTest, TinyPivotsFactorWithoutOverflow) {
  using T = TypeParam;
  using R = real_t<T>;
  const R s = R(1) / std::numeric_limits<R>::max() / R(64);
  // Relative spacing of subnormals of size s: the accuracy left to them.
  const R ulp = std::numeric_limits<R>::denorm_min() / s;
  const auto finite = [](const Matrix<T>& x) {
    for (idx j = 0; j < x.cols(); ++j) {
      for (idx i = 0; i < x.rows(); ++i) {
        if (!std::isfinite(std::real(x(i, j))) ||
            !std::isfinite(std::imag(x(i, j)))) {
          return false;
        }
      }
    }
    return true;
  };
  Iseed seed = seed_for(65);
  // [[2, 1], [1, 3]], and a diagonally dominant 24 x 24 whose entries
  // stay under 25 s < 1/huge; both have x = 1.
  for (const idx n : {2, 24}) {
    Matrix<T> a0(n, n);
    if (n == 2) {
      a0(0, 0) = T(2);
      a0(1, 0) = T(1);
      a0(0, 1) = T(1);
      a0(1, 1) = T(3);
    } else {
      a0 = random_matrix<T>(n, n, seed);
      for (idx i = 0; i < n; ++i) {
        a0(i, i) += T(R(n));
      }
    }
    Matrix<T> ones(n, 1);
    ones.fill(T(1));
    const Matrix<T> b0 = multiply(a0, ones);
    Matrix<T> a(n, n);
    Matrix<T> b(n, 1);
    for (idx j = 0; j < n; ++j) {
      b(j, 0) = T(s) * b0(j, 0);
      for (idx i = 0; i < n; ++i) {
        a(i, j) = T(s) * a0(i, j);
      }
    }
    std::vector<idx> ipiv(n);
    Matrix<T> lu = a;
    EXPECT_EQ(lapack::getf2(n, n, lu.data(), lu.ld(), ipiv.data()), 0);
    EXPECT_TRUE(finite(lu)) << "getf2, n = " << n;
    lu = a;
    EXPECT_EQ(lapack::getrf2(n, n, lu.data(), lu.ld(), ipiv.data()), 0);
    EXPECT_TRUE(finite(lu)) << "getrf2, n = " << n;

    Matrix<T> au = a0;
    Matrix<T> xu = b0;
    ASSERT_EQ(lapack::gesv(n, 1, au.data(), au.ld(), ipiv.data(), xu.data(),
                           xu.ld()),
              0);
    Matrix<T> x = b;
    EXPECT_EQ(
        lapack::gesv(n, 1, a.data(), a.ld(), ipiv.data(), x.data(), x.ld()),
        0);
    EXPECT_TRUE(finite(x)) << "gesv, n = " << n;
    EXPECT_LE(max_diff(x, xu), R(4 * n) * ulp) << "gesv, n = " << n;
  }
}

TYPED_TEST(LuTest, GetriProducesInverse) {
  using T = TypeParam;
  Iseed seed = seed_for(58);
  const idx n = 40;
  const Matrix<T> a = random_matrix<T>(n, n, seed);
  Matrix<T> inv = a;
  std::vector<idx> ipiv(n);
  lapack::getrf(n, n, inv.data(), inv.ld(), ipiv.data());
  std::vector<T> work(n);
  EXPECT_EQ(lapack::getri(n, inv.data(), inv.ld(), ipiv.data(), work.data()),
            0);
  Matrix<T> prod = multiply(a, inv);
  for (idx i = 0; i < n; ++i) {
    prod(i, i) -= T(1);
  }
  EXPECT_LE(lapack::lange(Norm::Max, n, n, prod.data(), prod.ld()),
            tol<T>(real_t<T>(1000)) * real_t<T>(n));
}

TYPED_TEST(LuTest, GeconTracksTrueConditionNumber) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(59);
  const idx n = 30;
  // Controlled condition number via latms.
  const R cond = R(1000);
  Matrix<T> a(n, n);
  lapack::latms(n, n, lapack::SpectrumMode::Geometric, cond, R(1), a.data(),
                a.ld(), seed);
  const R anorm = lapack::lange(Norm::One, n, n, a.data(), a.ld());
  Matrix<T> lu = a;
  std::vector<idx> ipiv(n);
  lapack::getrf(n, n, lu.data(), lu.ld(), ipiv.data());
  R rcond(0);
  lapack::gecon(Norm::One, n, lu.data(), lu.ld(), ipiv.data(), anorm, rcond);
  // The estimate should land within a factor ~20 of 1/cond (norm mix +
  // estimator slack).
  EXPECT_GT(rcond, R(1) / (cond * R(50)));
  EXPECT_LT(rcond, R(50) / cond);
}

TYPED_TEST(LuTest, GeequNormalizesBadScaling) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(60);
  const idx n = 10;
  Matrix<T> a = random_matrix<T>(n, n, seed);
  for (idx j = 0; j < n; ++j) {
    a(2, j) *= T(R(1e6));
  }
  std::vector<R> r(n);
  std::vector<R> c(n);
  R rowcnd;
  R colcnd;
  R amax;
  EXPECT_EQ(lapack::geequ(n, n, a.data(), a.ld(), r.data(), c.data(), rowcnd,
                          colcnd, amax),
            0);
  EXPECT_LT(rowcnd, R(0.1));  // badly row-scaled detected
  // After scaling every row max becomes ~1.
  for (idx i = 0; i < n; ++i) {
    R rowmax(0);
    for (idx j = 0; j < n; ++j) {
      rowmax = std::max(rowmax, abs1(a(i, j)) * r[i]);
    }
    EXPECT_NEAR(rowmax, R(1), R(0.01));
  }
}

TYPED_TEST(LuTest, GeequFlagsZeroRowAndColumn) {
  using T = TypeParam;
  using R = real_t<T>;
  const idx n = 6;
  Matrix<T> a(n, n);
  a.set_identity();
  for (idx j = 0; j < n; ++j) {
    a(3, j) = T(0);
  }
  a(3, 3) = T(0);
  std::vector<R> r(n);
  std::vector<R> c(n);
  R rowcnd;
  R colcnd;
  R amax;
  EXPECT_EQ(lapack::geequ(n, n, a.data(), a.ld(), r.data(), c.data(), rowcnd,
                          colcnd, amax),
            4);  // 1-based zero row index
}

TYPED_TEST(LuTest, GerfsDrivesBackwardErrorToEps) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(61);
  const idx n = 40;
  const idx nrhs = 2;
  Matrix<T> a(n, n);
  lapack::latms(n, n, lapack::SpectrumMode::Geometric, R(1e4), R(1), a.data(),
                a.ld(), seed);
  const Matrix<T> b = random_matrix<T>(n, nrhs, seed);
  Matrix<T> af = a;
  std::vector<idx> ipiv(n);
  lapack::getrf(n, n, af.data(), af.ld(), ipiv.data());
  Matrix<T> x = b;
  lapack::getrs(Trans::NoTrans, n, nrhs, af.data(), af.ld(), ipiv.data(),
                x.data(), x.ld());
  std::vector<R> ferr(nrhs);
  std::vector<R> berr(nrhs);
  lapack::gerfs(Trans::NoTrans, n, nrhs, a.data(), a.ld(), af.data(), af.ld(),
                ipiv.data(), b.data(), b.ld(), x.data(), x.ld(), ferr.data(),
                berr.data());
  for (idx j = 0; j < nrhs; ++j) {
    EXPECT_LE(berr[j], real_t<T>(4) * eps<T>());
    EXPECT_GT(ferr[j], R(0));
    EXPECT_LT(ferr[j], R(1));  // far from garbage for this conditioning
  }
}

TYPED_TEST(LuTest, GesvxEquilibratesIllScaledSystem) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(62);
  const idx n = 24;
  const idx nrhs = 2;
  Matrix<T> a = random_matrix<T>(n, n, seed);
  Matrix<T> b = random_matrix<T>(n, nrhs, seed);
  for (idx j = 0; j < n; ++j) {
    a(1, j) *= T(R(1e7));
  }
  for (idx j = 0; j < nrhs; ++j) {
    b(1, j) *= T(R(1e7));
  }
  Matrix<T> ac = a;
  Matrix<T> bc = b;
  Matrix<T> af(n, n);
  Matrix<T> x(n, nrhs);
  std::vector<idx> ipiv(n);
  std::vector<R> r(n);
  std::vector<R> c(n);
  std::vector<R> ferr(nrhs);
  std::vector<R> berr(nrhs);
  R rcond(0);
  R rpvgrw(0);
  const idx info = lapack::gesvx(true, Trans::NoTrans, n, nrhs, ac.data(),
                                 ac.ld(), af.data(), af.ld(), ipiv.data(),
                                 r.data(), c.data(), bc.data(), bc.ld(),
                                 x.data(), x.ld(), rcond, ferr.data(),
                                 berr.data(), &rpvgrw);
  EXPECT_EQ(info, 0);
  EXPECT_GT(rcond, R(0));
  EXPECT_LT(solve_ratio(a, x, b), real_t<T>(30));
}

TYPED_TEST(LuTest, ZeroSizedProblemsAreNoops) {
  using T = TypeParam;
  Matrix<T> a(0, 0);
  Matrix<T> b(0, 2);
  std::vector<idx> ipiv;
  EXPECT_EQ(lapack::gesv(0, 2, a.data(), 1, ipiv.data(), b.data(), 1), 0);
}

}  // namespace
}  // namespace la::test
