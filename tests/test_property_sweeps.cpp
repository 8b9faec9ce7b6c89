// Parameterized property sweeps (TEST_P): solver residual ratios and
// factorization invariants across a grid of sizes, block configurations
// and right-hand-side counts.
#include <gtest/gtest.h>

#include <tuple>

#include "test_utils.hpp"

namespace la::test {
namespace {

// ---------------------------------------------------------------------------
// GESV across a size x nrhs grid, all four types per point.
// ---------------------------------------------------------------------------

class GesvSweep : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(GesvSweep, AllTypesSolveWithinThreshold) {
  const auto [n, nrhs] = GetParam();
  auto run = [&](auto tag, int salt) {
    using T = decltype(tag);
    Iseed seed = seed_for(salt);
    const Matrix<T> a = random_matrix<T>(n, n, seed);
    const Matrix<T> b = random_matrix<T>(n, nrhs, seed);
    Matrix<T> af = a;
    Matrix<T> x = b;
    std::vector<idx> ipiv(n);
    ASSERT_EQ(lapack::gesv(n, nrhs, af.data(), af.ld(), ipiv.data(),
                           x.data(), x.ld()),
              0);
    EXPECT_LT(solve_ratio(a, x, b), real_t<T>(30))
        << "n=" << n << " nrhs=" << nrhs;
  };
  run(float{}, 300 + static_cast<int>(n));
  run(double{}, 310 + static_cast<int>(n));
  run(std::complex<float>{}, 320 + static_cast<int>(n));
  run(std::complex<double>{}, 330 + static_cast<int>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GesvSweep,
    ::testing::Combine(::testing::Values<idx>(1, 2, 3, 5, 17, 64, 130),
                       ::testing::Values<idx>(1, 4)),
    [](const auto& info) {
      return "N" + std::to_string(std::get<0>(info.param)) + "Rhs" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Blocked factorizations across block-size overrides: the results must not
// depend on NB (ablation guard for the ilaenv machinery).
// ---------------------------------------------------------------------------

class BlockSizeSweep : public ::testing::TestWithParam<idx> {};

TEST_P(BlockSizeSweep, GetrfInvariantUnderBlockSize) {
  const idx nb = GetParam();
  const idx n = 96;
  Iseed seed = seed_for(340);
  const Matrix<double> a = random_matrix<double>(n, n, seed);
  // Reference: unblocked.
  Matrix<double> ref = a;
  std::vector<idx> pref(n);
  lapack::getf2(n, n, ref.data(), ref.ld(), pref.data());
  // Override NB and force the blocked path.
  set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, nb);
  set_env_override(EnvSpec::Crossover, EnvRoutine::getrf, 2);
  Matrix<double> f = a;
  std::vector<idx> p(n);
  lapack::getrf(n, n, f.data(), f.ld(), p.data());
  set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, 0);
  set_env_override(EnvSpec::Crossover, EnvRoutine::getrf, 0);
  EXPECT_EQ(p, pref);
  EXPECT_LE(max_diff(f, ref), tol<double>(1000.0) * n);
}

TEST_P(BlockSizeSweep, GeqrfInvariantUnderBlockSize) {
  const idx nb = GetParam();
  const idx n = 80;
  Iseed seed = seed_for(341);
  const Matrix<double> a = random_matrix<double>(n, n, seed);
  set_env_override(EnvSpec::BlockSize, EnvRoutine::geqrf, nb);
  set_env_override(EnvSpec::Crossover, EnvRoutine::geqrf, 2);
  Matrix<double> f = a;
  std::vector<double> tau(n);
  lapack::geqrf(n, n, f.data(), f.ld(), tau.data());
  set_env_override(EnvSpec::BlockSize, EnvRoutine::geqrf, 0);
  set_env_override(EnvSpec::Crossover, EnvRoutine::geqrf, 0);
  Matrix<double> q = f;
  lapack::orgqr(n, n, n, q.data(), q.ld(), tau.data());
  Matrix<double> r(n, n);
  lapack::lacpy(lapack::Part::Upper, n, n, f.data(), f.ld(), r.data(),
                r.ld());
  EXPECT_LE(max_diff(multiply(q, r), a), tol<double>(100.0) * n);
  EXPECT_LE(orthogonality(q), tol<double>(10.0) * n);
}

TEST_P(BlockSizeSweep, PotrfInvariantUnderBlockSize) {
  const idx nb = GetParam();
  const idx n = 88;
  Iseed seed = seed_for(342);
  const Matrix<double> a = random_spd<double>(n, seed);
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    // Reference: unblocked.
    Matrix<double> ref = a;
    ASSERT_EQ(lapack::potf2(uplo, n, ref.data(), ref.ld()), 0);
    set_env_override(EnvSpec::BlockSize, EnvRoutine::potrf, nb);
    set_env_override(EnvSpec::Crossover, EnvRoutine::potrf, 2);
    Matrix<double> f = a;
    const idx info = lapack::potrf(uplo, n, f.data(), f.ld());
    set_env_override(EnvSpec::BlockSize, EnvRoutine::potrf, 0);
    set_env_override(EnvSpec::Crossover, EnvRoutine::potrf, 0);
    EXPECT_EQ(info, 0);
    EXPECT_LE(max_diff(f, ref), tol<double>(1000.0) * n);
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BlockSizeSweep,
                         ::testing::Values<idx>(1, 2, 7, 16, 33, 64),
                         [](const auto& info) {
                           return "NB" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Condition-number sweep: solve quality and gecon tracking as conditioning
// degrades (latms-generated spectra).
// ---------------------------------------------------------------------------

class ConditionSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConditionSweep, SolveRatioStaysBoundedAndRcondTracks) {
  const double cond = GetParam();
  const idx n = 64;
  Iseed seed = seed_for(350 + static_cast<int>(std::log10(cond)));
  Matrix<double> a(n, n);
  lapack::latms(n, n, lapack::SpectrumMode::Geometric, cond, 1.0, a.data(),
                a.ld(), seed);
  const Matrix<double> b = random_matrix<double>(n, 1, seed);
  Matrix<double> af = a;
  Matrix<double> x = b;
  std::vector<idx> ipiv(n);
  ASSERT_EQ(lapack::gesv(n, 1, af.data(), af.ld(), ipiv.data(), x.data(),
                         x.ld()),
            0);
  // Backward stability does not degrade with conditioning.
  EXPECT_LT(solve_ratio(a, x, b), 30.0);
  const double anorm = lapack::lange(Norm::One, n, n, a.data(), a.ld());
  double rcond = 0;
  lapack::gecon(Norm::One, n, af.data(), af.ld(), ipiv.data(), anorm, rcond);
  EXPECT_GT(rcond, 1.0 / (cond * 100.0));
  EXPECT_LT(rcond, 100.0 / cond);
}

INSTANTIATE_TEST_SUITE_P(Conditions, ConditionSweep,
                         ::testing::Values(1e1, 1e3, 1e6, 1e9),
                         [](const auto& info) {
                           return "Cond1e" +
                                  std::to_string(static_cast<int>(
                                      std::log10(info.param)));
                         });

// ---------------------------------------------------------------------------
// SVD shape sweep.
// ---------------------------------------------------------------------------

class SvdShapeSweep : public ::testing::TestWithParam<std::tuple<idx, idx>> {
};

TEST_P(SvdShapeSweep, ReconstructionAcrossShapes) {
  const auto [m, n] = GetParam();
  const idx k = std::min(m, n);
  Iseed seed = seed_for(360 + static_cast<int>(m * 31 + n));
  const Matrix<double> a = random_matrix<double>(m, n, seed);
  Matrix<double> f = a;
  Matrix<double> u(m, k);
  Matrix<double> vt(k, n);
  std::vector<double> s(k);
  ASSERT_EQ(lapack::gesvd(Job::Vec, Job::Vec, m, n, f.data(), f.ld(),
                          s.data(), u.data(), u.ld(), vt.data(), vt.ld()),
            0);
  Matrix<double> us(m, k);
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < m; ++i) {
      us(i, j) = u(i, j) * s[j];
    }
  }
  EXPECT_LE(max_diff(multiply(us, vt), a), tol<double>(100.0) * (m + n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeSweep,
    ::testing::Values(std::tuple<idx, idx>{2, 2}, std::tuple<idx, idx>{3, 7},
                      std::tuple<idx, idx>{7, 3},
                      std::tuple<idx, idx>{64, 48},
                      std::tuple<idx, idx>{48, 64},
                      std::tuple<idx, idx>{100, 10}),
    [](const auto& info) {
      return "M" + std::to_string(std::get<0>(info.param)) + "N" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Symmetric eigensolver size sweep, syev vs syevd cross-check.
// ---------------------------------------------------------------------------

class EigSizeSweep : public ::testing::TestWithParam<idx> {};

TEST_P(EigSizeSweep, SyevAndSyevdAgree) {
  const idx n = GetParam();
  Iseed seed = seed_for(370 + static_cast<int>(n));
  const Matrix<double> a = random_symmetric<double>(n, seed);
  Matrix<double> z1 = a;
  Matrix<double> z2 = a;
  std::vector<double> w1(n);
  std::vector<double> w2(n);
  ASSERT_EQ(lapack::syev(Job::NoVec, Uplo::Upper, n, z1.data(), z1.ld(),
                         w1.data()),
            0);
  ASSERT_EQ(lapack::syevd(Job::Vec, Uplo::Upper, n, z2.data(), z2.ld(),
                          w2.data()),
            0);
  const double anorm =
      lapack::lange(Norm::Max, n, n, a.data(), a.ld()) + 1.0;
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(w1[i], w2[i], tol<double>(300.0) * n * anorm);
  }
  EXPECT_LE(orthogonality(z2), tol<double>(30.0) * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigSizeSweep,
                         ::testing::Values<idx>(1, 2, 5, 24, 26, 51, 100),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace la::test
