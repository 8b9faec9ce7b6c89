// Level-1 BLAS unit tests: algebraic identities on vector kernels across
// all four element types.
#include <gtest/gtest.h>

#include "test_utils.hpp"

namespace la::test {
namespace {

template <class T>
class Blas1Test : public ::testing::Test {};
TYPED_TEST_SUITE(Blas1Test, AllTypes);

TYPED_TEST(Blas1Test, AxpyAddsScaledVector) {
  using T = TypeParam;
  Iseed seed = seed_for(1);
  const idx n = 17;
  std::vector<T> x(n);
  std::vector<T> y(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  larnv(Dist::Uniform11, seed, n, y.data());
  const std::vector<T> y0 = y;
  const T alpha = make_scalar<T>(real_t<T>(0.75), real_t<T>(0.25));
  blas::axpy(n, alpha, x.data(), 1, y.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(y[i] - (y0[i] + alpha * x[i])), tol<T>());
  }
}

TYPED_TEST(Blas1Test, AxpyZeroAlphaIsNoop) {
  using T = TypeParam;
  Iseed seed = seed_for(2);
  const idx n = 9;
  std::vector<T> x(n);
  std::vector<T> y(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  larnv(Dist::Uniform11, seed, n, y.data());
  const std::vector<T> y0 = y;
  blas::axpy(n, T(0), x.data(), 1, y.data(), 1);
  EXPECT_EQ(y, y0);
}

TYPED_TEST(Blas1Test, DotcIsConjugateLinear) {
  using T = TypeParam;
  Iseed seed = seed_for(3);
  const idx n = 13;
  std::vector<T> x(n);
  std::vector<T> y(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  larnv(Dist::Uniform11, seed, n, y.data());
  T expected(0);
  for (idx i = 0; i < n; ++i) {
    expected += conj_if(x[i]) * y[i];
  }
  EXPECT_LE(std::abs(blas::dotc(n, x.data(), 1, y.data(), 1) - expected),
            tol<T>() * real_t<T>(n));
}

TYPED_TEST(Blas1Test, DotcOfSelfIsNormSquared) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(4);
  const idx n = 21;
  std::vector<T> x(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  const T d = blas::dotc(n, x.data(), 1, x.data(), 1);
  const R nrm = blas::nrm2(n, x.data(), 1);
  EXPECT_NEAR(real_part(d), nrm * nrm, tol<T>() * n);
  EXPECT_LE(std::abs(imag_part(d)), tol<T>() * n);
}

TYPED_TEST(Blas1Test, Nrm2IsScaleInvariantSafe) {
  using T = TypeParam;
  using R = real_t<T>;
  // Values near the overflow threshold must not overflow in nrm2.
  const R big = Machine<T>::huge_val() / R(4);
  std::vector<T> x = {T(big), T(big), T(big)};
  const R nrm = blas::nrm2(idx(3), x.data(), 1);
  EXPECT_TRUE(std::isfinite(nrm));
  EXPECT_NEAR(nrm / big, std::sqrt(R(3)), tol<T>(R(100)));
}

/// nrm2 through the scaled sum of squares alone (the fallback path).
template <Scalar T>
real_t<T> lassq_norm(idx n, const T* x) {
  real_t<T> scale(0);
  real_t<T> sumsq(1);
  lassq(n, x, 1, scale, sumsq);
  return scale * std::sqrt(sumsq);
}

TYPED_TEST(Blas1Test, Nrm2TinyValuesOnBothSidesOfTheFastPathGuard) {
  using T = TypeParam;
  using R = real_t<T>;
  // The unit-stride fast path needs sum(x^2) >= n * safmin / eps. Equal
  // entries put the sum at n * v^2, so v = sqrt(safmin / eps) * f lands on
  // the fast side for f > 1 and on the lassq side for f < 1. The two
  // smallest f leave every square below safmin; at the last, a plain sum
  // of squares would underflow to zero.
  const R edge = std::sqrt(safmin<T>() / eps<T>());
  for (const R f : {R(4), R(1.5), R(0.75), R(0.25),
                    std::sqrt(eps<T>()) / R(4), eps<T>() / R(4)}) {
    for (const idx n : {idx(1), idx(7), idx(33)}) {
      const R v = edge * f;
      const std::vector<T> x(static_cast<std::size_t>(n), T(v));
      const R nrm = blas::nrm2(n, x.data(), 1);
      EXPECT_NEAR(nrm / v, std::sqrt(R(n)), tol<T>() * std::sqrt(R(n)))
          << "f=" << f << " n=" << n;
    }
  }
}

TYPED_TEST(Blas1Test, Nrm2PropagatesInfAndNanAndZero) {
  using T = TypeParam;
  using R = real_t<T>;
  const R inf = std::numeric_limits<R>::infinity();
  const R nan = std::numeric_limits<R>::quiet_NaN();
  const idx n = 37;
  for (const idx at : {idx(0), idx(20), n - 1}) {
    std::vector<T> x(static_cast<std::size_t>(n), T(R(0.5)));
    x[static_cast<std::size_t>(at)] = T(inf);
    EXPECT_EQ(blas::nrm2(n, x.data(), 1), inf) << "at=" << at;
    x[static_cast<std::size_t>(at)] = T(nan);
    EXPECT_TRUE(std::isnan(blas::nrm2(n, x.data(), 1))) << "at=" << at;
  }
  const std::vector<T> z(static_cast<std::size_t>(n), T(0));
  EXPECT_EQ(blas::nrm2(n, z.data(), 1), R(0));
  // Two infinities stay Inf (the scaled sum must not form Inf/Inf), also
  // as the two parts of one complex entry; a NaN next to them still wins.
  const std::vector<std::vector<T>> infs = {
      {T(R(1)), T(inf), T(R(2)), T(inf)},
      {T(inf), T(-inf)},
      {make_scalar<T>(inf, -inf), T(R(3))}};
  for (const std::vector<T>& v : infs) {
    EXPECT_EQ(blas::nrm2(idx(v.size()), v.data(), 1), inf) << v.size();
  }
  const std::vector<std::vector<T>> nans = {{T(inf), T(nan), T(inf)},
                                            {T(nan), T(inf), T(inf)},
                                            {T(inf), T(inf), T(nan)}};
  for (const std::vector<T>& v : nans) {
    EXPECT_TRUE(std::isnan(blas::nrm2(idx(3), v.data(), 1)));
  }
}

TYPED_TEST(Blas1Test, Nrm2MatchesLassqAcrossVectorWidths) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(7);
  constexpr idx W = simd_width_v<R>;
  for (const idx n : {std::max<idx>(W - 1, 1), W, W + 1, 4 * W - 1, 4 * W,
                      4 * W + 1, idx(2047)}) {
    std::vector<T> x(static_cast<std::size_t>(n));
    larnv(Dist::Uniform11, seed, n, x.data());
    const R ref = lassq_norm(n, x.data());
    EXPECT_NEAR(blas::nrm2(n, x.data(), 1), ref, tol<T>() * ref) << "n=" << n;
    // A strided view of the same storage takes the lassq path unchanged.
    const idx half = (n + 1) / 2;
    std::vector<T> even(static_cast<std::size_t>(half));
    for (idx i = 0; i < half; ++i) {
      even[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(2 * i)];
    }
    EXPECT_EQ(blas::nrm2(half, x.data(), 2), lassq_norm(half, even.data()))
        << "n=" << n;
  }
}

TYPED_TEST(Blas1Test, IamaxFindsLargestAbs1) {
  using T = TypeParam;
  Iseed seed = seed_for(5);
  const idx n = 40;
  std::vector<T> x(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  x[23] = make_scalar<T>(real_t<T>(9), real_t<T>(9));
  EXPECT_EQ(blas::iamax(n, x.data(), 1), 23);
  EXPECT_EQ(blas::iamax(idx(0), x.data(), 1), -1);
}

TYPED_TEST(Blas1Test, SwapAndCopyRoundTrip) {
  using T = TypeParam;
  Iseed seed = seed_for(6);
  const idx n = 11;
  std::vector<T> x(n);
  std::vector<T> y(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  larnv(Dist::Uniform11, seed, n, y.data());
  auto x0 = x;
  auto y0 = y;
  blas::swap(n, x.data(), 1, y.data(), 1);
  EXPECT_EQ(x, y0);
  EXPECT_EQ(y, x0);
  blas::copy(n, x.data(), 1, y.data(), 1);
  EXPECT_EQ(y, x);
}

TYPED_TEST(Blas1Test, StridedAccessMatchesDense) {
  using T = TypeParam;
  Iseed seed = seed_for(7);
  const idx n = 8;
  std::vector<T> x(3 * n);
  larnv(Dist::Uniform11, seed, 3 * n, x.data());
  std::vector<T> dense(n);
  for (idx i = 0; i < n; ++i) {
    dense[i] = x[3 * i];
  }
  EXPECT_EQ(blas::asum(n, x.data(), 3), blas::asum(n, dense.data(), 1));
  EXPECT_EQ(blas::iamax(n, x.data(), 3), blas::iamax(n, dense.data(), 1));
}

TYPED_TEST(Blas1Test, NegativeIncrementReversesDirection) {
  using T = TypeParam;
  const idx n = 4;
  std::vector<T> x = {T(1), T(2), T(3), T(4)};
  std::vector<T> y(n, T(0));
  // y := x with incx = -1 pairs x reversed against y forward.
  blas::copy(n, x.data(), -1, y.data(), 1);
  EXPECT_EQ(y[0], T(4));
  EXPECT_EQ(y[3], T(1));
}

TYPED_TEST(Blas1Test, RotPreservesNorm) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(8);
  const idx n = 15;
  std::vector<T> x(n);
  std::vector<T> y(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  larnv(Dist::Uniform11, seed, n, y.data());
  R before(0);
  for (idx i = 0; i < n; ++i) {
    before += std::norm(std::complex<R>(real_part(x[i]), imag_part(x[i]))) +
              std::norm(std::complex<R>(real_part(y[i]), imag_part(y[i])));
  }
  const R c = R(0.6);
  const R s = R(0.8);
  blas::rot(n, x.data(), 1, y.data(), 1, c, s);
  R after(0);
  for (idx i = 0; i < n; ++i) {
    after += std::norm(std::complex<R>(real_part(x[i]), imag_part(x[i]))) +
             std::norm(std::complex<R>(real_part(y[i]), imag_part(y[i])));
  }
  EXPECT_NEAR(before, after, tol<T>(R(100)) * before);
}

template <class R>
class Blas1RealTest : public ::testing::Test {};
TYPED_TEST_SUITE(Blas1RealTest, RealTypes);

TYPED_TEST(Blas1RealTest, RotgAnnihilatesSecondComponent) {
  using R = TypeParam;
  R a = R(3);
  R b = R(-4);
  R c;
  R s;
  blas::rotg(a, b, c, s);
  EXPECT_NEAR(std::abs(a), R(5), tol<R>(R(10)));
  EXPECT_NEAR(c * c + s * s, R(1), tol<R>(R(10)));
}

TYPED_TEST(Blas1RealTest, LartgProducesExactRotation) {
  using R = TypeParam;
  for (auto [f, g] : {std::pair<R, R>{R(1), R(2)}, {R(0), R(3)},
                      {R(-2), R(0)}, {R(-1), R(-1)}}) {
    R c;
    R s;
    R r;
    blas::lartg(f, g, c, s, r);
    EXPECT_NEAR(c * f + s * g, r, tol<R>(R(10)) * (std::abs(f) + std::abs(g) +
                                                   R(1)));
    EXPECT_NEAR(-s * f + c * g, R(0),
                tol<R>(R(10)) * (std::abs(f) + std::abs(g) + R(1)));
  }
}

TYPED_TEST(Blas1RealTest, LassqMatchesDirectSum) {
  using R = TypeParam;
  Iseed seed = seed_for(9);
  const idx n = 31;
  std::vector<R> x(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  R scale(0);
  R sumsq(1);
  lassq(n, x.data(), 1, scale, sumsq);
  R direct(0);
  for (idx i = 0; i < n; ++i) {
    direct += x[i] * x[i];
  }
  EXPECT_NEAR(scale * scale * sumsq, direct, tol<R>(R(100)) * direct);
}

}  // namespace
}  // namespace la::test
