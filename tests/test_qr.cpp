// Householder / QR machinery tests: reflector properties, QR/LQ
// factorizations, Q accumulation/application, column pivoting, RZ.
#include <gtest/gtest.h>

#include "test_utils.hpp"

namespace la::test {
namespace {

template <class T>
class QrTest : public ::testing::Test {};
TYPED_TEST_SUITE(QrTest, AllTypes);

TYPED_TEST(QrTest, LarfgAnnihilatesTail) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(101);
  const idx n = 9;
  std::vector<T> v(n);
  larnv(Dist::Uniform11, seed, n, v.data());
  const std::vector<T> v0 = v;
  T alpha = v[0];
  T tau;
  lapack::larfg(n, alpha, v.data() + 1, 1, tau);
  // Rebuild H^H x and confirm [beta, 0...0].
  std::vector<T> h(n);
  h[0] = T(1);
  for (idx i = 1; i < n; ++i) {
    h[i] = v[i];
  }
  // H^H x = x - conj(tau) v (v^H x).
  T vhx = v0[0];
  for (idx i = 1; i < n; ++i) {
    vhx += conj_if(h[i]) * v0[i];
  }
  std::vector<T> hx(n);
  for (idx i = 0; i < n; ++i) {
    hx[i] = v0[i] - conj_if(tau) * h[i] * vhx;
  }
  EXPECT_LE(std::abs(hx[0] - alpha), tol<T>(R(100)));
  for (idx i = 1; i < n; ++i) {
    EXPECT_LE(std::abs(hx[i]), tol<T>(R(100)));
  }
  // beta is real.
  EXPECT_EQ(imag_part(alpha), R(0));
}

TYPED_TEST(QrTest, LarfgHandlesTinyInputWithRescaling) {
  using T = TypeParam;
  using R = real_t<T>;
  const idx n = 3;
  const R tiny = Machine<T>::tiny_val() * R(4);
  std::vector<T> v = {T(tiny), T(tiny), T(tiny)};
  T alpha = v[0];
  T tau;
  lapack::larfg(n, alpha, v.data() + 1, 1, tau);
  EXPECT_TRUE(std::isfinite(real_part(alpha)));
  EXPECT_NE(real_part(alpha), R(0));
}

TYPED_TEST(QrTest, GeqrfReconstructsAndIsOrthogonal) {
  using T = TypeParam;
  Iseed seed = seed_for(102);
  for (auto [m, n] : {std::pair<idx, idx>{40, 25}, {25, 25}, {140, 60}}) {
    const Matrix<T> a = random_matrix<T>(m, n, seed);
    Matrix<T> f = a;
    std::vector<T> tau(std::min(m, n));
    lapack::geqrf(m, n, f.data(), f.ld(), tau.data());
    Matrix<T> q = f;
    lapack::orgqr(m, n, std::min(m, n), q.data(), q.ld(), tau.data());
    Matrix<T> r(n, n);
    lapack::lacpy(lapack::Part::Upper, n, n, f.data(), f.ld(), r.data(),
                  r.ld());
    EXPECT_LE(max_diff(multiply(q, r), a), tol<T>() * real_t<T>(m + n))
        << m << "x" << n;
    EXPECT_LE(orthogonality(q), tol<T>() * real_t<T>(m));
  }
}

// The recursive panel of the tiled geqrf against the Level-2 pair it
// replaced: geqrt3 must return the V, R, tau and T that geqr2 + larft
// return (to rounding), and larfb with its T must carry the original panel
// to its R. Covers odd and power-of-two widths on both sides of the gemv
// cutoff, square to tall heights, an exactly-zero column (tau = 0) and
// leading columns already zero below the diagonal.
TYPED_TEST(QrTest, Geqrt3MatchesGeqr2AndLarft) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(109);
  enum class Case { Random, ZeroColumn, ZeroBelowDiagonal };
  for (const idx w : {1, 2, 3, 5, 8, 16, 17, 33, 64}) {
    for (const idx m : {w, w + 1, 3 * w, idx{300}}) {
      for (const Case kind :
           {Case::Random, Case::ZeroColumn, Case::ZeroBelowDiagonal}) {
        Matrix<T> a0 = random_matrix<T>(m, w, seed);
        const idx zc = w / 2;
        if (kind == Case::ZeroColumn) {
          for (idx i = 0; i < m; ++i) {
            a0(i, zc) = T(0);
          }
        } else if (kind == Case::ZeroBelowDiagonal) {
          // Columns 0..zc upper triangular with a real diagonal: their
          // reflectors are the identity (tau = 0).
          for (idx j = 0; j <= zc; ++j) {
            a0(j, j) = T(real_part(a0(j, j)));
            for (idx i = j + 1; i < m; ++i) {
              a0(i, j) = T(0);
            }
          }
        }
        Matrix<T> ref = a0, rec = a0;
        Matrix<T> tref(w, w), trec(w, w);
        std::vector<T> tauref(w), taurec(w), work(w);
        lapack::geqr2(m, w, ref.data(), ref.ld(), tauref.data(), work.data());
        lapack::larft(m, w, ref.data(), ref.ld(), tauref.data(), tref.data(),
                      tref.ld());
        lapack::geqrt3(m, w, rec.data(), rec.ld(), taurec.data(),
                       trec.data(), trec.ld());
        const R scale = std::max(R(1), lapack::lange(Norm::Max, m, w,
                                                     ref.data(), ref.ld()));
        const R bound = tol<T>() * R(m) * scale;
        const auto where = [&] {
          return ::testing::Message() << m << "x" << w << " case "
                                      << static_cast<int>(kind);
        };
        EXPECT_LE(max_diff(rec, ref), bound) << where();
        for (idx i = 0; i < w; ++i) {
          EXPECT_LE(std::abs(taurec[i] - tauref[i]), bound) << where();
          EXPECT_EQ(trec(i, i), taurec[i]) << where();
          for (idx j = i; j < w; ++j) {
            EXPECT_LE(std::abs(trec(i, j) - tref(i, j)), bound)
                << where() << " T(" << i << "," << j << ")";
          }
        }
        if (kind != Case::Random) {
          const idx z = kind == Case::ZeroColumn ? zc : 0;
          EXPECT_EQ(taurec[z], T(0)) << where();
        }
        // Q^H A0 = R through larfb with the returned T.
        Matrix<T> c = a0;
        std::vector<T> lwork(static_cast<std::size_t>(w) * w);
        lapack::larfb(Side::Left, conj_trans_for<T>(), m, w, w, rec.data(),
                      rec.ld(), trec.data(), trec.ld(), c.data(), c.ld(),
                      lwork.data(), w);
        for (idx j = 0; j < w; ++j) {
          for (idx i = 0; i < m; ++i) {
            const T want = i <= j ? rec(i, j) : T(0);
            EXPECT_LE(std::abs(c(i, j) - want), bound)
                << where() << " (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TYPED_TEST(QrTest, OrmqrAppliesQWithoutForming) {
  using T = TypeParam;
  Iseed seed = seed_for(103);
  const idx m = 30;
  const idx n = 18;
  const Matrix<T> a = random_matrix<T>(m, n, seed);
  Matrix<T> f = a;
  std::vector<T> tau(n);
  lapack::geqrf(m, n, f.data(), f.ld(), tau.data());
  Matrix<T> q(m, m);
  lapack::lacpy(lapack::Part::All, m, n, f.data(), f.ld(), q.data(), q.ld());
  lapack::orgqr(m, m, n, q.data(), q.ld(), tau.data());
  const Matrix<T> c = random_matrix<T>(m, 5, seed);
  // Left NoTrans.
  Matrix<T> c1 = c;
  lapack::ormqr(Side::Left, Trans::NoTrans, m, 5, n, f.data(), f.ld(),
                tau.data(), c1.data(), c1.ld());
  EXPECT_LE(max_diff(c1, multiply(q, c)), tol<T>(real_t<T>(100)) *
                                              real_t<T>(m));
  // Left ConjTrans.
  Matrix<T> c2 = c;
  lapack::ormqr(Side::Left, conj_trans_for<T>(), m, 5, n, f.data(), f.ld(),
                tau.data(), c2.data(), c2.ld());
  EXPECT_LE(max_diff(c2, multiply(q, c, conj_trans_for<T>(),
                                  Trans::NoTrans)),
            tol<T>(real_t<T>(100)) * real_t<T>(m));
  // Right NoTrans on a 5 x m block.
  const Matrix<T> cr = random_matrix<T>(5, m, seed);
  Matrix<T> c3 = cr;
  lapack::ormqr(Side::Right, Trans::NoTrans, 5, m, n, f.data(), f.ld(),
                tau.data(), c3.data(), c3.ld());
  EXPECT_LE(max_diff(c3, multiply(cr, q)), tol<T>(real_t<T>(100)) *
                                               real_t<T>(m));
}

TYPED_TEST(QrTest, GelqfReconstructsAndHasOrthonormalRows) {
  using T = TypeParam;
  Iseed seed = seed_for(104);
  const idx m = 20;
  const idx n = 33;
  const Matrix<T> a = random_matrix<T>(m, n, seed);
  Matrix<T> f = a;
  std::vector<T> tau(m);
  lapack::gelqf(m, n, f.data(), f.ld(), tau.data());
  Matrix<T> q(m, n);
  lapack::lacpy(lapack::Part::All, m, n, f.data(), f.ld(), q.data(), q.ld());
  lapack::orglq(m, n, m, q.data(), q.ld(), tau.data());
  Matrix<T> l(m, m);
  lapack::lacpy(lapack::Part::Lower, m, m, f.data(), f.ld(), l.data(),
                l.ld());
  EXPECT_LE(max_diff(multiply(l, q), a), tol<T>() * real_t<T>(m + n));
  // Rows orthonormal: Q Q^H = I.
  Matrix<T> g = multiply(q, q, Trans::NoTrans, conj_trans_for<T>());
  for (idx i = 0; i < m; ++i) {
    g(i, i) -= T(1);
  }
  EXPECT_LE(lapack::lange(Norm::Max, m, m, g.data(), g.ld()),
            tol<T>() * real_t<T>(n));
}

TYPED_TEST(QrTest, OrmlqAppliesLqFactor) {
  using T = TypeParam;
  Iseed seed = seed_for(105);
  const idx m = 15;
  const idx n = 24;
  const Matrix<T> a = random_matrix<T>(m, n, seed);
  Matrix<T> f = a;
  std::vector<T> tau(m);
  lapack::gelqf(m, n, f.data(), f.ld(), tau.data());
  Matrix<T> q(n, n);
  lapack::lacpy(lapack::Part::All, m, n, f.data(), f.ld(), q.data(), q.ld());
  lapack::orglq(n, n, m, q.data(), q.ld(), tau.data());
  const Matrix<T> c = random_matrix<T>(n, 4, seed);
  Matrix<T> c1 = c;
  lapack::ormlq(Side::Left, Trans::NoTrans, n, 4, m, f.data(), f.ld(),
                tau.data(), c1.data(), c1.ld());
  EXPECT_LE(max_diff(c1, multiply(q, c)),
            tol<T>(real_t<T>(100)) * real_t<T>(n));
  Matrix<T> c2 = c;
  lapack::ormlq(Side::Left, conj_trans_for<T>(), n, 4, m, f.data(), f.ld(),
                tau.data(), c2.data(), c2.ld());
  EXPECT_LE(max_diff(c2, multiply(q, c, conj_trans_for<T>(),
                                  Trans::NoTrans)),
            tol<T>(real_t<T>(100)) * real_t<T>(n));
}

TYPED_TEST(QrTest, Geqp3PivotsAndReconstructs) {
  using T = TypeParam;
  Iseed seed = seed_for(106);
  const idx m = 28;
  const idx n = 16;
  const Matrix<T> a = random_matrix<T>(m, n, seed);
  Matrix<T> f = a;
  std::vector<idx> jpvt(n);
  std::vector<T> tau(n);
  lapack::geqp3(m, n, f.data(), f.ld(), jpvt.data(), tau.data());
  Matrix<T> q = f;
  lapack::orgqr(m, n, n, q.data(), q.ld(), tau.data());
  Matrix<T> r(n, n);
  lapack::lacpy(lapack::Part::Upper, n, n, f.data(), f.ld(), r.data(),
                r.ld());
  const Matrix<T> qr = multiply(q, r);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      EXPECT_LE(std::abs(qr(i, j) - a(i, jpvt[j])),
                tol<T>() * real_t<T>(m + n));
    }
  }
  // R diagonal magnitudes are non-increasing.
  for (idx i = 1; i < n; ++i) {
    EXPECT_LE(std::abs(r(i, i)),
              std::abs(r(i - 1, i - 1)) + tol<T>() * std::abs(r(0, 0)));
  }
  // jpvt is a permutation.
  std::vector<bool> seen(n, false);
  for (idx j = 0; j < n; ++j) {
    ASSERT_GE(jpvt[j], 0);
    ASSERT_LT(jpvt[j], n);
    EXPECT_FALSE(seen[jpvt[j]]);
    seen[jpvt[j]] = true;
  }
}

TYPED_TEST(QrTest, Geqp3RevealsRank) {
  using T = TypeParam;
  Iseed seed = seed_for(107);
  const idx m = 20;
  const idx n = 14;
  const idx rank = 6;
  const Matrix<T> g1 = random_matrix<T>(m, rank, seed);
  const Matrix<T> g2 = random_matrix<T>(rank, n, seed);
  const Matrix<T> a = multiply(g1, g2);
  Matrix<T> f = a;
  std::vector<idx> jpvt(n);
  std::vector<T> tau(n);
  lapack::geqp3(m, n, f.data(), f.ld(), jpvt.data(), tau.data());
  // R diagonal drops sharply after `rank` entries.
  EXPECT_GT(std::abs(f(rank - 1, rank - 1)),
            real_t<T>(1000) * std::abs(f(rank, rank)));
}

TYPED_TEST(QrTest, TzrzfCompressesTrapezoid) {
  using T = TypeParam;
  Iseed seed = seed_for(108);
  const idx m = 6;
  const idx n = 11;
  // Build an upper trapezoidal matrix.
  Matrix<T> a = random_matrix<T>(m, n, seed);
  for (idx j = 0; j < m; ++j) {
    for (idx i = j + 1; i < m; ++i) {
      a(i, j) = T(0);
    }
  }
  const Matrix<T> a0 = a;
  std::vector<T> tau(m);
  lapack::tzrzf(m, n, a.data(), a.ld(), tau.data());
  // [R 0] Z should reproduce A0: verify by applying Z^H to A0^H... simpler:
  // check that the computed R has the same singular values as A0.
  Matrix<T> r(m, m);
  lapack::lacpy(lapack::Part::Upper, m, m, a.data(), a.ld(), r.data(),
                r.ld());
  std::vector<real_t<T>> s1(m);
  std::vector<real_t<T>> s2(m);
  Matrix<T> c1 = a0;
  Matrix<T> c2 = r;
  ASSERT_EQ(lapack::gesvd(Job::NoVec, Job::NoVec, m, n, c1.data(), c1.ld(),
                          s1.data(), static_cast<T*>(nullptr), 1,
                          static_cast<T*>(nullptr), 1),
            0);
  ASSERT_EQ(lapack::gesvd(Job::NoVec, Job::NoVec, m, m, c2.data(), c2.ld(),
                          s2.data(), static_cast<T*>(nullptr), 1,
                          static_cast<T*>(nullptr), 1),
            0);
  for (idx i = 0; i < m; ++i) {
    EXPECT_NEAR(s1[i], s2[i], tol<T>(real_t<T>(100)) * (s1[0] + real_t<T>(1)));
  }
}

}  // namespace
}  // namespace la::test
