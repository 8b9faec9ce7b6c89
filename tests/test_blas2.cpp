// Level-2 BLAS unit tests: every matrix-vector kernel is checked against
// a straightforward dense reference computation.
#include <gtest/gtest.h>

#include "test_utils.hpp"

namespace la::test {
namespace {

template <class T>
class Blas2Test : public ::testing::Test {};
TYPED_TEST_SUITE(Blas2Test, AllTypes);

/// Reference y := alpha op(A) x + beta y using explicit loops.
template <Scalar T>
std::vector<T> ref_gemv(Trans trans, const Matrix<T>& a, T alpha,
                        const std::vector<T>& x, T beta,
                        const std::vector<T>& y) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx leny = trans == Trans::NoTrans ? m : n;
  std::vector<T> out(static_cast<std::size_t>(leny));
  for (idx i = 0; i < leny; ++i) {
    T s(0);
    if (trans == Trans::NoTrans) {
      for (idx j = 0; j < n; ++j) {
        s += a(i, j) * x[j];
      }
    } else if (trans == Trans::Trans) {
      for (idx j = 0; j < m; ++j) {
        s += a(j, i) * x[j];
      }
    } else {
      for (idx j = 0; j < m; ++j) {
        s += conj_if(a(j, i)) * x[j];
      }
    }
    out[i] = alpha * s + beta * y[i];
  }
  return out;
}

TYPED_TEST(Blas2Test, GemvAllTransModes) {
  using T = TypeParam;
  Iseed seed = seed_for(11);
  const idx m = 13;
  const idx n = 9;
  const Matrix<T> a = random_matrix<T>(m, n, seed);
  std::vector<T> xm(m);
  std::vector<T> xn(n);
  larnv(Dist::Uniform11, seed, m, xm.data());
  larnv(Dist::Uniform11, seed, n, xn.data());
  const T alpha = make_scalar<T>(real_t<T>(1.5), real_t<T>(-0.5));
  const T beta = make_scalar<T>(real_t<T>(0.25));
  for (Trans trans : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
    const auto& x = trans == Trans::NoTrans ? xn : xm;
    const idx leny = trans == Trans::NoTrans ? m : n;
    std::vector<T> y(static_cast<std::size_t>(leny));
    larnv(Dist::Uniform11, seed, leny, y.data());
    const auto expected = ref_gemv(trans, a, alpha, x, beta, y);
    blas::gemv(trans, m, n, alpha, a.data(), a.ld(), x.data(), 1, beta,
               y.data(), 1);
    for (idx i = 0; i < leny; ++i) {
      EXPECT_LE(std::abs(y[i] - expected[i]), tol<T>() * real_t<T>(m + n))
          << "trans=" << static_cast<char>(trans) << " i=" << i;
    }
  }
}

TYPED_TEST(Blas2Test, GercBuildsOuterProduct) {
  using T = TypeParam;
  Iseed seed = seed_for(12);
  const idx m = 7;
  const idx n = 5;
  Matrix<T> a = random_matrix<T>(m, n, seed);
  const Matrix<T> a0 = a;
  std::vector<T> x(m);
  std::vector<T> y(n);
  larnv(Dist::Uniform11, seed, m, x.data());
  larnv(Dist::Uniform11, seed, n, y.data());
  const T alpha = make_scalar<T>(real_t<T>(2));
  blas::gerc(m, n, alpha, x.data(), 1, y.data(), 1, a.data(), a.ld());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      const T expected = a0(i, j) + alpha * x[i] * conj_if(y[j]);
      EXPECT_LE(std::abs(a(i, j) - expected), tol<T>());
    }
  }
}

TYPED_TEST(Blas2Test, HemvMatchesDenseHermitian) {
  using T = TypeParam;
  Iseed seed = seed_for(13);
  const idx n = 12;
  const Matrix<T> full = random_hermitian<T>(n, seed);
  std::vector<T> x(n);
  std::vector<T> y(n, T(0));
  larnv(Dist::Uniform11, seed, n, x.data());
  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    std::vector<T> yu = y;
    blas::hemv(uplo, n, T(1), full.data(), full.ld(), x.data(), 1, T(0),
               yu.data(), 1);
    const auto expected = ref_gemv(Trans::NoTrans, full, T(1), x, T(0), y);
    for (idx i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(yu[i] - expected[i]), tol<T>() * real_t<T>(n));
    }
  }
}

TYPED_TEST(Blas2Test, SymvMatchesDenseSymmetric) {
  using T = TypeParam;
  Iseed seed = seed_for(14);
  const idx n = 10;
  const Matrix<T> full = random_symmetric<T>(n, seed);
  std::vector<T> x(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    std::vector<T> y(n, T(0));
    blas::symv(uplo, n, T(1), full.data(), full.ld(), x.data(), 1, T(0),
               y.data(), 1);
    const auto expected =
        ref_gemv(Trans::NoTrans, full, T(1), x, T(0), y);
    for (idx i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(y[i] - expected[i]), tol<T>() * real_t<T>(n));
    }
  }
}

/// Checks syr/her (two false) or syr2/her2 against explicit sums for both
/// uplo and incx = incy in {1, -1, 2}: the stored triangle gets
/// alpha*x*op(y) (+ its twin for rank 2), the other triangle comes back
/// bit-unchanged and a Hermitian diagonal stays exactly real. The gaps of
/// a strided vector hold NaN, so a kernel that reads them is caught.
template <Scalar T>
void check_rank_update_vec(bool herm, bool two, Iseed& seed) {
  using R = real_t<T>;
  auto cj = [herm](T v) { return herm ? conj_if(v) : v; };
  const idx n = 9;
  const T alpha =
      herm && !two ? T(R(1.5)) : make_scalar<T>(R(0.5), R(-0.75));
  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    for (const idx inc : {idx(1), idx(-1), idx(2)}) {
      std::vector<T> x(n);
      std::vector<T> y(n);
      larnv(Dist::Uniform11, seed, n, x.data());
      larnv(Dist::Uniform11, seed, n, y.data());
      const idx step = inc < 0 ? -inc : inc;
      const std::size_t len = static_cast<std::size_t>(1 + (n - 1) * step);
      std::vector<T> xs(len, T(std::numeric_limits<R>::quiet_NaN()));
      std::vector<T> ys = xs;
      for (idx i = 0; i < n; ++i) {
        // BLAS increments: element i sits at i*inc from the stride base,
        // which is the far end of the storage when inc < 0.
        const idx at = inc > 0 ? i * inc : (n - 1 - i) * step;
        xs[at] = x[i];
        ys[at] = y[i];
      }
      const Matrix<T> a0 =
          herm ? random_hermitian<T>(n, seed) : random_symmetric<T>(n, seed);
      Matrix<T> a = a0;
      if (!two && !herm) {
        blas::syr(uplo, n, alpha, xs.data(), inc, a.data(), a.ld());
      } else if (!two) {
        blas::her(uplo, n, real_part(alpha), xs.data(), inc, a.data(),
                  a.ld());
      } else if (!herm) {
        blas::syr2(uplo, n, alpha, xs.data(), inc, ys.data(), inc, a.data(),
                   a.ld());
      } else {
        blas::her2(uplo, n, alpha, xs.data(), inc, ys.data(), inc, a.data(),
                   a.ld());
      }
      const std::vector<T>& v = two ? y : x;
      for (idx j = 0; j < n; ++j) {
        for (idx i = 0; i < n; ++i) {
          const bool stored = uplo == Uplo::Upper ? i <= j : i >= j;
          if (!stored) {
            EXPECT_EQ(std::memcmp(&a(i, j), &a0(i, j), sizeof(T)), 0);
            continue;
          }
          T expected = a0(i, j) + alpha * x[i] * cj(v[j]);
          if (two) {
            expected += cj(alpha) * y[i] * cj(x[j]);
          }
          if (herm && i == j) {
            EXPECT_EQ(imag_part(a(i, j)), R(0)) << "diagonal " << j;
          }
          EXPECT_LE(std::abs(a(i, j) - expected), tol<T>())
              << "herm=" << herm << " two=" << two
              << " uplo=" << static_cast<char>(uplo) << " inc=" << inc
              << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TYPED_TEST(Blas2Test, HerKeepsDiagonalReal) {
  // syr and her: A += alpha*x*x^T / alpha*x*x^H.
  Iseed seed = seed_for(15);
  check_rank_update_vec<TypeParam>(false, false, seed);
  check_rank_update_vec<TypeParam>(true, false, seed);
}

TYPED_TEST(Blas2Test, Syr2MatchesRankTwoUpdate) {
  // syr2 and her2: A += alpha*x*y^T + alpha*y*x^T / alpha*x*y^H +
  // conj(alpha)*y*x^H.
  Iseed seed = seed_for(16);
  check_rank_update_vec<TypeParam>(false, true, seed);
  check_rank_update_vec<TypeParam>(true, true, seed);
}

TYPED_TEST(Blas2Test, TrsvInvertsTrmv) {
  using T = TypeParam;
  Iseed seed = seed_for(17);
  const idx n = 14;
  Matrix<T> a = random_matrix<T>(n, n, seed);
  for (idx i = 0; i < n; ++i) {
    a(i, i) += T(real_t<T>(4));  // keep well conditioned
  }
  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    for (Trans trans : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
      for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
        std::vector<T> x(n);
        larnv(Dist::Uniform11, seed, n, x.data());
        const auto x0 = x;
        blas::trmv(uplo, trans, diag, n, a.data(), a.ld(), x.data(), 1);
        blas::trsv(uplo, trans, diag, n, a.data(), a.ld(), x.data(), 1);
        for (idx i = 0; i < n; ++i) {
          EXPECT_LE(std::abs(x[i] - x0[i]), tol<T>(real_t<T>(100)))
              << static_cast<char>(uplo) << static_cast<char>(trans)
              << static_cast<char>(diag);
        }
      }
    }
  }
}

TYPED_TEST(Blas2Test, GbmvMatchesDenseBand) {
  using T = TypeParam;
  Iseed seed = seed_for(18);
  const idx n = 15;
  const idx kl = 2;
  const idx ku = 3;
  Matrix<T> dense = random_matrix<T>(n, n, seed);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      if (i - j > kl || j - i > ku) {
        dense(i, j) = T(0);
      }
    }
  }
  const auto band = BandMatrix<T>::from_dense(dense, kl, ku);
  std::vector<T> x(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  for (Trans trans : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
    std::vector<T> y(n, T(0));
    // GB storage in BandMatrix starts at the fill-in offset kl.
    blas::gbmv(trans, n, n, kl, ku, T(1), band.data() + kl, band.ldab(),
               x.data(), 1, T(0), y.data(), 1);
    const auto expected =
        ref_gemv(trans, dense, T(1), x, T(0), std::vector<T>(n, T(0)));
    for (idx i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(y[i] - expected[i]), tol<T>() * real_t<T>(n));
    }
  }
}

TYPED_TEST(Blas2Test, SpmvHpmvMatchDense) {
  using T = TypeParam;
  Iseed seed = seed_for(19);
  const idx n = 11;
  const Matrix<T> herm = random_hermitian<T>(n, seed);
  const Matrix<T> sym = random_symmetric<T>(n, seed);
  std::vector<T> x(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    const auto hp = PackedMatrix<T>::from_dense(herm, uplo);
    const auto sp = PackedMatrix<T>::from_dense(sym, uplo);
    std::vector<T> yh(n, T(0));
    std::vector<T> ys(n, T(0));
    blas::hpmv(uplo, n, T(1), hp.data(), x.data(), 1, T(0), yh.data(), 1);
    blas::spmv(uplo, n, T(1), sp.data(), x.data(), 1, T(0), ys.data(), 1);
    const auto eh = ref_gemv(Trans::NoTrans, herm, T(1), x, T(0), yh);
    const auto es = ref_gemv(Trans::NoTrans, sym, T(1), x, T(0), ys);
    for (idx i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(yh[i] - eh[i]), tol<T>() * real_t<T>(n));
      EXPECT_LE(std::abs(ys[i] - es[i]), tol<T>() * real_t<T>(n));
    }
  }
}

TYPED_TEST(Blas2Test, TbsvAndTpsvSolveTriangularSystems) {
  using T = TypeParam;
  Iseed seed = seed_for(20);
  const idx n = 12;
  const idx k = 3;
  // Build a banded upper-triangular and a packed lower-triangular system.
  Matrix<T> dense = random_matrix<T>(n, n, seed);
  for (idx i = 0; i < n; ++i) {
    dense(i, i) += T(real_t<T>(4));
  }
  // Banded upper (SB layout with diagonal at row k).
  std::vector<T> ab(static_cast<std::size_t>(k + 1) * n, T(0));
  for (idx j = 0; j < n; ++j) {
    for (idx i = std::max<idx>(0, j - k); i <= j; ++i) {
      ab[static_cast<std::size_t>(j) * (k + 1) + (k + i - j)] = dense(i, j);
    }
  }
  std::vector<T> x(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  const auto x0 = x;
  // b = U x via dense, then solve back with tbsv.
  std::vector<T> b(n, T(0));
  for (idx j = 0; j < n; ++j) {
    for (idx i = std::max<idx>(0, j - k); i <= j; ++i) {
      b[i] += dense(i, j) * x[j];
    }
  }
  blas::tbsv(Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n, k, ab.data(),
             k + 1, b.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(b[i] - x0[i]), tol<T>(real_t<T>(100)));
  }
  // Packed lower solve round trip.
  const auto lp = PackedMatrix<T>::from_dense(dense, Uplo::Lower);
  std::vector<T> b2(n, T(0));
  for (idx j = 0; j < n; ++j) {
    for (idx i = j; i < n; ++i) {
      b2[i] += dense(i, j) * x[j];
    }
  }
  blas::tpsv(Uplo::Lower, Trans::NoTrans, Diag::NonUnit, n, lp.data(),
             b2.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(b2[i] - x0[i]), tol<T>(real_t<T>(100)));
  }
}

TYPED_TEST(Blas2Test, TbmvTpmvInvertTheirSolves) {
  using T = TypeParam;
  Iseed seed = seed_for(21);
  const idx n = 13;
  const idx k = 4;
  Matrix<T> dense = random_matrix<T>(n, n, seed);
  for (idx i = 0; i < n; ++i) {
    dense(i, i) += T(real_t<T>(4));
  }
  // Banded storage for both triangles.
  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    std::vector<T> ab(static_cast<std::size_t>(k + 1) * n, T(0));
    for (idx j = 0; j < n; ++j) {
      if (uplo == Uplo::Upper) {
        for (idx i = std::max<idx>(0, j - k); i <= j; ++i) {
          ab[static_cast<std::size_t>(j) * (k + 1) + (k + i - j)] =
              dense(i, j);
        }
      } else {
        for (idx i = j; i <= std::min<idx>(n - 1, j + k); ++i) {
          ab[static_cast<std::size_t>(j) * (k + 1) + (i - j)] = dense(i, j);
        }
      }
    }
    const auto tp = PackedMatrix<T>::from_dense(dense, uplo);
    for (Trans trans : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
      for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
        std::vector<T> x(n);
        larnv(Dist::Uniform11, seed, n, x.data());
        const auto x0 = x;
        blas::tbmv(uplo, trans, diag, n, k, ab.data(), k + 1, x.data(), 1);
        blas::tbsv(uplo, trans, diag, n, k, ab.data(), k + 1, x.data(), 1);
        for (idx i = 0; i < n; ++i) {
          EXPECT_LE(std::abs(x[i] - x0[i]), tol<T>(real_t<T>(300)))
              << "tbmv " << static_cast<char>(uplo)
              << static_cast<char>(trans) << static_cast<char>(diag);
        }
        std::vector<T> y(n);
        larnv(Dist::Uniform11, seed, n, y.data());
        const auto y0 = y;
        blas::tpmv(uplo, trans, diag, n, tp.data(), y.data(), 1);
        blas::tpsv(uplo, trans, diag, n, tp.data(), y.data(), 1);
        for (idx i = 0; i < n; ++i) {
          EXPECT_LE(std::abs(y[i] - y0[i]), tol<T>(real_t<T>(300)))
              << "tpmv " << static_cast<char>(uplo)
              << static_cast<char>(trans) << static_cast<char>(diag);
        }
      }
    }
  }
}

TYPED_TEST(Blas2Test, TbmvMatchesDenseTrmv) {
  using T = TypeParam;
  Iseed seed = seed_for(22);
  const idx n = 11;
  const idx k = 3;
  Matrix<T> dense = random_matrix<T>(n, n, seed);
  // Upper triangular band.
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      if (i > j || j - i > k) {
        dense(i, j) = T(0);
      }
    }
  }
  std::vector<T> ab(static_cast<std::size_t>(k + 1) * n, T(0));
  for (idx j = 0; j < n; ++j) {
    for (idx i = std::max<idx>(0, j - k); i <= j; ++i) {
      ab[static_cast<std::size_t>(j) * (k + 1) + (k + i - j)] = dense(i, j);
    }
  }
  std::vector<T> x(n);
  larnv(Dist::Uniform11, seed, n, x.data());
  auto xd = x;
  blas::tbmv(Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n, k, ab.data(),
             k + 1, x.data(), 1);
  blas::trmv(Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n, dense.data(),
             dense.ld(), xd.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(x[i] - xd[i]), tol<T>() * real_t<T>(n));
  }
}

}  // namespace
}  // namespace la::test
