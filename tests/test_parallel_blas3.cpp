// Blocked/threaded Level-3 coverage: the packed gemm and the gemm-based
// syrk/herk/symm/hemm/trmm/trsm recasts against dense references at ragged
// sizes that straddle the MC/KC/NC blocking edges, plus the determinism
// contract — results must be bit-identical for every worker count.
#include <gtest/gtest.h>

#include <vector>

#include "test_utils.hpp"

namespace la::test {
namespace {

template <class T>
class ParallelBlas3Test : public ::testing::Test {};
TYPED_TEST_SUITE(ParallelBlas3Test, AllTypes);

constexpr Trans kAllTrans[] = {Trans::NoTrans, Trans::Trans,
                               Trans::ConjTrans};

/// Fill the unstored triangle with garbage so a kernel that touches it is
/// caught by the dense comparison.
template <Scalar T>
void poison_other_triangle(Matrix<T>& a, Uplo stored) {
  const idx n = a.rows();
  for (idx j = 0; j < n; ++j) {
    const idx lo = stored == Uplo::Upper ? j + 1 : 0;
    const idx hi = stored == Uplo::Upper ? n - 1 : j - 1;
    for (idx i = lo; i <= hi; ++i) {
      a(i, j) = T(real_t<T>(1e6));
    }
  }
}

TYPED_TEST(ParallelBlas3Test, GemmRaggedSizesStraddleBlockEdgesAllModes) {
  using T = TypeParam;
  Iseed seed = seed_for(201);
  // (m, n, k) straddling MC = 128 and KC = 256; one pair per trans combo.
  const idx sizes[][3] = {{130, 67, 257}, {127, 70, 256}, {129, 65, 255},
                          {128, 64, 300}, {131, 90, 129}, {97, 66, 260},
                          {140, 63, 258}, {126, 68, 254}, {133, 71, 256}};
  int s = 0;
  const T alpha = make_scalar<T>(real_t<T>(1.25), real_t<T>(-0.5));
  const T beta = make_scalar<T>(real_t<T>(-0.75), real_t<T>(0.25));
  for (Trans ta : kAllTrans) {
    for (Trans tb : kAllTrans) {
      const idx m = sizes[s][0];
      const idx n = sizes[s][1];
      const idx k = sizes[s][2];
      ++s;
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

TYPED_TEST(ParallelBlas3Test, GemmWideProblemStraddlesNcEdge) {
  using T = TypeParam;
  Iseed seed = seed_for(202);
  const idx m = 33;
  const idx n = 513;  // one column past NC = 512
  const idx k = 70;
  const Matrix<T> a = random_matrix<T>(m, k, seed);
  const Matrix<T> b = random_matrix<T>(k, n, seed);
  Matrix<T> c = random_matrix<T>(m, n, seed);
  Matrix<T> cref = c;
  blas::gemm(Trans::NoTrans, Trans::NoTrans, m, n, k, T(2), a.data(), a.ld(),
             b.data(), b.ld(), T(-1), c.data(), c.ld());
  blas::gemm_naive(Trans::NoTrans, Trans::NoTrans, m, n, k, T(2), a.data(),
                   a.ld(), b.data(), b.ld(), T(-1), cref.data(), cref.ld());
  EXPECT_LE(max_diff(c, cref), tol<T>() * real_t<T>(k));
}

TYPED_TEST(ParallelBlas3Test, BlockedSyrkMatchesDenseProduct) {
  // k = 140 deep on both sides of MC = 128: n = 300 tiles C into MC-wide
  // block columns (diagonal blocks on the reference kernel, the rest on
  // the threaded gemm), n = 10 stays on the reference kernel.
  Iseed seed = seed_for(203);
  for (const idx n : {idx(10), idx(300)}) {
    check_rank_update<TypeParam>(false, false, n, 140, seed);
  }
}

TYPED_TEST(ParallelBlas3Test, BlockedHerkMatchesDenseProduct) {
  Iseed seed = seed_for(204);
  for (const idx n : {idx(10), idx(300)}) {
    check_rank_update<TypeParam>(true, false, n, 140, seed);
  }
}

TYPED_TEST(ParallelBlas3Test, BlockedSymmMatchesDenseProduct) {
  using T = TypeParam;
  Iseed seed = seed_for(205);
  const T alpha = make_scalar<T>(real_t<T>(1.5), real_t<T>(0.5));
  const T beta = make_scalar<T>(real_t<T>(0.5));
  for (Side side : {Side::Left, Side::Right}) {
    const idx m = side == Side::Left ? 260 : 90;
    const idx n = side == Side::Left ? 90 : 260;
    const idx an = side == Side::Left ? m : n;
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      const Matrix<T> s = random_symmetric<T>(an, seed);
      Matrix<T> a = s;
      poison_other_triangle(a, uplo);
      const Matrix<T> b = random_matrix<T>(m, n, seed);
      Matrix<T> c = random_matrix<T>(m, n, seed);
      Matrix<T> cref = c;
      blas::symm(side, uplo, m, n, alpha, a.data(), a.ld(), b.data(), b.ld(),
                 beta, c.data(), c.ld());
      if (side == Side::Left) {
        blas::gemm_naive(Trans::NoTrans, Trans::NoTrans, m, n, m, alpha,
                         s.data(), s.ld(), b.data(), b.ld(), beta,
                         cref.data(), cref.ld());
      } else {
        blas::gemm_naive(Trans::NoTrans, Trans::NoTrans, m, n, n, alpha,
                         b.data(), b.ld(), s.data(), s.ld(), beta,
                         cref.data(), cref.ld());
      }
      EXPECT_LE(max_diff(c, cref), tol<T>() * real_t<T>(an));
    }
  }
}

TYPED_TEST(ParallelBlas3Test, BlockedHemmMatchesDenseProduct) {
  using T = TypeParam;
  Iseed seed = seed_for(206);
  const T alpha = make_scalar<T>(real_t<T>(-0.5), real_t<T>(1.0));
  const T beta = make_scalar<T>(real_t<T>(1.25));
  for (Side side : {Side::Left, Side::Right}) {
    const idx m = side == Side::Left ? 260 : 90;
    const idx n = side == Side::Left ? 90 : 260;
    const idx an = side == Side::Left ? m : n;
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      const Matrix<T> s = random_hermitian<T>(an, seed);
      Matrix<T> a = s;
      poison_other_triangle(a, uplo);
      const Matrix<T> b = random_matrix<T>(m, n, seed);
      Matrix<T> c = random_matrix<T>(m, n, seed);
      Matrix<T> cref = c;
      blas::hemm(side, uplo, m, n, alpha, a.data(), a.ld(), b.data(), b.ld(),
                 beta, c.data(), c.ld());
      if (side == Side::Left) {
        blas::gemm_naive(Trans::NoTrans, Trans::NoTrans, m, n, m, alpha,
                         s.data(), s.ld(), b.data(), b.ld(), beta,
                         cref.data(), cref.ld());
      } else {
        blas::gemm_naive(Trans::NoTrans, Trans::NoTrans, m, n, n, alpha,
                         b.data(), b.ld(), s.data(), s.ld(), beta,
                         cref.data(), cref.ld());
      }
      EXPECT_LE(max_diff(c, cref), tol<T>() * real_t<T>(an));
    }
  }
}

TYPED_TEST(ParallelBlas3Test, BlockedTrmmMatchesDenseExpansion) {
  using T = TypeParam;
  Iseed seed = seed_for(207);
  const idx m = 170;  // both sides take the blocked path (> MC = 128)
  const idx n = 150;
  const T alpha = make_scalar<T>(real_t<T>(0.5), real_t<T>(-1.0));
  for (Side side : {Side::Left, Side::Right}) {
    const idx an = side == Side::Left ? m : n;
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      for (Trans trans : kAllTrans) {
        for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
          Matrix<T> a = random_matrix<T>(an, an, seed);
          const Matrix<T> d = dense_triangle(a, uplo, diag);
          Matrix<T> b = random_matrix<T>(m, n, seed);
          Matrix<T> bref(m, n);
          if (side == Side::Left) {
            blas::gemm_naive(trans, Trans::NoTrans, m, n, m, alpha, d.data(),
                             d.ld(), b.data(), b.ld(), T(0), bref.data(),
                             bref.ld());
          } else {
            blas::gemm_naive(Trans::NoTrans, trans, m, n, n, alpha, b.data(),
                             b.ld(), d.data(), d.ld(), T(0), bref.data(),
                             bref.ld());
          }
          blas::trmm(side, uplo, trans, diag, m, n, alpha, a.data(), a.ld(),
                     b.data(), b.ld());
          EXPECT_LE(max_diff(b, bref), tol<T>() * real_t<T>(an))
              << static_cast<char>(side) << static_cast<char>(uplo)
              << static_cast<char>(trans) << static_cast<char>(diag);
        }
      }
    }
  }
}

TYPED_TEST(ParallelBlas3Test, BlockedTrsmInvertsTrmm) {
  using T = TypeParam;
  using R = real_t<T>;
  Iseed seed = seed_for(208);
  const idx m = 170;
  const idx n = 150;
  for (Side side : {Side::Left, Side::Right}) {
    const idx an = side == Side::Left ? m : n;
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      for (Trans trans : kAllTrans) {
        for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
          // Small off-diagonals keep the triangle well conditioned for both
          // the stored and the implied-unit diagonal.
          Matrix<T> a = random_matrix<T>(an, an, seed);
          for (idx j = 0; j < an; ++j) {
            for (idx i = 0; i < an; ++i) {
              a(i, j) = a(i, j) / T(R(an));
            }
            a(j, j) += T(1);
          }
          const Matrix<T> x0 = random_matrix<T>(m, n, seed);
          Matrix<T> b = x0;
          blas::trmm(side, uplo, trans, diag, m, n, T(1), a.data(), a.ld(),
                     b.data(), b.ld());
          blas::trsm(side, uplo, trans, diag, m, n, T(1), a.data(), a.ld(),
                     b.data(), b.ld());
          EXPECT_LE(max_diff(b, x0), tol<T>() * R(an))
              << static_cast<char>(side) << static_cast<char>(uplo)
              << static_cast<char>(trans) << static_cast<char>(diag);
        }
      }
    }
  }
}

/// Fixture that restores the environment-default worker count on exit.
class ThreadInvarianceTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(0); }
};

template <Scalar T>
void expect_bitwise_equal(const Matrix<T>& a, const Matrix<T>& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      EXPECT_EQ(a(i, j), b(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

/// Run op under 1 worker and under 4 workers; the results must match bit
/// for bit (chunks own disjoint output, reduction order is per-chunk).
template <class Op>
void check_thread_invariant(Op&& op) {
  set_num_threads(1);
  auto serial = op();
  set_num_threads(4);
  auto threaded = op();
  set_num_threads(0);
  expect_bitwise_equal(serial, threaded);
}

TEST_F(ThreadInvarianceTest, GemmBitIdenticalAcrossWorkerCounts) {
  Iseed seed = seed_for(209);
  const idx m = 211;
  const idx n = 180;
  const idx k = 260;
  const auto a = random_matrix<double>(m, k, seed);
  const auto b = random_matrix<double>(k, n, seed);
  const auto c0 = random_matrix<double>(m, n, seed);
  check_thread_invariant([&] {
    Matrix<double> c = c0;
    blas::gemm(Trans::NoTrans, Trans::NoTrans, m, n, k, 1.5, a.data(), a.ld(),
               b.data(), b.ld(), -0.5, c.data(), c.ld());
    return c;
  });
}

TEST_F(ThreadInvarianceTest, ComplexGemmBitIdenticalAcrossWorkerCounts) {
  using Z = std::complex<double>;
  Iseed seed = seed_for(210);
  const idx m = 150;
  const idx n = 140;
  const idx k = 130;
  const auto a = random_matrix<Z>(k, m, seed);
  const auto b = random_matrix<Z>(n, k, seed);
  const auto c0 = random_matrix<Z>(m, n, seed);
  check_thread_invariant([&] {
    Matrix<Z> c = c0;
    blas::gemm(Trans::ConjTrans, Trans::Trans, m, n, k, Z(0.5, 1.0), a.data(),
               a.ld(), b.data(), b.ld(), Z(1.0, -0.5), c.data(), c.ld());
    return c;
  });
}

TEST_F(ThreadInvarianceTest, BlockedLevel3BitIdenticalAcrossWorkerCounts) {
  Iseed seed = seed_for(211);
  const idx n = 300;
  const auto a = random_matrix<double>(n, 100, seed);
  const auto s = random_symmetric<double>(260, seed);
  const auto bs = random_matrix<double>(260, 64, seed);
  auto tri = random_matrix<double>(300, 300, seed);
  for (idx i = 0; i < 300; ++i) {
    tri(i, i) += 300.0;
  }
  const auto rhs = random_matrix<double>(300, 80, seed);
  check_thread_invariant([&] {
    Matrix<double> c(n, n);
    c.fill(0.0);
    blas::syrk(Uplo::Lower, Trans::NoTrans, n, 100, 1.0, a.data(), a.ld(),
               0.0, c.data(), c.ld());
    return c;
  });
  check_thread_invariant([&] {
    Matrix<double> c(260, 64);
    c.fill(0.0);
    blas::symm(Side::Left, Uplo::Upper, 260, 64, 1.0, s.data(), s.ld(),
               bs.data(), bs.ld(), 0.0, c.data(), c.ld());
    return c;
  });
  check_thread_invariant([&] {
    Matrix<double> x = rhs;
    blas::trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, 300,
               80, 1.0, tri.data(), tri.ld(), x.data(), x.ld());
    return x;
  });
}

TEST_F(ThreadInvarianceTest, FactorizationsBitIdenticalAcrossWorkerCounts) {
  Iseed seed = seed_for(212);
  const idx n = 260;
  const auto a0 = random_matrix<double>(n, n, seed);
  const auto spd = random_spd<double>(n, seed);
  const auto qa = random_matrix<double>(n, 120, seed);

  set_num_threads(1);
  Matrix<double> lu1 = a0;
  std::vector<idx> piv1(static_cast<std::size_t>(n));
  ASSERT_EQ(lapack::getrf(n, n, lu1.data(), lu1.ld(), piv1.data()), 0);
  Matrix<double> ch1 = spd;
  ASSERT_EQ(lapack::potrf(Uplo::Lower, n, ch1.data(), ch1.ld()), 0);
  Matrix<double> qr1 = qa;
  std::vector<double> tau1(120);
  lapack::geqrf(n, 120, qr1.data(), qr1.ld(), tau1.data());

  set_num_threads(4);
  Matrix<double> lu4 = a0;
  std::vector<idx> piv4(static_cast<std::size_t>(n));
  ASSERT_EQ(lapack::getrf(n, n, lu4.data(), lu4.ld(), piv4.data()), 0);
  Matrix<double> ch4 = spd;
  ASSERT_EQ(lapack::potrf(Uplo::Lower, n, ch4.data(), ch4.ld()), 0);
  Matrix<double> qr4 = qa;
  std::vector<double> tau4(120);
  lapack::geqrf(n, 120, qr4.data(), qr4.ld(), tau4.data());

  expect_bitwise_equal(lu1, lu4);
  EXPECT_EQ(piv1, piv4);
  expect_bitwise_equal(ch1, ch4);
  expect_bitwise_equal(qr1, qr4);
  EXPECT_EQ(tau1, tau4);
}

TEST_F(ThreadInvarianceTest, NumThreadsOverrideRoundTrips) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(0);
  EXPECT_GE(num_threads(), 1);
}

}  // namespace
}  // namespace la::test
