// tests/test_gemm_kernels.cpp
//
// SIMD micro-kernel coverage for the packed gemm: every remainder shape the
// masked-tail kernels can see (m in 1..2*MR, n in 1..2*NR with ragged k),
// multi-panel blocking with shrunken MC/KC/NC, transposed packs bitwise
// equal to packs of explicit op() copies, the forced-scalar ablation
// path, and the beta == 0 overwrite contract (NaN in C must never leak into
// the result) across gemm/syrk/herk/gemv.
//
// The packed path is normally skipped for tiny products (the ilaenv
// Crossover rule); the fixture forces Crossover = 1 so these shapes really
// run through pack_a/pack_b and the micro-kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "test_utils.hpp"

namespace la::test {
namespace {

using blas::detail::GemmBlocking;

template <Scalar T>
class GemmKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_nx_ = set_env_override(EnvSpec::Crossover, EnvRoutine::gemm, 1);
  }
  void TearDown() override {
    set_env_override(EnvSpec::Crossover, EnvRoutine::gemm, prev_nx_);
    blas::set_force_scalar_kernel(false);
  }
  idx prev_nx_ = 0;
};

TYPED_TEST_SUITE(GemmKernelTest, AllTypes);

template <Scalar T>
void expect_gemm_matches_naive(Trans ta, Trans tb, idx m, idx n, idx k,
                               T alpha, T beta, int salt) {
  using R = real_t<T>;
  Iseed seed = seed_for(salt);
  const idx am = ta == Trans::NoTrans ? m : k;
  const idx ak = ta == Trans::NoTrans ? k : m;
  const idx bk = tb == Trans::NoTrans ? k : n;
  const idx bn = tb == Trans::NoTrans ? n : k;
  Matrix<T> a = random_matrix<T>(am, ak, seed);
  Matrix<T> b = random_matrix<T>(bk, bn, seed);
  Matrix<T> c0 = random_matrix<T>(m, n, seed);
  Matrix<T> c1 = c0;
  Matrix<T> c2 = c0;
  blas::gemm(ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), beta,
             c1.data(), c1.ld());
  blas::gemm_naive(ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
                   beta, c2.data(), c2.ld());
  const R bound = tol<T>() * R(k + 2);
  EXPECT_LE(max_diff(c1, c2), bound)
      << "ta=" << int(ta) << " tb=" << int(tb) << " m=" << m << " n=" << n
      << " k=" << k;
}

// Every partial-tile shape the masked remainder kernels can be handed:
// m in 1..2*MR crossed with n in 1..2*NR, k ragged. With Crossover = 1
// these all take the packed path, so the final strip of every pack is a
// true-width (unpadded) tail and the tail kernels' load_partial/
// store_partial masks are exercised lane by lane.
TYPED_TEST(GemmKernelTest, RemainderSweep) {
  using T = TypeParam;
  constexpr idx MR = GemmBlocking<T>::MR;
  constexpr idx NR = GemmBlocking<T>::NR;
  int salt = 100;
  for (idx m = 1; m <= 2 * MR; ++m) {
    for (idx n = 1; n <= 2 * NR; ++n) {
      for (idx k : {idx(1), idx(3), idx(17)}) {
        expect_gemm_matches_naive<T>(Trans::NoTrans, Trans::NoTrans, m, n, k,
                                     T(real_t<T>(1.25)), T(real_t<T>(-0.5)),
                                     ++salt);
      }
    }
  }
}

// The same tails via the transposed/conjugated pack routes (fixed odd
// sizes — the sweep above already covers every mask).
TYPED_TEST(GemmKernelTest, TransposedTails) {
  using T = TypeParam;
  constexpr idx MR = GemmBlocking<T>::MR;
  constexpr idx NR = GemmBlocking<T>::NR;
  const idx m = 2 * MR - 1;
  const idx n = 2 * NR - 1;
  int salt = 500;
  for (Trans ta : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
    for (Trans tb : {Trans::NoTrans, Trans::Trans, Trans::ConjTrans}) {
      expect_gemm_matches_naive<T>(ta, tb, m, n, 17, T(real_t<T>(0.75)),
                                   T(real_t<T>(1)), ++salt);
    }
  }
}

template <Scalar T>
Matrix<T> op_copy(Trans t, const Matrix<T>& a) {
  Matrix<T> o(a.cols(), a.rows());
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      o(j, i) = t == Trans::ConjTrans ? conj_if(a(i, j)) : a(i, j);
    }
  }
  return o;
}

template <Scalar T>
void expect_same_bits(const Matrix<T>& a, const Matrix<T>& b, Trans t,
                      char side, idx m, idx n, idx k) {
  idx diff = 0;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      diff += !(a(i, j) == b(i, j));
    }
  }
  EXPECT_EQ(diff, 0) << "op(" << side << ") trans=" << int(t) << " m=" << m
                     << " n=" << n << " k=" << k;
}

// A transposed or conjugated operand packs into exactly the buffer its
// explicit op() copy packs into as NoTrans, so the two products must agree
// bit for bit: the pack routines only move data. Every remainder shape,
// then a shrunken MC/KC/NC so the packs start at interior offsets.
TYPED_TEST(GemmKernelTest, TransposedOperandsPackLikeExplicitCopies) {
  using T = TypeParam;
  constexpr idx MR = GemmBlocking<T>::MR;
  constexpr idx NR = GemmBlocking<T>::NR;
  const T alpha = T(real_t<T>(1.25));
  const T beta = T(real_t<T>(-0.5));
  int salt = 1700;
  const auto check = [&](idx m, idx n, idx k) {
    Iseed seed = seed_for(++salt);
    for (const Trans t : {Trans::Trans, Trans::ConjTrans}) {
      const Matrix<T> a = random_matrix<T>(k, m, seed);  // op(a) is m x k
      const Matrix<T> b = random_matrix<T>(k, n, seed);
      const Matrix<T> c0 = random_matrix<T>(m, n, seed);
      const Matrix<T> opa = op_copy(t, a);
      Matrix<T> c1 = c0, c2 = c0;
      blas::gemm(t, Trans::NoTrans, m, n, k, alpha, a.data(), a.ld(),
                 b.data(), b.ld(), beta, c1.data(), c1.ld());
      blas::gemm(Trans::NoTrans, Trans::NoTrans, m, n, k, alpha, opa.data(),
                 opa.ld(), b.data(), b.ld(), beta, c2.data(), c2.ld());
      expect_same_bits(c1, c2, t, 'A', m, n, k);

      const Matrix<T> a2 = random_matrix<T>(m, k, seed);
      const Matrix<T> bt = random_matrix<T>(n, k, seed);  // op(bt) is k x n
      const Matrix<T> opb = op_copy(t, bt);
      c1 = c0;
      c2 = c0;
      blas::gemm(Trans::NoTrans, t, m, n, k, alpha, a2.data(), a2.ld(),
                 bt.data(), bt.ld(), beta, c1.data(), c1.ld());
      blas::gemm(Trans::NoTrans, Trans::NoTrans, m, n, k, alpha, a2.data(),
                 a2.ld(), opb.data(), opb.ld(), beta, c2.data(), c2.ld());
      expect_same_bits(c1, c2, t, 'B', m, n, k);
    }
  };
  for (idx m = 1; m <= 2 * MR; ++m) {
    for (idx n = 1; n <= 2 * NR; ++n) {
      for (idx k : {idx(1), idx(3), idx(17)}) {
        check(m, n, k);
      }
    }
  }
  const idx prev_mc =
      set_env_override(EnvSpec::CacheBlockM, EnvRoutine::gemm, MR);
  const idx prev_kc =
      set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, 8);
  const idx prev_nc =
      set_env_override(EnvSpec::CacheBlockN, EnvRoutine::gemm, NR);
  check(37, 29, 41);
  set_env_override(EnvSpec::CacheBlockM, EnvRoutine::gemm, prev_mc);
  set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, prev_kc);
  set_env_override(EnvSpec::CacheBlockN, EnvRoutine::gemm, prev_nc);
}

// k > KC spans several packed k-panels (beta is applied on the first panel
// only, beta = 1 after); shrink MC/KC/NC so a modest problem walks the full
// three-level block loop nest, tails included.
TYPED_TEST(GemmKernelTest, MultiPanelBlocking) {
  using T = TypeParam;
  const idx prev_mc = set_env_override(EnvSpec::CacheBlockM, EnvRoutine::gemm,
                                       GemmBlocking<T>::MR);
  const idx prev_kc = set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, 8);
  const idx prev_nc = set_env_override(EnvSpec::CacheBlockN, EnvRoutine::gemm,
                                       GemmBlocking<T>::NR);
  int salt = 900;
  for (Trans ta : {Trans::NoTrans, Trans::ConjTrans}) {
    for (Trans tb : {Trans::NoTrans, Trans::ConjTrans}) {
      expect_gemm_matches_naive<T>(ta, tb, 37, 29, 41, T(real_t<T>(-1)),
                                   T(real_t<T>(0.5)), ++salt);
    }
  }
  set_env_override(EnvSpec::CacheBlockM, EnvRoutine::gemm, prev_mc);
  set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, prev_kc);
  set_env_override(EnvSpec::CacheBlockN, EnvRoutine::gemm, prev_nc);
}

// The runtime ablation switch must route to the shape-agnostic scalar
// kernel and still agree with the naive triple loop.
TYPED_TEST(GemmKernelTest, ForcedScalarKernelMatches) {
  using T = TypeParam;
  blas::set_force_scalar_kernel(true);
  expect_gemm_matches_naive<T>(Trans::NoTrans, Trans::NoTrans, 23, 19, 31,
                               T(real_t<T>(1)), T(real_t<T>(0)), 1300);
  blas::set_force_scalar_kernel(false);
}

// beta == 0 must overwrite C without reading it: NaN (or Inf) garbage in
// the output buffer must never reach the result. This pins the kernel
// epilogue's store-without-load path and the scale_c/naive fallbacks alike.
TYPED_TEST(GemmKernelTest, BetaZeroIgnoresNanInC) {
  using T = TypeParam;
  using R = real_t<T>;
  const R qnan = std::numeric_limits<R>::quiet_NaN();
  const idx m = 2 * GemmBlocking<T>::MR - 1;
  const idx n = 2 * GemmBlocking<T>::NR - 1;
  const idx k = 9;
  Iseed seed = seed_for(7);
  Matrix<T> a = random_matrix<T>(m, k, seed);
  Matrix<T> b = random_matrix<T>(k, n, seed);
  Matrix<T> want(m, n);
  blas::gemm_naive(Trans::NoTrans, Trans::NoTrans, m, n, k, T(1), a.data(),
                   a.ld(), b.data(), b.ld(), T(0), want.data(), want.ld());
  for (bool scalar_kernel : {false, true}) {
    blas::set_force_scalar_kernel(scalar_kernel);
    Matrix<T> c(m, n);
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < m; ++i) {
        c(i, j) = T(qnan);
      }
    }
    blas::gemm(Trans::NoTrans, Trans::NoTrans, m, n, k, T(1), a.data(),
               a.ld(), b.data(), b.ld(), T(0), c.data(), c.ld());
    EXPECT_LE(max_diff(c, want), tol<T>() * R(k + 2))
        << "scalar_kernel=" << scalar_kernel;
  }
  blas::set_force_scalar_kernel(false);
}

// Same contract for the rank-k updates and gemv: every beta == 0 path in
// the Level-2/Level-3 layer is an overwrite, never a scale of what was
// there.
TYPED_TEST(GemmKernelTest, BetaZeroIgnoresNanSyrkHerkGemv) {
  using T = TypeParam;
  using R = real_t<T>;
  const R qnan = std::numeric_limits<R>::quiet_NaN();
  const idx n = 13;
  const idx k = 7;
  Iseed seed = seed_for(11);
  Matrix<T> a = random_matrix<T>(n, k, seed);

  auto fill_nan = [&](Matrix<T>& c) {
    for (idx j = 0; j < c.cols(); ++j) {
      for (idx i = 0; i < c.rows(); ++i) {
        c(i, j) = T(qnan);
      }
    }
  };
  auto finite_triangle = [&](const Matrix<T>& c, Uplo uplo) {
    for (idx j = 0; j < n; ++j) {
      const idx lo = uplo == Uplo::Upper ? idx(0) : j;
      const idx hi = uplo == Uplo::Upper ? j : n - 1;
      for (idx i = lo; i <= hi; ++i) {
        if (!std::isfinite(real_part(c(i, j))) ||
            !std::isfinite(imag_part(c(i, j)))) {
          return false;
        }
      }
    }
    return true;
  };

  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    Matrix<T> c(n, n);
    fill_nan(c);
    blas::syrk(uplo, Trans::NoTrans, n, k, T(1), a.data(), a.ld(), T(0),
               c.data(), c.ld());
    EXPECT_TRUE(finite_triangle(c, uplo)) << "syrk uplo=" << int(uplo);

    fill_nan(c);
    blas::herk(uplo, Trans::NoTrans, n, k, R(1), a.data(), a.ld(), R(0),
               c.data(), c.ld());
    EXPECT_TRUE(finite_triangle(c, uplo)) << "herk uplo=" << int(uplo);
  }

  Matrix<T> x = random_matrix<T>(k, 1, seed);
  Matrix<T> y(n, 1);
  for (idx i = 0; i < n; ++i) {
    y(i, 0) = T(qnan);
  }
  Matrix<T> ag = random_matrix<T>(n, k, seed);
  blas::gemv(Trans::NoTrans, n, k, T(1), ag.data(), ag.ld(), x.data(), 1,
             T(0), y.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_TRUE(std::isfinite(real_part(y(i, 0))) &&
                std::isfinite(imag_part(y(i, 0))))
        << "gemv y[" << i << "]";
  }
}

}  // namespace
}  // namespace la::test
