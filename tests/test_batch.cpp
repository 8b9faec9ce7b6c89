// Batched driver subsystem (la::batch): batched GEMM and the batched
// solve/factor drivers, their F90 span front-end, and the scheduling
// contract — every entry computed by one worker with serial arithmetic, so
// results are bit-identical across worker counts and exactly equal to a
// sequential loop of the single-problem routines.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <vector>

#include "test_utils.hpp"

namespace la::test {
namespace {

template <Scalar T>
batch::MatrixBatch<T> make_batch(std::vector<Matrix<T>>& ms,
                                 std::vector<T*>& ptrs,
                                 std::vector<idx>& dims) {
  return f90::detail::make_batch<T>(std::span<Matrix<T>>(ms), ptrs, dims);
}

template <class F>
void with_threads(idx nt, F&& f) {
  const idx prev = set_num_threads(nt);
  f();
  set_num_threads(prev);
}

template <Scalar T>
[[nodiscard]] T nan_value() {
  const auto q = std::numeric_limits<real_t<T>>::quiet_NaN();
  if constexpr (is_complex_v<T>) {
    return T(q, q);
  } else {
    return q;
  }
}

/// Exact (bitwise-value) equality across a pair of matrix vectors.
template <Scalar T>
void expect_identical(const std::vector<Matrix<T>>& a,
                      const std::vector<Matrix<T>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(max_diff(a[i], b[i]), real_t<T>(0)) << "entry " << i;
  }
}

template <class T>
class BatchTest : public ::testing::Test {};
TYPED_TEST_SUITE(BatchTest, AllTypes);

// ---------------------------------------------------------------------------
// gesv_batch

template <Scalar T>
void build_gesv_problems(idx count, idx n, idx nrhs, int salt,
                         std::vector<Matrix<T>>& as,
                         std::vector<Matrix<T>>& bs) {
  Iseed seed = seed_for(salt);
  for (idx i = 0; i < count; ++i) {
    Matrix<T> a = random_matrix<T>(n, n, seed);
    for (idx d = 0; d < n; ++d) {
      a(d, d) += T(real_t<T>(n));  // comfortably nonsingular
    }
    as.push_back(std::move(a));
    bs.push_back(random_matrix<T>(n, nrhs, seed));
  }
}

TYPED_TEST(BatchTest, GesvMatchesSequentialLoopExactly) {
  using T = TypeParam;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(24, 8, 3, 101, as, bs);
  std::vector<Matrix<T>> ra = as, rb = bs;  // sequential reference
  std::vector<idx> piv(8);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(lapack::gesv(idx{8}, idx{3}, ra[i].data(), ra[i].ld(),
                           piv.data(), rb[i].data(), rb[i].ld()),
              0);
  }
  std::vector<T*> pa, pb;
  std::vector<idx> da, db;
  std::vector<idx> infos(as.size(), idx{-1});
  const idx agg = batch::gesv_batch(make_batch(as, pa, da),
                                    make_batch(bs, pb, db), infos.data());
  EXPECT_EQ(agg, 0);
  for (idx v : infos) {
    EXPECT_EQ(v, 0);
  }
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

TYPED_TEST(BatchTest, GesvBitIdenticalAcrossWorkerCounts) {
  using T = TypeParam;
  std::vector<Matrix<T>> as0, bs0;
  build_gesv_problems<T>(32, 9, 2, 202, as0, bs0);
  std::vector<Matrix<T>> base_a, base_b;
  with_threads(1, [&] {
    base_a = as0;
    base_b = bs0;
    std::vector<T*> pa, pb;
    std::vector<idx> da, db;
    ASSERT_EQ(batch::gesv_batch(make_batch(base_a, pa, da),
                                make_batch(base_b, pb, db)),
              0);
  });
  for (idx nt : {idx{4}, idx{8}}) {
    with_threads(nt, [&] {
      std::vector<Matrix<T>> a = as0, b = bs0;
      std::vector<T*> pa, pb;
      std::vector<idx> da, db;
      ASSERT_EQ(
          batch::gesv_batch(make_batch(a, pa, da), make_batch(b, pb, db)), 0);
      expect_identical(base_a, a);
      expect_identical(base_b, b);
    });
  }
}

TYPED_TEST(BatchTest, RaggedGesvMatchesSequentialLoop) {
  using T = TypeParam;
  Iseed seed = seed_for(303);
  std::vector<Matrix<T>> as, bs;
  for (idx i = 0; i < 20; ++i) {
    const idx n = (i * 5) % 13 + 1;
    const idx nrhs = i % 3 + 1;
    Matrix<T> a = random_matrix<T>(n, n, seed);
    for (idx d = 0; d < n; ++d) {
      a(d, d) += T(real_t<T>(n));
    }
    as.push_back(std::move(a));
    bs.push_back(random_matrix<T>(n, nrhs, seed));
  }
  std::vector<Matrix<T>> ra = as, rb = bs;
  std::vector<idx> piv(13);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(lapack::gesv(ra[i].rows(), rb[i].cols(), ra[i].data(),
                           ra[i].ld(), piv.data(), rb[i].data(), rb[i].ld()),
              0);
  }
  std::vector<T*> pa, pb;
  std::vector<idx> da, db;
  EXPECT_EQ(batch::gesv_batch(make_batch(as, pa, da), make_batch(bs, pb, db)),
            0);
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

TYPED_TEST(BatchTest, GesvReportsBadEntryShapes) {
  using T = TypeParam;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(4, 5, 1, 404, as, bs);
  as[2] = Matrix<T>(5, 4);  // not square -> entry INFO -1
  std::vector<T*> pa, pb;
  std::vector<idx> da, db;
  std::vector<idx> infos(4, idx{0});
  const idx agg = batch::gesv_batch(make_batch(as, pa, da),
                                    make_batch(bs, pb, db), infos.data());
  EXPECT_EQ(agg, 3);  // 1-based index of the first failing entry
  EXPECT_EQ(infos[2], -1);
  EXPECT_EQ(infos[0], 0);
  EXPECT_EQ(infos[3], 0);
}

// ---------------------------------------------------------------------------
// potrf_batch / posv_batch

TYPED_TEST(BatchTest, PotrfAndPosvMatchSequentialLoopExactly) {
  using T = TypeParam;
  Iseed seed = seed_for(505);
  std::vector<Matrix<T>> as, bs;
  for (idx i = 0; i < 16; ++i) {
    as.push_back(random_spd<T>(10, seed));
    bs.push_back(random_matrix<T>(10, 2, seed));
  }
  {
    std::vector<Matrix<T>> ra = as;
    for (auto& m : ra) {
      ASSERT_EQ(lapack::potrf(Uplo::Lower, m.rows(), m.data(), m.ld()), 0);
    }
    std::vector<Matrix<T>> ba = as;
    std::vector<T*> pa;
    std::vector<idx> da;
    EXPECT_EQ(batch::potrf_batch(Uplo::Lower, make_batch(ba, pa, da)), 0);
    expect_identical(ra, ba);
  }
  {
    std::vector<Matrix<T>> ra = as, rb = bs;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(lapack::posv(Uplo::Upper, ra[i].rows(), rb[i].cols(),
                             ra[i].data(), ra[i].ld(), rb[i].data(),
                             rb[i].ld()),
                0);
    }
    std::vector<T*> pa, pb;
    std::vector<idx> da, db;
    EXPECT_EQ(batch::posv_batch(Uplo::Upper, make_batch(as, pa, da),
                                make_batch(bs, pb, db)),
              0);
    expect_identical(ra, as);
    expect_identical(rb, bs);
  }
}

TYPED_TEST(BatchTest, PotrfReportsIndefiniteEntry) {
  using T = TypeParam;
  Iseed seed = seed_for(606);
  std::vector<Matrix<T>> as;
  for (idx i = 0; i < 6; ++i) {
    as.push_back(random_spd<T>(6, seed));
  }
  for (idx d = 0; d < 6; ++d) {
    as[4](d, d) = T(-1);  // entry 4 is negative definite
  }
  std::vector<T*> pa;
  std::vector<idx> da;
  std::vector<idx> infos(6, idx{0});
  const idx agg =
      batch::potrf_batch(Uplo::Upper, make_batch(as, pa, da), infos.data());
  EXPECT_EQ(agg, 5);
  EXPECT_GT(infos[4], 0);
  EXPECT_EQ(infos[0], 0);
  EXPECT_EQ(infos[5], 0);
}

// ---------------------------------------------------------------------------
// geqrf_batch / gels_batch

TYPED_TEST(BatchTest, GeqrfMatchesSequentialGeqr2Exactly) {
  using T = TypeParam;
  const idx m = 10, n = 6, k = std::min(m, n), count = 18;
  Iseed seed = seed_for(707);
  std::vector<Matrix<T>> as;
  for (idx i = 0; i < count; ++i) {
    as.push_back(random_matrix<T>(m, n, seed));
  }
  std::vector<Matrix<T>> ra = as;
  std::vector<T> rtau(static_cast<std::size_t>(count) * k);
  std::vector<T> work(n);
  for (idx i = 0; i < count; ++i) {
    lapack::geqr2(m, n, ra[static_cast<std::size_t>(i)].data(),
                  ra[static_cast<std::size_t>(i)].ld(),
                  rtau.data() + static_cast<std::size_t>(i) * k, work.data());
  }
  std::vector<T> btau(static_cast<std::size_t>(count) * k);
  auto taub = batch::MatrixBatch<T>::strided(btau.data(), k, 1, k, k, count);
  std::vector<T*> pa;
  std::vector<idx> da;
  std::vector<idx> infos(count, idx{-1});
  EXPECT_EQ(batch::geqrf_batch(make_batch(as, pa, da), taub, infos.data()),
            0);
  for (idx v : infos) {
    EXPECT_EQ(v, 0);
  }
  expect_identical(ra, as);
  for (std::size_t i = 0; i < rtau.size(); ++i) {
    EXPECT_EQ(btau[i], rtau[i]) << "tau element " << i;
  }
}

TYPED_TEST(BatchTest, GelsMatchesSequentialLoop) {
  using T = TypeParam;
  const idx m = 9, n = 5, nrhs = 2, count = 14;
  Iseed seed = seed_for(808);
  std::vector<Matrix<T>> as, bs;
  for (idx i = 0; i < count; ++i) {
    as.push_back(random_matrix<T>(m, n, seed));
    bs.push_back(random_matrix<T>(m, nrhs, seed));
  }
  std::vector<Matrix<T>> ra = as, rb = bs;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(lapack::gels(Trans::NoTrans, m, n, nrhs, ra[i].data(),
                           ra[i].ld(), rb[i].data(), rb[i].ld()),
              0);
  }
  std::vector<T*> pa, pb;
  std::vector<idx> da, db;
  EXPECT_EQ(batch::gels_batch(Trans::NoTrans, make_batch(as, pa, da),
                              make_batch(bs, pb, db)),
            0);
  // Entry i is the library gels call: exact agreement.
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

TYPED_TEST(BatchTest, GelsBitIdenticalAcrossWorkerCounts) {
  using T = TypeParam;
  const idx m = 8, n = 4, nrhs = 3, count = 16;
  Iseed seed = seed_for(909);
  std::vector<Matrix<T>> as0, bs0;
  for (idx i = 0; i < count; ++i) {
    as0.push_back(random_matrix<T>(m, n, seed));
    bs0.push_back(random_matrix<T>(m, nrhs, seed));
  }
  std::vector<Matrix<T>> base_a, base_b;
  with_threads(1, [&] {
    base_a = as0;
    base_b = bs0;
    std::vector<T*> pa, pb;
    std::vector<idx> da, db;
    ASSERT_EQ(batch::gels_batch(Trans::NoTrans, make_batch(base_a, pa, da),
                                make_batch(base_b, pb, db)),
              0);
  });
  for (idx nt : {idx{4}, idx{8}}) {
    with_threads(nt, [&] {
      std::vector<Matrix<T>> a = as0, b = bs0;
      std::vector<T*> pa, pb;
      std::vector<idx> da, db;
      ASSERT_EQ(batch::gels_batch(Trans::NoTrans, make_batch(a, pa, da),
                                  make_batch(b, pb, db)),
                0);
      expect_identical(base_a, a);
      expect_identical(base_b, b);
    });
  }
}

// Shapes with min(m, n) past geqrf's tile edge but max(m, n) below
// BatchGrain: the direct drivers run the tile DAG here while the entries
// still fan out across workers, so only a batch layer that calls the
// library drivers gets their bits.
constexpr std::array<std::array<idx, 2>, 2> kTileGapShapes{
    {{136, 129}, {207, 200}}};

TYPED_TEST(BatchTest, GeqrfMatchesDirectDriverPastTileEdge) {
  using T = TypeParam;
  Iseed seed = seed_for(717);
  std::vector<Matrix<T>> as, taus;
  for (const auto& [m, n] : kTileGapShapes) {
    as.push_back(random_matrix<T>(m, n, seed));
    taus.emplace_back(std::min(m, n), 1);
  }
  std::vector<Matrix<T>> ra = as, rtau = taus;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(lapack::geqrf(ra[i].rows(), ra[i].cols(), ra[i].data(),
                            ra[i].ld(), rtau[i].data()),
              0);
  }
  std::vector<T*> pa, pt;
  std::vector<idx> da, dt;
  std::vector<idx> infos(as.size(), idx{-1});
  EXPECT_EQ(batch::geqrf_batch(make_batch(as, pa, da),
                               make_batch(taus, pt, dt), infos.data()),
            0);
  for (idx v : infos) {
    EXPECT_EQ(v, 0);
  }
  expect_identical(ra, as);
  expect_identical(rtau, taus);
}

TYPED_TEST(BatchTest, GelsMatchesDirectDriverPastTileEdge) {
  using T = TypeParam;
  const idx nrhs = 3;
  Iseed seed = seed_for(818);
  std::vector<Matrix<T>> as, bs;
  for (const auto& [m, n] : kTileGapShapes) {
    as.push_back(random_matrix<T>(m, n, seed));
    bs.push_back(random_matrix<T>(m, nrhs, seed));
  }
  std::vector<Matrix<T>> ra = as, rb = bs;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(lapack::gels(Trans::NoTrans, ra[i].rows(), ra[i].cols(), nrhs,
                           ra[i].data(), ra[i].ld(), rb[i].data(),
                           rb[i].ld()),
              0);
  }
  std::vector<T*> pa, pb;
  std::vector<idx> da, db;
  EXPECT_EQ(batch::gels_batch(Trans::NoTrans, make_batch(as, pa, da),
                              make_batch(bs, pb, db)),
            0);
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

// ---------------------------------------------------------------------------
// gemm_batch

TYPED_TEST(BatchTest, GemmBatchTinyPathMatchesNaive) {
  using T = TypeParam;
  const idx m = 6, n = 7, k = 5, count = 32;
  Iseed seed = seed_for(111);
  std::vector<Matrix<T>> as, bs, cs, refs;
  for (idx i = 0; i < count; ++i) {
    as.push_back(random_matrix<T>(m, k, seed));
    bs.push_back(random_matrix<T>(k, n, seed));
    Matrix<T> c(m, n);
    // beta == 0 must overwrite: poison C with NaN and expect clean output.
    std::fill(c.data(), c.data() + c.size(), nan_value<T>());
    refs.emplace_back(m, n);  // zero-initialized reference output
    cs.push_back(std::move(c));
  }
  const T alpha = T(2);
  for (idx i = 0; i < count; ++i) {
    auto& r = refs[static_cast<std::size_t>(i)];
    blas::gemm_naive(Trans::NoTrans, Trans::NoTrans, m, n, k, alpha,
                     as[static_cast<std::size_t>(i)].data(),
                     as[static_cast<std::size_t>(i)].ld(),
                     bs[static_cast<std::size_t>(i)].data(),
                     bs[static_cast<std::size_t>(i)].ld(), T(0), r.data(),
                     r.ld());
  }
  std::vector<T*> pa, pb, pc;
  std::vector<idx> da, db, dc;
  batch::gemm_batch(Trans::NoTrans, Trans::NoTrans, alpha,
                    make_batch(as, pa, da), make_batch(bs, pb, db), T(0),
                    make_batch(cs, pc, dc));
  for (idx i = 0; i < count; ++i) {
    EXPECT_LT(max_diff(refs[static_cast<std::size_t>(i)],
                       cs[static_cast<std::size_t>(i)]),
              tol<T>(real_t<T>(10) * k))
        << "entry " << i;
  }
}

TYPED_TEST(BatchTest, GemmBatchTransposedAndAccumulating) {
  using T = TypeParam;
  const idx m = 5, n = 4, k = 6, count = 12;
  Iseed seed = seed_for(222);
  const Trans tb = conj_trans_for<T>();
  std::vector<Matrix<T>> as, bs, cs, refs;
  for (idx i = 0; i < count; ++i) {
    as.push_back(random_matrix<T>(m, k, seed));
    bs.push_back(random_matrix<T>(n, k, seed));  // op(B) = B^H is k x n
    Matrix<T> c = random_matrix<T>(m, n, seed);
    refs.push_back(c);
    cs.push_back(std::move(c));
  }
  const T alpha = T(1);
  const T beta = T(-1);
  for (idx i = 0; i < count; ++i) {
    auto& r = refs[static_cast<std::size_t>(i)];
    blas::gemm_naive(Trans::NoTrans, tb, m, n, k, alpha,
                     as[static_cast<std::size_t>(i)].data(),
                     as[static_cast<std::size_t>(i)].ld(),
                     bs[static_cast<std::size_t>(i)].data(),
                     bs[static_cast<std::size_t>(i)].ld(), beta, r.data(),
                     r.ld());
  }
  std::vector<T*> pa, pb, pc;
  std::vector<idx> da, db, dc;
  batch::gemm_batch(Trans::NoTrans, tb, alpha, make_batch(as, pa, da),
                    make_batch(bs, pb, db), beta, make_batch(cs, pc, dc));
  for (idx i = 0; i < count; ++i) {
    EXPECT_LT(max_diff(refs[static_cast<std::size_t>(i)],
                       cs[static_cast<std::size_t>(i)]),
              tol<T>(real_t<T>(10) * k))
        << "entry " << i;
  }
}

TYPED_TEST(BatchTest, GemmBatchStridedMatchesDescriptorForm) {
  using T = TypeParam;
  const idx m = 7, n = 6, k = 4, count = 16;
  Iseed seed = seed_for(333);
  const auto sz = [](idx r, idx c) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(c);
  };
  std::vector<T> apool(sz(m, k) * count), bpool(sz(k, n) * count),
      cpool(sz(m, n) * count), cpool2;
  larnv(Dist::Uniform11, seed, static_cast<idx>(apool.size()), apool.data());
  larnv(Dist::Uniform11, seed, static_cast<idx>(bpool.size()), bpool.data());
  larnv(Dist::Uniform11, seed, static_cast<idx>(cpool.size()), cpool.data());
  cpool2 = cpool;
  const T alpha = T(3);
  const T beta = T(1);
  batch::gemm_batch_strided(Trans::NoTrans, Trans::NoTrans, m, n, k, alpha,
                            apool.data(), m, static_cast<std::ptrdiff_t>(sz(m, k)),
                            bpool.data(), k, static_cast<std::ptrdiff_t>(sz(k, n)),
                            beta, cpool.data(), m,
                            static_cast<std::ptrdiff_t>(sz(m, n)), count);
  auto ab = batch::MatrixBatch<T>::strided(
      apool.data(), m, k, m, static_cast<std::ptrdiff_t>(sz(m, k)), count);
  auto bb = batch::MatrixBatch<T>::strided(
      bpool.data(), k, n, k, static_cast<std::ptrdiff_t>(sz(k, n)), count);
  auto cb = batch::MatrixBatch<T>::strided(
      cpool2.data(), m, n, m, static_cast<std::ptrdiff_t>(sz(m, n)), count);
  batch::gemm_batch(Trans::NoTrans, Trans::NoTrans, alpha, ab, bb, beta, cb);
  for (std::size_t i = 0; i < cpool.size(); ++i) {
    EXPECT_EQ(cpool[i], cpool2[i]) << "element " << i;
  }
}

TYPED_TEST(BatchTest, GemmBatchBlockedPathMatchesNaive) {
  using T = TypeParam;
  // Force every entry through the blocked blas::gemm branch by dropping
  // the crossover to 1.
  const idx prev = set_env_override(EnvSpec::Crossover, EnvRoutine::gemm, 1);
  const idx m = 6, n = 5, k = 7, count = 8;
  Iseed seed = seed_for(444);
  std::vector<Matrix<T>> as, bs, cs, refs;
  for (idx i = 0; i < count; ++i) {
    as.push_back(random_matrix<T>(m, k, seed));
    bs.push_back(random_matrix<T>(k, n, seed));
    cs.emplace_back(m, n);
    refs.emplace_back(m, n);
  }
  for (idx i = 0; i < count; ++i) {
    auto& r = refs[static_cast<std::size_t>(i)];
    blas::gemm_naive(Trans::NoTrans, Trans::NoTrans, m, n, k, T(1),
                     as[static_cast<std::size_t>(i)].data(),
                     as[static_cast<std::size_t>(i)].ld(),
                     bs[static_cast<std::size_t>(i)].data(),
                     bs[static_cast<std::size_t>(i)].ld(), T(0), r.data(),
                     r.ld());
  }
  std::vector<T*> pa, pb, pc;
  std::vector<idx> da, db, dc;
  batch::gemm_batch(Trans::NoTrans, Trans::NoTrans, T(1),
                    make_batch(as, pa, da), make_batch(bs, pb, db), T(0),
                    make_batch(cs, pc, dc));
  set_env_override(EnvSpec::Crossover, EnvRoutine::gemm, prev);
  for (idx i = 0; i < count; ++i) {
    EXPECT_LT(max_diff(refs[static_cast<std::size_t>(i)],
                       cs[static_cast<std::size_t>(i)]),
              tol<T>(real_t<T>(10) * k))
        << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// scheduling policy

TYPED_TEST(BatchTest, SerialOuterRegimeMatchesFanOutExactly) {
  using T = TypeParam;
  std::vector<Matrix<T>> as0, bs0;
  build_gesv_problems<T>(12, 11, 2, 555, as0, bs0);
  std::vector<Matrix<T>> fan_a = as0, fan_b = bs0;
  {
    std::vector<T*> pa, pb;
    std::vector<idx> da, db;
    ASSERT_EQ(batch::gesv_batch(make_batch(fan_a, pa, da),
                                make_batch(fan_b, pb, db)),
              0);
  }
  // Grain 1 classifies every entry as "large": serial outer loop with the
  // threaded Level-3 inside. Same arithmetic, same bits.
  const idx prev = set_env_override(EnvSpec::BatchGrain, EnvRoutine::gemm, 1);
  EXPECT_EQ(batch::batch_grain(), 1);
  std::vector<Matrix<T>> ser_a = as0, ser_b = bs0;
  {
    std::vector<T*> pa, pb;
    std::vector<idx> da, db;
    ASSERT_EQ(batch::gesv_batch(make_batch(ser_a, pa, da),
                                make_batch(ser_b, pb, db)),
              0);
  }
  set_env_override(EnvSpec::BatchGrain, EnvRoutine::gemm, prev);
  expect_identical(fan_a, ser_a);
  expect_identical(fan_b, ser_b);
}

// ---------------------------------------------------------------------------
// F90 span front-end

TYPED_TEST(BatchTest, F90SpanGesvSolvesAndReportsPerEntryInfo) {
  using T = TypeParam;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(10, 7, 2, 666, as, bs);
  std::vector<Matrix<T>> ra = as, rb = bs;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    f90::gesv(ra[i], rb[i]);
  }
  std::vector<idx> infos(as.size(), idx{-1});
  idx info = -1;
  la::gesv(std::span<Matrix<T>>(as), std::span<Matrix<T>>(bs),
           std::span<idx>(infos), &info);
  EXPECT_EQ(info, 0);
  for (idx v : infos) {
    EXPECT_EQ(v, 0);
  }
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

TYPED_TEST(BatchTest, F90SpanGesvSingularEntryAggregatesAndThrows) {
  using T = TypeParam;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(6, 5, 1, 777, as, bs);
  lapack::laset(lapack::Part::All, idx{5}, idx{5}, T(0), T(0), as[2].data(),
                as[2].ld());
  {
    std::vector<Matrix<T>> a = as, b = bs;
    std::vector<idx> infos(6, idx{0});
    idx info = 0;
    la::gesv(std::span<Matrix<T>>(a), std::span<Matrix<T>>(b),
             std::span<idx>(infos), &info);
    EXPECT_EQ(info, 3);  // 1-based index of the singular entry
    EXPECT_GT(infos[2], 0);
    EXPECT_EQ(infos[0], 0);
    EXPECT_EQ(infos[5], 0);
  }
  {
    std::vector<Matrix<T>> a = as, b = bs;
    try {
      la::gesv(std::span<Matrix<T>>(a), std::span<Matrix<T>>(b));
      FAIL() << "expected la::Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.info(), 3);
      EXPECT_EQ(e.routine(), "LA_GESV");
    }
  }
}

TYPED_TEST(BatchTest, F90SpanPosvSolvesBatch) {
  using T = TypeParam;
  Iseed seed = seed_for(888);
  std::vector<Matrix<T>> as, bs;
  for (idx i = 0; i < 8; ++i) {
    as.push_back(random_spd<T>(6, seed));
    bs.push_back(random_matrix<T>(6, 2, seed));
  }
  std::vector<Matrix<T>> ra = as, rb = bs;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    f90::posv(ra[i], rb[i], Uplo::Lower);
  }
  idx info = -1;
  la::posv(std::span<Matrix<T>>(as), std::span<Matrix<T>>(bs), Uplo::Lower,
           {}, &info);
  EXPECT_EQ(info, 0);
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

// ---------------------------------------------------------------------------
// allocation-failure injection (-100) from batch workers

TYPED_TEST(BatchTest, AllocInjectionMarksEntryMinus100) {
  using T = TypeParam;
  with_threads(1, [&] {  // serial scheduling: entry 0 consumes the injection
    std::vector<Matrix<T>> as, bs;
    build_gesv_problems<T>(4, 6, 1, 999, as, bs);
    std::vector<Matrix<T>> ra = as, rb = bs;
    std::vector<idx> piv(6);
    for (std::size_t i = 1; i < ra.size(); ++i) {
      ASSERT_EQ(lapack::gesv(idx{6}, idx{1}, ra[i].data(), ra[i].ld(),
                             piv.data(), rb[i].data(), rb[i].ld()),
                0);
    }
    inject_alloc_failures(1);
    std::vector<T*> pa, pb;
    std::vector<idx> da, db;
    std::vector<idx> infos(4, idx{0});
    const idx agg = batch::gesv_batch(make_batch(as, pa, da),
                                      make_batch(bs, pb, db), infos.data());
    inject_alloc_failures(0);
    EXPECT_EQ(agg, 1);
    EXPECT_EQ(infos[0], -100);
    // Entry 0 untouched, the rest solved normally.
    for (std::size_t i = 1; i < as.size(); ++i) {
      EXPECT_EQ(infos[i], 0);
      EXPECT_EQ(max_diff(ra[i], as[i]), real_t<T>(0));
      EXPECT_EQ(max_diff(rb[i], bs[i]), real_t<T>(0));
    }
  });
}

TYPED_TEST(BatchTest, F90SpanGesvReportsMinus100FromInjection) {
  using T = TypeParam;
  with_threads(1, [&] {
    std::vector<Matrix<T>> as, bs;
    build_gesv_problems<T>(3, 5, 1, 1010, as, bs);
    inject_alloc_failures(1);
    std::vector<idx> infos(3, idx{0});
    idx info = 0;
    la::gesv(std::span<Matrix<T>>(as), std::span<Matrix<T>>(bs),
             std::span<idx>(infos), &info);
    inject_alloc_failures(0);
    EXPECT_EQ(info, -100);
    EXPECT_EQ(infos[0], -100);
    EXPECT_EQ(infos[1], 0);
    EXPECT_EQ(infos[2], 0);
  });
}

}  // namespace
}  // namespace la::test
