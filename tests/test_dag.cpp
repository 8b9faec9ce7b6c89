// Task-DAG scheduler (core/dag.hpp) and the tiled factorizations built on
// it (lapack/tiled.hpp). Two layers of coverage:
//
//  * TaskGraph semantics: every task runs exactly once, edges derived from
//    declared key accesses order read-after-write, write-after-read and
//    write-after-write (without self or duplicate edges), priorities drain
//    first, cancellation skips pending tasks without deadlocking, empty
//    graphs never touch the pool.
//  * Tiled getrf/potrf/geqrf: bit-identity across worker counts and across
//    seeded-random topological drains of the exact graph the driver
//    builds (the determinism contract of DESIGN.md section 14), degenerate
//    shapes against the unblocked reference (including INFO), and the -100
//    workspace-injection cancellation path.
//
// These suites ride the "dag" ctest label, the thread-matrix runs and the
// tsan preset (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <utility>
#include <vector>

#include "lapack90/core/dag.hpp"
#include "test_utils.hpp"

namespace la::test {
namespace {

// ---------------------------------------------------------------------------
// RAII overrides: tile edge (all three routines), workers.
// ---------------------------------------------------------------------------

/// Tile edge nb (EnvSpec::BlockSize) for getrf/potrf/geqrf, with the
/// crossover dropped to 2 so that every problem spanning two tiles runs on
/// the DAG, including the small shapes of the random-order drains.
struct TileNbGuard {
  static constexpr EnvRoutine kRoutines[] = {
      EnvRoutine::getrf, EnvRoutine::potrf, EnvRoutine::geqrf};
  idx prev_nb[3]{}, prev_nx[3]{};
  explicit TileNbGuard(idx nb) {
    for (int i = 0; i < 3; ++i) {
      prev_nb[i] = set_env_override(EnvSpec::BlockSize, kRoutines[i], nb);
      prev_nx[i] = set_env_override(EnvSpec::Crossover, kRoutines[i], 2);
    }
  }
  ~TileNbGuard() {
    for (int i = 0; i < 3; ++i) {
      set_env_override(EnvSpec::BlockSize, kRoutines[i], prev_nb[i]);
      set_env_override(EnvSpec::Crossover, kRoutines[i], prev_nx[i]);
    }
  }
};

using Keys = std::vector<TaskGraph::Key>;

struct ThreadsGuard {
  idx prev;
  explicit ThreadsGuard(idx nt) : prev(set_num_threads(nt)) {}
  ~ThreadsGuard() { set_num_threads(prev); }
};

template <Scalar T>
void expect_bitwise(const Matrix<T>& a, const Matrix<T>& b,
                    const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  idx mismatches = 0;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      if (!(a(i, j) == b(i, j))) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << what << ": " << mismatches
                           << " element(s) differ bitwise";
}

// ---------------------------------------------------------------------------
// TaskGraph semantics.
// ---------------------------------------------------------------------------

TEST(DagSchedulerTest, EmptyGraphReturnsWithoutRunning) {
  TaskGraph g;
  EXPECT_EQ(g.size(), 0);
  EXPECT_EQ(g.run(), 0);
  EXPECT_FALSE(g.cancelled());
}

TEST(DagSchedulerTest, RunsEveryTaskExactlyOnce) {
  TaskGraph g;
  constexpr idx kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  // Deterministic sparse dependence pattern: task i writes key i and reads
  // the keys of tasks i-1 (when i-1 is even) and i-7.
  for (idx i = 0; i < kTasks; ++i) {
    Keys reads;
    if (i % 2 == 1) {
      reads.push_back(i - 1);
    }
    if (i >= 7) {
      reads.push_back(i - 7);
    }
    g.add(
        [&hits, i] {
          hits[static_cast<std::size_t>(i)].fetch_add(
              1, std::memory_order_relaxed);
        },
        reads, Keys{i});
  }
  EXPECT_EQ(g.run(), 0);
  for (idx i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(DagSchedulerTest, RespectsDependencyOrder) {
  TaskGraph g;
  std::mutex mu;
  std::vector<int> order;
  // Diamond fan: root -> 8 middles -> sink.
  const auto record = [&mu, &order](int v) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(v);
  };
  // Key 0 is the root's output, keys 1..8 the middles' outputs.
  g.add([&] { record(0); }, {}, Keys{0});
  for (int i = 1; i <= 8; ++i) {
    g.add([&record, i] { record(i); }, Keys{0}, Keys{i});
  }
  g.add([&] { record(9); }, Keys{1, 2, 3, 4, 5, 6, 7, 8}, {});
  EXPECT_EQ(g.run(), 0);
  ASSERT_EQ(order.size(), 10u);
  EXPECT_EQ(order.front(), 0);  // root strictly first
  EXPECT_EQ(order.back(), 9);   // sink strictly last
}

TEST(DagSchedulerTest, SerialDrainPrefersHighPriorityFifo) {
  // With one worker the drain is deterministic: both high-priority tasks
  // (in insertion order) before the normal one.
  ThreadsGuard one(1);
  TaskGraph g;
  std::vector<int> order;
  g.add([&] { order.push_back(1); }, {}, {}, TaskGraph::Priority::Normal);
  g.add([&] { order.push_back(2); }, {}, {}, TaskGraph::Priority::High);
  g.add([&] { order.push_back(3); }, {}, {}, TaskGraph::Priority::High);
  EXPECT_EQ(g.run(), 0);
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(DagSchedulerTest, CancelSkipsPendingAndSurfacesStatus) {
  TaskGraph g;
  std::atomic<int> ran{0};
  constexpr int kTasks = 12;
  for (int i = 0; i < kTasks; ++i) {
    // Every task writes key 0: a chain in insertion order.
    g.add(
        [&g, &ran, i] {
          ran.fetch_add(1, std::memory_order_relaxed);
          if (i == 3) {
            g.cancel(-100);
          }
        },
        {}, Keys{0});
  }
  EXPECT_EQ(g.run(), -100);  // terminates: no deadlock, counters drained
  EXPECT_TRUE(g.cancelled());
  EXPECT_EQ(g.status(), -100);
  EXPECT_EQ(ran.load(), 4);  // chain order: tasks after the canceller skip
  // The first latched status wins over later cancellations.
  TaskGraph g2;
  g2.cancel(-7);
  g2.cancel(-100);
  EXPECT_EQ(g2.status(), -7);
}

// ---------------------------------------------------------------------------
// Edges derived from declared key accesses, each at 1 and 4 workers.
// ---------------------------------------------------------------------------

TEST(DagSchedulerTest, ReadAfterWriteWaitsForTheWriter) {
  for (const idx workers : {idx{1}, idx{4}}) {
    ThreadsGuard tg(workers);
    TaskGraph g;
    std::atomic<bool> written{false};
    std::atomic<int> early{0};
    const auto w = g.add(
        [&] { written.store(true, std::memory_order_release); }, {},
        Keys{0});
    for (int i = 0; i < 6; ++i) {
      const auto r = g.add(
          [&] {
            if (!written.load(std::memory_order_acquire)) {
              early.fetch_add(1, std::memory_order_relaxed);
            }
          },
          Keys{0}, Keys{1 + i});
      EXPECT_EQ(g.predecessors(r), 1);
    }
    EXPECT_EQ(g.successors(w).size(), 6u);
    EXPECT_EQ(g.run(), 0);
    EXPECT_EQ(early.load(), 0) << workers << " workers";
  }
}

TEST(DagSchedulerTest, WriteAfterReadWaitsForEveryReader) {
  for (const idx workers : {idx{1}, idx{4}}) {
    ThreadsGuard tg(workers);
    TaskGraph g;
    std::atomic<int> reads{0};
    int seen = -1;
    for (int i = 0; i < 6; ++i) {
      g.add([&] { reads.fetch_add(1, std::memory_order_acq_rel); }, Keys{0},
            {});
    }
    const auto w = g.add(
        [&] { seen = reads.load(std::memory_order_acquire); }, {}, Keys{0});
    EXPECT_EQ(g.predecessors(w), 6);
    EXPECT_EQ(g.run(), 0);
    EXPECT_EQ(seen, 6) << workers << " workers";
  }
}

TEST(DagSchedulerTest, WriteAfterWriteKeepsProgramOrder) {
  for (const idx workers : {idx{1}, idx{4}}) {
    ThreadsGuard tg(workers);
    TaskGraph g;
    std::vector<int> order;  // every writer is ordered: no lock needed
    // Unrelated normal-priority tasks first, so a free-running worker
    // would have something else to pick.
    for (int i = 0; i < 8; ++i) {
      g.add([] {}, {}, Keys{100 + i});
    }
    for (int i = 0; i < 8; ++i) {
      g.add([&order, i] { order.push_back(i); }, {}, Keys{0},
            i % 2 == 0 ? TaskGraph::Priority::Normal
                       : TaskGraph::Priority::High);
    }
    EXPECT_EQ(g.run(), 0);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}))
        << workers << " workers";
  }
}

TEST(DagSchedulerTest, ReadWriteOfOneKeyAddsNoSelfEdge) {
  for (const idx workers : {idx{1}, idx{4}}) {
    ThreadsGuard tg(workers);
    TaskGraph g;
    std::vector<int> order;
    const auto a = g.add([&] { order.push_back(0); }, {}, Keys{0});
    const auto b = g.add([&] { order.push_back(1); }, Keys{0}, Keys{0});
    const auto c = g.add([&] { order.push_back(2); }, Keys{0}, Keys{0});
    const auto d = g.add([&] { order.push_back(3); }, Keys{0}, {});
    EXPECT_EQ(g.predecessors(a), 0);
    EXPECT_EQ(g.predecessors(b), 1);
    EXPECT_EQ(g.predecessors(c), 1);
    EXPECT_EQ(g.predecessors(d), 1);
    EXPECT_EQ(g.successors(b), (std::vector<TaskGraph::TaskId>{c}));
    EXPECT_EQ(g.run(), 0);  // a self-edge would never drain
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3})) << workers << " workers";
  }
}

TEST(DagSchedulerTest, SamePredecessorThroughTwoKeysIsOneEdge) {
  for (const idx workers : {idx{1}, idx{4}}) {
    ThreadsGuard tg(workers);
    TaskGraph g;
    std::atomic<int> step{0};
    int seen = -1;
    const auto w = g.add([&] { step.store(1, std::memory_order_release); },
                         {}, Keys{0, 1});
    // Reads key 0, reads-and-writes key 1: three accesses, one predecessor.
    const auto r = g.add(
        [&] { seen = step.load(std::memory_order_acquire); }, Keys{0, 1},
        Keys{1});
    EXPECT_EQ(g.predecessors(r), 1);
    EXPECT_EQ(g.successors(w), (std::vector<TaskGraph::TaskId>{r}));
    EXPECT_EQ(g.run(), 0);
    EXPECT_EQ(seen, 1) << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// Tiled factorizations.
// ---------------------------------------------------------------------------

/// Serial drain of a built graph in a seeded-random topological order:
/// each step runs a uniformly chosen ready task. Returns the graph status.
idx random_drain(TaskGraph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<idx> deps(static_cast<std::size_t>(g.size()));
  std::vector<TaskGraph::TaskId> ready;
  for (TaskGraph::TaskId t = 0; t < g.size(); ++t) {
    deps[static_cast<std::size_t>(t)] = g.predecessors(t);
    if (deps[static_cast<std::size_t>(t)] == 0) {
      ready.push_back(t);
    }
  }
  idx ran = 0;
  while (!ready.empty()) {
    const std::size_t i = rng() % ready.size();
    const TaskGraph::TaskId t = ready[i];
    ready[i] = ready.back();
    ready.pop_back();
    g.invoke(t);
    ++ran;
    for (const TaskGraph::TaskId s : g.successors(t)) {
      if (--deps[static_cast<std::size_t>(s)] == 0) {
        ready.push_back(s);
      }
    }
  }
  EXPECT_EQ(ran, g.size()) << "graph has a cycle";
  return g.status();
}

template <Scalar T>
class TiledFactorTest : public ::testing::Test {};
TYPED_TEST_SUITE(TiledFactorTest, AllTypes);

TYPED_TEST(TiledFactorTest, GetrfBitIdenticalAcrossSchedulersAndWorkers) {
  using T = TypeParam;
  TileNbGuard nb(64);
  Iseed seed = seed_for(601);
  for (auto [m, n] : {std::pair<idx, idx>{200, 200}, {200, 150}, {150, 200},
                      {257, 193}}) {
    const Matrix<T> a0 = random_matrix<T>(m, n, seed);
    const idx k = std::min(m, n);
    const auto factor = [&](idx workers, Matrix<T>& f,
                            std::vector<idx>& piv) {
      ThreadsGuard tg(workers);
      f = a0;
      piv.assign(static_cast<std::size_t>(k), -1);
      ASSERT_EQ(lapack::getrf(m, n, f.data(), f.ld(), piv.data()), 0);
    };
    Matrix<T> ref(m, n), cur(m, n);
    std::vector<idx> pref, pcur;
    factor(1, ref, pref);
    for (const idx workers : {idx{4}, idx{8}}) {
      factor(workers, cur, pcur);
      expect_bitwise(cur, ref, "dag factors across worker counts");
      EXPECT_EQ(pcur, pref);
    }
    // And the result is a genuine LU of a0: solve a square system through
    // the factors (square case only).
    if (m == n) {
      Matrix<T> x = random_matrix<T>(n, 2, seed);
      const Matrix<T> b = multiply(a0, x);
      Matrix<T> y = b;
      ASSERT_EQ(lapack::getrs(Trans::NoTrans, n, 2, ref.data(), ref.ld(),
                              pref.data(), y.data(), y.ld()),
                0);
      EXPECT_LT(solve_ratio(a0, y, b), real_t<T>(30));
    }
  }
}

TYPED_TEST(TiledFactorTest, PotrfBitIdenticalAcrossSchedulersAndWorkers) {
  using T = TypeParam;
  TileNbGuard nb(64);
  Iseed seed = seed_for(602);
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const idx n : {idx{200}, idx{257}}) {
      const Matrix<T> a0 = random_spd<T>(n, seed);
      const auto factor = [&](idx workers, Matrix<T>& f) {
        ThreadsGuard tg(workers);
        f = a0;
        ASSERT_EQ(lapack::potrf(uplo, n, f.data(), f.ld()), 0);
      };
      Matrix<T> ref(n, n), cur(n, n);
      factor(1, ref);
      for (const idx workers : {idx{4}, idx{8}}) {
        factor(workers, cur);
        expect_bitwise(cur, ref, "dag potrf across worker counts");
      }
      // Solve through the factors to pin correctness.
      Matrix<T> x = random_matrix<T>(n, 2, seed);
      const Matrix<T> b = multiply(a0, x);
      Matrix<T> y = b;
      ASSERT_EQ(lapack::potrs(uplo, n, 2, ref.data(), ref.ld(), y.data(),
                              y.ld()),
                0);
      EXPECT_LT(solve_ratio(a0, y, b), real_t<T>(30));
    }
  }
}

TYPED_TEST(TiledFactorTest, GeqrfBitIdenticalAcrossSchedulersAndWorkers) {
  using T = TypeParam;
  TileNbGuard nb(64);
  Iseed seed = seed_for(603);
  // Tall with n mod nb != 0, wide ragged (k = m < n, m mod nb != 0),
  // square ragged, and exactly two tiles (k = 2 nb): the shapes where the
  // panel's folded update meets a fragment or the last tile.
  for (auto [m, n] : {std::pair<idx, idx>{200, 150}, {150, 200}, {257, 257},
                      {160, 128}}) {
    const Matrix<T> a0 = random_matrix<T>(m, n, seed);
    const idx k = std::min(m, n);
    const auto factor = [&](idx workers, Matrix<T>& f, std::vector<T>& tau) {
      ThreadsGuard tg(workers);
      f = a0;
      tau.assign(static_cast<std::size_t>(k), T(0));
      ASSERT_EQ(lapack::geqrf(m, n, f.data(), f.ld(), tau.data()), 0);
    };
    Matrix<T> ref(m, n), cur(m, n);
    std::vector<T> tref, tcur;
    factor(1, ref, tref);
    for (const idx workers : {idx{4}, idx{8}}) {
      factor(workers, cur, tcur);
      expect_bitwise(cur, ref, "dag geqrf across worker counts");
      EXPECT_EQ(tcur, tref);
    }
    // Reconstruct A = Q(:, 0:k) R(0:k, :) and compare against the input;
    // on wide shapes this checks the columns past k too.
    Matrix<T> q(m, k);
    lapack::lacpy(lapack::Part::All, m, k, ref.data(), ref.ld(), q.data(),
                  q.ld());
    lapack::orgqr(m, k, k, q.data(), q.ld(), tref.data());
    Matrix<T> r(k, n);
    lapack::lacpy(lapack::Part::Upper, k, n, ref.data(), ref.ld(), r.data(),
                  r.ld());
    EXPECT_LE(max_diff(multiply(q, r), a0), tol<T>() * real_t<T>(m + n));
    EXPECT_LE(orthogonality(q), tol<T>() * real_t<T>(m));
  }
}

TYPED_TEST(TiledFactorTest, RandomTopologicalOrdersAreBitIdentical) {
  // Build the exact graph each tiled driver runs, drain it serially in
  // seeded-random topological orders, and require the driver's own result
  // bit for bit: any order the derived edges allow must be equivalent.
  using T = TypeParam;
  namespace td = lapack::tiled::detail;
  TileNbGuard nbg(16);
  Iseed seed = seed_for(606);
  constexpr std::uint64_t kSeeds = 8;
  // Square, tall, wide, wide-ragged (k = m < n, m mod nb != 0), tall with
  // n mod nb != 0, and exactly two tiles (k = 2 nb).
  const std::pair<idx, idx> shapes[] = {{96, 96},  {112, 64}, {64, 112},
                                        {72, 112}, {112, 72}, {48, 32}};
  for (const idx workers : {idx{1}, idx{4}}) {
    ThreadsGuard tg(workers);
    for (const auto& [m, n] : shapes) {
      const Matrix<T> a0 = random_matrix<T>(m, n, seed);
      const idx k = std::min(m, n);
      {
        const idx nb = td::tile_edge(EnvRoutine::getrf, k);
        ASSERT_EQ(nb, 16);
        Matrix<T> ref = a0;
        std::vector<idx> pref(static_cast<std::size_t>(k), -1);
        ASSERT_EQ(lapack::getrf(m, n, ref.data(), ref.ld(), pref.data()), 0);
        for (std::uint64_t rs = 0; rs < kSeeds; ++rs) {
          Matrix<T> f = a0;
          std::vector<idx> piv(static_cast<std::size_t>(k), -1);
          td::LuTiles<T> t{m, n, k, nb, f.data(), f.ld(), piv.data()};
          TaskGraph g;
          td::build(g, t);
          EXPECT_EQ(random_drain(g, rs), 0);
          EXPECT_EQ(t.finish(), 0);
          expect_bitwise(f, ref, "getrf random order");
          EXPECT_EQ(piv, pref) << m << "x" << n << " seed " << rs;
        }
      }
      {
        const idx nb = td::tile_edge(EnvRoutine::geqrf, k);
        ASSERT_EQ(nb, 16);
        Matrix<T> ref = a0;
        std::vector<T> tref(static_cast<std::size_t>(k), T(0));
        ASSERT_EQ(lapack::geqrf(m, n, ref.data(), ref.ld(), tref.data()), 0);
        for (std::uint64_t rs = 0; rs < kSeeds; ++rs) {
          Matrix<T> f = a0;
          std::vector<T> tau(static_cast<std::size_t>(k), T(0));
          std::vector<T> tstore(static_cast<std::size_t>(k + nb - 1) / nb *
                                nb * nb);
          td::QrTiles<T> t{m,   n,         k,          nb,
                           f.data(), f.ld(), tau.data(), tstore.data()};
          TaskGraph g;
          td::build(g, t);
          EXPECT_EQ(random_drain(g, rs), 0);
          expect_bitwise(f, ref, "geqrf random order");
          EXPECT_EQ(tau, tref) << m << "x" << n << " seed " << rs;
        }
      }
    }
    for (const idx n : {idx{96}, idx{88}}) {
      const Matrix<T> a0 = random_spd<T>(n, seed);
      const idx nb = td::tile_edge(EnvRoutine::potrf, n);
      ASSERT_EQ(nb, 16);
      for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
        Matrix<T> ref = a0;
        ASSERT_EQ(lapack::potrf(uplo, n, ref.data(), ref.ld()), 0);
        for (std::uint64_t rs = 0; rs < kSeeds; ++rs) {
          Matrix<T> f = a0;
          td::CholTiles<T> t{uplo, n, nb, f.data(), f.ld()};
          TaskGraph g;
          td::build(g, t);
          EXPECT_EQ(random_drain(g, rs), 0);
          expect_bitwise(f, ref, "potrf random order");
        }
      }
    }
  }
}

TYPED_TEST(TiledFactorTest, DegenerateShapesNeverBuildGraphs) {
  using T = TypeParam;
  TileNbGuard nb(64);
  Iseed seed = seed_for(604);
  // k = 0: quick return, INFO 0, nothing touched.
  T dummy = T(42);
  idx pdummy = -3;
  EXPECT_EQ(lapack::getrf<T>(0, 0, &dummy, 1, &pdummy), 0);
  EXPECT_EQ(lapack::getrf<T>(0, 5, &dummy, 1, &pdummy), 0);
  EXPECT_EQ(lapack::getrf<T>(5, 0, &dummy, 1, &pdummy), 0);
  EXPECT_EQ(lapack::potrf<T>(Uplo::Lower, 0, &dummy, 1), 0);
  EXPECT_EQ(lapack::geqrf<T>(0, 0, &dummy, 1, &dummy), 0);
  EXPECT_EQ(lapack::geqrf<T>(0, 7, &dummy, 1, &dummy), 0);
  EXPECT_EQ(dummy, T(42));
  EXPECT_EQ(pdummy, -3);
  // Single tile (nb >= k): bitwise identical to the unblocked reference,
  // including INFO for a singular input.
  {
    TileNbGuard big(1 << 12);
    const idx n = 96;
    Matrix<T> a = random_matrix<T>(n, n, seed);
    a(7, 7) = T(0);
    for (idx i = 0; i < n; ++i) {
      a(i, 20) = T(0);  // exactly-zero column -> deterministic INFO
    }
    Matrix<T> t = a, u = a;
    std::vector<idx> pt(n), pu(n);
    const idx it = lapack::getrf(n, n, t.data(), t.ld(), pt.data());
    const idx iu = lapack::getf2(n, n, u.data(), u.ld(), pu.data());
    EXPECT_EQ(it, iu);
    EXPECT_EQ(pt, pu);
    expect_bitwise(t, u, "single-tile getrf vs getf2");
  }
  // Multi-tile singular input: INFO matches the unblocked reference.
  {
    const idx n = 200;
    Matrix<T> a = random_matrix<T>(n, n, seed);
    for (idx i = 0; i < n; ++i) {
      a(i, 130) = T(0);  // lands in the third 64-wide panel (NB 64 above)
    }
    Matrix<T> t = a, u = a;
    std::vector<idx> pt(n), pu(n);
    const idx it = lapack::getrf(n, n, t.data(), t.ld(), pt.data());
    const idx iu = lapack::getf2(n, n, u.data(), u.ld(), pu.data());
    EXPECT_EQ(it, iu);
    EXPECT_EQ(it, 131);  // 1-based first zero pivot
  }
  // Non-positive-definite potrf: INFO matches the unblocked reference.
  {
    const idx n = 200;
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      Matrix<T> a = random_spd<T>(n, seed);
      a(150, 150) = T(-1000);
      Matrix<T> t = a, u = a;
      const idx iu = lapack::potf2(uplo, n, u.data(), u.ld());
      const idx id = lapack::potrf(uplo, n, t.data(), t.ld());
      EXPECT_EQ(id, iu);
      EXPECT_EQ(id, 151);
    }
  }
}

/// A zero column in the second half of a panel's getrf2 recursion: the
/// tiled INFO is its absolute 1-based index, as getf2 reports it.
TYPED_TEST(TiledFactorTest, GetrfZeroColumnInPanelSecondHalf) {
  using T = TypeParam;
  TileNbGuard nb(64);
  Iseed seed = seed_for(607);
  const idx n = 200;
  const idx col = 2 * 64 + 40;  // third panel [128, 192), which splits at 32
  Matrix<T> a = random_matrix<T>(n, n, seed);
  for (idx i = 0; i < n; ++i) {
    a(i, col) = T(0);
  }
  Matrix<T> t = a, u = a;
  std::vector<idx> pt(n), pu(n);
  const idx it = lapack::getrf(n, n, t.data(), t.ld(), pt.data());
  EXPECT_EQ(it, col + 1);
  EXPECT_EQ(it, lapack::getf2(n, n, u.data(), u.ld(), pu.data()));
}

TYPED_TEST(TiledFactorTest, WorkspaceInjectionCancelsDagWithoutDeadlock) {
  using T = TypeParam;
  TileNbGuard nb(32);
  Iseed seed = seed_for(605);
  const idx m = 200, n = 160;
  const Matrix<T> a0 = random_matrix<T>(m, n, seed);
  const idx k = std::min(m, n);
  for (const idx workers : {idx{1}, idx{4}}) {
    ThreadsGuard tg(workers);
    // Reference result with no injection active.
    Matrix<T> ref = a0;
    std::vector<T> tref(static_cast<std::size_t>(k), T(0));
    ASSERT_EQ(lapack::geqrf(m, n, ref.data(), ref.ld(), tref.data()), 0);
    // Inject one workspace failure: the first tile task's probe trips,
    // cancels the remaining graph, and INFO = -100 surfaces.
    Matrix<T> f = a0;
    std::vector<T> tau(static_cast<std::size_t>(k), T(0));
    inject_alloc_failures(1);
    EXPECT_EQ(lapack::geqrf(m, n, f.data(), f.ld(), tau.data()), -100);
    inject_alloc_failures(0);
    // The pool survived the cancellation: an immediate retry completes and
    // reproduces the reference bitwise.
    f = a0;
    std::fill(tau.begin(), tau.end(), T(0));
    ASSERT_EQ(lapack::geqrf(m, n, f.data(), f.ld(), tau.data()), 0);
    expect_bitwise(f, ref, "geqrf after cancelled run");
    EXPECT_EQ(tau, tref);
  }
  // Every task but P_0 probes for a larfb workspace: P_s (s > 0) for the
  // update of column tile s it folds in, U_{s,c} for its own. Fail each
  // task's probe in turn on a serial drain in insertion order (a
  // topological order): the failing task cancels the graph with -100.
  namespace td = lapack::tiled::detail;
  const idx nbq = td::tile_edge(EnvRoutine::geqrf, k);
  for (TaskGraph::TaskId victim = 0;; ++victim) {
    Matrix<T> f = a0;
    std::vector<T> tau(static_cast<std::size_t>(k), T(0));
    std::vector<T> tstore(static_cast<std::size_t>(k + nbq - 1) / nbq * nbq *
                          nbq);
    td::QrTiles<T> t{m,        n,      k,          nbq,
                     f.data(), f.ld(), tau.data(), tstore.data()};
    TaskGraph g;
    td::build(g, t);
    if (victim >= g.size()) {
      break;
    }
    int left = 0;
    for (TaskGraph::TaskId id = 0; id < g.size(); ++id) {
      if (id == victim) {
        inject_alloc_failures(1);
      }
      g.invoke(id);
      if (id == victim) {
        left = inject_alloc_failures(0);
      }
    }
    const bool first_panel = victim == 0;
    EXPECT_EQ(left, first_panel ? 1 : 0) << "task " << victim;
    EXPECT_EQ(g.status(), first_panel ? 0 : -100) << "task " << victim;
  }
}

TEST(TiledEnvTest, TileKnobDefaultsAndOverrides) {
  // ilaenv's NB is the tile edge: builtin per routine, and the per-routine
  // override round trip.
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::getrf, 0), 128);
  const idx prev = set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, 48);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::getrf, 0), 48);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::potrf, 0), 64);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::geqrf, 0), 64);
  set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, prev);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::getrf, 0), 128);
}

TEST(TiledEnvTest, DispatchGateRespectsCrossoverAndTileCount) {
  using lapack::tiled::detail::tile_edge;
  // Defaults: up to the crossover (128) the unblocked kernel runs; past it
  // every problem spans two or more tiles and takes the DAG.
  EXPECT_EQ(tile_edge(EnvRoutine::getrf, 0), 0);
  EXPECT_EQ(tile_edge(EnvRoutine::getrf, 128), 0);
  EXPECT_EQ(tile_edge(EnvRoutine::getrf, 129), 128);
  EXPECT_EQ(tile_edge(EnvRoutine::potrf, 300), 64);
  EXPECT_EQ(tile_edge(EnvRoutine::geqrf, 300), 64);
  // Below the crossover the gate stays closed even though nb would allow
  // two tiles; NB = 1 closes it everywhere.
  const idx prev = set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, 16);
  EXPECT_EQ(tile_edge(EnvRoutine::getrf, 100), 0);
  EXPECT_EQ(tile_edge(EnvRoutine::getrf, 300), 16);
  set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, 1);
  EXPECT_EQ(tile_edge(EnvRoutine::getrf, 300), 0);
  set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, prev);
  // Past a lowered crossover a single tile (nb >= k) stays closed.
  const idx prev_nx =
      set_env_override(EnvSpec::Crossover, EnvRoutine::getrf, 2);
  EXPECT_EQ(tile_edge(EnvRoutine::getrf, 100), 0);
  EXPECT_EQ(tile_edge(EnvRoutine::getrf, 128), 0);
  EXPECT_EQ(tile_edge(EnvRoutine::getrf, 129), 128);
  set_env_override(EnvSpec::Crossover, EnvRoutine::getrf, prev_nx);
}

}  // namespace
}  // namespace la::test
