// Serving subsystem (la::serve): admission control, coalescing, and the
// executor contract — every served result is bit-identical to the
// corresponding direct la::lapack driver call, per-entry INFO aggregates
// by the batch rule (first failing entry), a full queue rejects with
// kInfoRejected instead of blocking, and the dispatcher is work-conserving:
// partial groups flush as soon as the queue runs dry, so a lonely job never
// waits for company, and the jobs that queue up behind one flush share the
// next. The executor runs each entry as that direct driver call, so the
// identity holds on either side of the blocking crossover.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <span>
#include <thread>
#include <vector>

#include "test_utils.hpp"

namespace la::test {
namespace {

using serve::JobResult;
using serve::Server;
using serve::kInfoRejected;

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
void expect_identical(const std::vector<Matrix<T>>& a,
                      const std::vector<Matrix<T>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(max_diff(a[i], b[i]), real_t<T>(0)) << "entry " << i;
  }
}

template <Scalar T>
void build_gesv_problems(idx count, idx n, idx nrhs, int salt,
                         std::vector<Matrix<T>>& as,
                         std::vector<Matrix<T>>& bs) {
  Iseed seed = seed_for(salt);
  for (idx i = 0; i < count; ++i) {
    Matrix<T> a = random_matrix<T>(n, n, seed);
    for (idx d = 0; d < n; ++d) {
      a(d, d) += T(real_t<T>(n));
    }
    as.push_back(std::move(a));
    bs.push_back(random_matrix<T>(n, nrhs, seed));
  }
}

/// A type-erased gesv unit over a test matrix pair.
template <Scalar T>
serve::detail::Unit gesv_unit(Matrix<T>& a, Matrix<T>& b) {
  serve::detail::Unit u;
  u.routine = serve::Routine::gesv;
  u.dtype = serve::dtype_of<T>();
  u.a = a.data();
  u.am = a.rows();
  u.an = a.cols();
  u.lda = a.ld();
  u.b = b.data();
  u.bm = b.rows();
  u.bn = b.cols();
  u.ldb = b.ld();
  return u;
}

/// Completion-hook context: counts the calls and keeps the last result.
struct Seen {
  std::atomic<int> calls{0};
  JobResult r;
  static void on_done(void* ctx, const JobResult& r) {
    auto* s = static_cast<Seen*>(ctx);
    s->r = r;
    s->calls.fetch_add(1, std::memory_order_release);
  }
  [[nodiscard]] int count() const {
    return calls.load(std::memory_order_acquire);
  }
};

/// Holds a server's dispatcher shut: a one-entry job whose completion hook
/// runs on the dispatcher (inside the flush that served it) and blocks
/// there until open(). The gate keeps its admission slot until that flush
/// ends, so while it is shut nothing behind it is flushed and no slot is
/// freed: admission state is exactly what the test did to it. Open the
/// gate before shutdown(), which joins the dispatcher. The destructor opens
/// it too and then waits until the server is idle, so the hook has left the
/// latch before it is destroyed; declare the gate after its server.
class Gate {
 public:
  explicit Gate(Server& srv) : srv_(srv) {
    a_(0, 0) = 1.0;
    b_(0, 0) = 1.0;
    unit_ = gesv_unit(a_, b_);
    serve::Submission job{&unit_, 1, &Gate::hold, this, nullptr};
    srv.submit_many({&job, 1});
    held_.wait();
  }
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;
  ~Gate() {
    open();
    srv_.wait_idle();
  }

  void open() {
    if (!opened_) {
      opened_ = true;
      release_.count_down();
    }
  }

 private:
  static void hold(void* ctx, const JobResult& r) {
    auto* g = static_cast<Gate*>(ctx);
    EXPECT_EQ(r.info, 0) << "the gate job was not served";
    g->held_.count_down();
    if (r.info == 0) {  // a rejection runs here on the test thread
      g->release_.wait();
    }
  }

  Server& srv_;
  Matrix<double> a_{1, 1}, b_{1, 1};
  serve::detail::Unit unit_;
  std::latch held_{1}, release_{1};
  bool opened_ = false;
};

template <class T>
class ServeTest : public ::testing::Test {};
TYPED_TEST_SUITE(ServeTest, AllTypes);

// ---------------------------------------------------------------------------
// bit-identity with the direct drivers, all four routine families

TYPED_TEST(ServeTest, GesvBitIdenticalToDirectDriver) {
  using T = TypeParam;
  const idx n = 8, nrhs = 3;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(1, n, nrhs, 3101, as, bs);
  Matrix<T> ra = as[0], rb = bs[0];
  std::vector<idx> piv(n);
  ASSERT_EQ(lapack::gesv(n, nrhs, ra.data(), ra.ld(), piv.data(), rb.data(),
                         rb.ld()),
            0);
  Server srv;
  auto fut = srv.gesv(n, nrhs, as[0].data(), as[0].ld(), bs[0].data(),
                      bs[0].ld());
  const JobResult r = fut.get();
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(r.entries, 1);
  EXPECT_EQ(r.batches, 1);
  EXPECT_EQ(max_diff(ra, as[0]), real_t<T>(0));
  EXPECT_EQ(max_diff(rb, bs[0]), real_t<T>(0));
}

TYPED_TEST(ServeTest, PosvBitIdenticalToDirectDriver) {
  using T = TypeParam;
  const idx n = 10, nrhs = 2;
  Iseed seed = seed_for(3202);
  Matrix<T> a = random_spd<T>(n, seed);
  Matrix<T> b = random_matrix<T>(n, nrhs, seed);
  Matrix<T> ra = a, rb = b;
  ASSERT_EQ(lapack::posv(Uplo::Upper, n, nrhs, ra.data(), ra.ld(), rb.data(),
                         rb.ld()),
            0);
  Server srv;
  const JobResult r =
      srv.posv(Uplo::Upper, n, nrhs, a.data(), a.ld(), b.data(), b.ld()).get();
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(max_diff(ra, a), real_t<T>(0));
  EXPECT_EQ(max_diff(rb, b), real_t<T>(0));
}

TYPED_TEST(ServeTest, GelsBitIdenticalToDirectDriver) {
  using T = TypeParam;
  const idx m = 9, n = 5, nrhs = 2;
  Iseed seed = seed_for(3303);
  Matrix<T> a = random_matrix<T>(m, n, seed);
  Matrix<T> b = random_matrix<T>(m, nrhs, seed);
  Matrix<T> ra = a, rb = b;
  ASSERT_EQ(lapack::gels(Trans::NoTrans, m, n, nrhs, ra.data(), ra.ld(),
                         rb.data(), rb.ld()),
            0);
  Server srv;
  const JobResult r = srv.gels(Trans::NoTrans, m, n, nrhs, a.data(), a.ld(),
                               b.data(), b.ld())
                          .get();
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(max_diff(ra, a), real_t<T>(0));
  EXPECT_EQ(max_diff(rb, b), real_t<T>(0));
}

TYPED_TEST(ServeTest, GeqrfBitIdenticalToDirectDriver) {
  using T = TypeParam;
  const idx m = 10, n = 6, k = std::min(m, n);
  Iseed seed = seed_for(3404);
  Matrix<T> a = random_matrix<T>(m, n, seed);
  Matrix<T> ra = a;
  std::vector<T> rtau(static_cast<std::size_t>(k));
  ASSERT_EQ(lapack::geqrf(m, n, ra.data(), ra.ld(), rtau.data()), 0);
  std::vector<T> tau(static_cast<std::size_t>(k));
  Server srv;
  const JobResult r = srv.geqrf(m, n, a.data(), a.ld(), tau.data()).get();
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(max_diff(ra, a), real_t<T>(0));
  for (std::size_t i = 0; i < tau.size(); ++i) {
    EXPECT_EQ(tau[i], rtau[i]) << "tau element " << i;
  }
}

// min(m, n) past geqrf's tile edge, max(m, n) below BatchGrain: the
// direct drivers run the tile DAG while the entry is still coalesced.
constexpr std::array<std::array<idx, 2>, 2> kTileGapShapes{
    {{136, 129}, {207, 200}}};

TYPED_TEST(ServeTest, GelsBitIdenticalToDirectDriverPastTileEdge) {
  using T = TypeParam;
  const idx nrhs = 2;
  Iseed seed = seed_for(3313);
  Server srv;
  for (const auto& [m, n] : kTileGapShapes) {
    Matrix<T> a = random_matrix<T>(m, n, seed);
    Matrix<T> b = random_matrix<T>(m, nrhs, seed);
    Matrix<T> ra = a, rb = b;
    ASSERT_EQ(lapack::gels(Trans::NoTrans, m, n, nrhs, ra.data(), ra.ld(),
                           rb.data(), rb.ld()),
              0);
    const JobResult r = srv.gels(Trans::NoTrans, m, n, nrhs, a.data(),
                                 a.ld(), b.data(), b.ld())
                            .get();
    EXPECT_EQ(r.info, 0);
    EXPECT_EQ(max_diff(ra, a), real_t<T>(0)) << m << " x " << n;
    EXPECT_EQ(max_diff(rb, b), real_t<T>(0)) << m << " x " << n;
  }
}

TYPED_TEST(ServeTest, GeqrfBitIdenticalToDirectDriverPastTileEdge) {
  using T = TypeParam;
  Iseed seed = seed_for(3414);
  Server srv;
  for (const auto& [m, n] : kTileGapShapes) {
    Matrix<T> a = random_matrix<T>(m, n, seed);
    Matrix<T> ra = a;
    std::vector<T> rtau(static_cast<std::size_t>(std::min(m, n)));
    ASSERT_EQ(lapack::geqrf(m, n, ra.data(), ra.ld(), rtau.data()), 0);
    std::vector<T> tau(rtau.size());
    const JobResult r = srv.geqrf(m, n, a.data(), a.ld(), tau.data()).get();
    EXPECT_EQ(r.info, 0);
    EXPECT_EQ(max_diff(ra, a), real_t<T>(0)) << m << " x " << n;
    EXPECT_TRUE(tau == rtau) << m << " x " << n;
  }
}

TYPED_TEST(ServeTest, BatchSubmissionMatchesDirectLoop) {
  using T = TypeParam;
  const idx count = 12, n = 6, nrhs = 2;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(count, n, nrhs, 3505, as, bs);
  std::vector<Matrix<T>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(lapack::gesv(n, nrhs, ra[i].data(), ra[i].ld(), piv.data(),
                           rb[i].data(), rb[i].ld()),
              0);
  }
  std::vector<T*> pa, pb;
  std::vector<idx> da, db;
  std::vector<idx> infos(static_cast<std::size_t>(count), idx{-1});
  Server srv;
  const JobResult r =
      srv.gesv(make_batch(as, pa, da), make_batch(bs, pb, db), infos.data())
          .get();
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(r.entries, count);
  for (idx v : infos) {
    EXPECT_EQ(v, 0);
  }
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

TYPED_TEST(ServeTest, LargeEntrySkipsCoalescingAndStaysIdentical) {
  using T = TypeParam;
  // Grain 4 classifies the n=8 solve as large (solo flush) and the n=2
  // solve as small (coalesced).
  const idx prev = set_env_override(EnvSpec::BatchGrain, EnvRoutine::gemm, 4);
  const idx nrhs = 2;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(1, 2, nrhs, 3607, as, bs);
  build_gesv_problems<T>(1, 8, nrhs, 3606, as, bs);
  std::vector<Matrix<T>> ra = as, rb = bs;
  for (std::size_t i = 0; i < as.size(); ++i) {
    const idx n = as[i].rows();
    std::vector<idx> piv(n);
    ASSERT_EQ(lapack::gesv(n, nrhs, ra[i].data(), ra[i].ld(), piv.data(),
                           rb[i].data(), rb[i].ld()),
              0);
  }
  {
    Server srv(serve::Config{.queue_depth = 0, .batch_max = 0});
    std::vector<std::future<JobResult>> futs;
    serve::Stats before;
    {
      // Both solves queue behind the gate and reach the dispatcher in one
      // wake, same routine and dtype: only the grain rule keeps the large
      // one out of the small one's group.
      Gate gate(srv);
      before = srv.stats();
      for (std::size_t i = 0; i < as.size(); ++i) {
        futs.push_back(srv.gesv(as[i].rows(), nrhs, as[i].data(), as[i].ld(),
                                bs[i].data(), bs[i].ld()));
      }
    }
    for (auto& f : futs) {
      const JobResult r = f.get();
      EXPECT_EQ(r.info, 0);
      EXPECT_EQ(r.batches, 1);
    }
    const serve::Stats s = srv.stats();
    EXPECT_EQ(s.batches - before.batches, 2u);
    EXPECT_EQ(s.flush_full - before.flush_full, 1u);  // the large one, solo
    EXPECT_EQ(s.coalesced_entries - before.coalesced_entries, 0u);
  }
  set_env_override(EnvSpec::BatchGrain, EnvRoutine::gemm, prev);
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

// ---------------------------------------------------------------------------
// INFO aggregation

TYPED_TEST(ServeTest, SingularEntryAggregatesFirstFailure) {
  using T = TypeParam;
  const idx count = 5, n = 5;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(count, n, 1, 3707, as, bs);
  lapack::laset(lapack::Part::All, n, n, T(0), T(0), as[2].data(),
                as[2].ld());
  std::vector<T*> pa, pb;
  std::vector<idx> da, db;
  std::vector<idx> infos(static_cast<std::size_t>(count), idx{0});
  Server srv;
  const JobResult r =
      srv.gesv(make_batch(as, pa, da), make_batch(bs, pb, db), infos.data())
          .get();
  EXPECT_EQ(r.info, 3);  // 1-based index of the singular entry
  EXPECT_GT(infos[2], 0);
  EXPECT_EQ(infos[0], 0);
  EXPECT_EQ(infos[4], 0);
  EXPECT_EQ(srv.stats().failed_entries, 1u);
}

TYPED_TEST(ServeTest, AllocInjectionPropagatesMinus100) {
  using T = TypeParam;
  with_threads(1, [&] {  // serial scheduling: entry 0 consumes the injection
    const idx count = 3, n = 6;
    std::vector<Matrix<T>> as, bs;
    build_gesv_problems<T>(count, n, 1, 3808, as, bs);
    inject_alloc_failures(1);
    std::vector<T*> pa, pb;
    std::vector<idx> da, db;
    std::vector<idx> infos(static_cast<std::size_t>(count), idx{0});
    Server srv;
    const JobResult r =
        srv.gesv(make_batch(as, pa, da), make_batch(bs, pb, db), infos.data())
            .get();
    inject_alloc_failures(0);
    EXPECT_EQ(r.info, 1);
    EXPECT_EQ(infos[0], -100);
    EXPECT_EQ(infos[1], 0);
    EXPECT_EQ(infos[2], 0);
  });
}

// ---------------------------------------------------------------------------
// admission control and flush policy

TEST(ServeAdmissionTest, FullQueueRejectsWithInfoRejected) {
  const idx n = 5;
  Server srv(serve::Config{.queue_depth = 5, .batch_max = 64});
  ASSERT_EQ(srv.config().queue_depth, 5);
  // The gate holds one slot and the dispatcher, so the four jobs behind it
  // stay admitted and unserved: admission state is deterministic.
  Gate gate(srv);
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(5, n, 1, 3909, as, bs);
  std::vector<Matrix<double>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(lapack::gesv(n, idx{1}, ra[i].data(), ra[i].ld(), piv.data(),
                           rb[i].data(), rb[i].ld()),
              0);
  }
  std::vector<std::future<JobResult>> futs;
  for (std::size_t i = 0; i < 4; ++i) {
    futs.push_back(
        srv.gesv(n, idx{1}, as[i].data(), as[i].ld(), bs[i].data(),
                 bs[i].ld()));
  }
  // The fifth submission exceeds the in-flight bound: immediate rejection,
  // operands untouched.
  Matrix<double> a4 = as[4], b4 = bs[4];
  const JobResult rej =
      srv.gesv(n, idx{1}, a4.data(), a4.ld(), b4.data(), b4.ld()).get();
  EXPECT_EQ(rej.info, kInfoRejected);
  EXPECT_EQ(max_diff(a4, as[4]), 0.0);
  EXPECT_EQ(srv.stats().rejected_jobs, 1u);
  gate.open();
  srv.shutdown();  // drains the four queued behind the gate
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(futs[i].get().info, 0) << "job " << i;
    EXPECT_EQ(max_diff(ra[i], as[i]), 0.0) << "job " << i;
    EXPECT_EQ(max_diff(rb[i], bs[i]), 0.0) << "job " << i;
  }
  const serve::Stats s = srv.stats();
  EXPECT_EQ(s.completed_jobs, 5u);  // the gate and the four
  EXPECT_EQ(s.flush_deadline, 2u);  // the gate's flush, then the four's
}

TEST(ServeAdmissionTest, ShutdownRejectsNewSubmissions) {
  Server srv;
  srv.shutdown();
  Matrix<double> a(4, 4), b(4, 1);
  for (idx d = 0; d < 4; ++d) {
    a(d, d) = 1.0;
  }
  const JobResult r =
      srv.gesv(idx{4}, idx{1}, a.data(), a.ld(), b.data(), b.ld()).get();
  EXPECT_EQ(r.info, kInfoRejected);
}

TEST(ServeAdmissionTest, ShutdownConcurrentWithSubmitsNeverStrandsJobs) {
  // Regression: a submission that cleared global admission while
  // shutdown() was setting the dispatcher's stopping flag used to push its
  // units onto a queue whose dispatcher was already joined — the future
  // never resolved and in_flight never drained, hanging wait_idle().
  // Hammer that window from several threads: every future must resolve,
  // as a served result or a rejection, and wait_idle() must return.
  const idx n = 4;
  constexpr int kRounds = 32;
  constexpr int kThreads = 4;
  constexpr idx kJobs = 8;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(kThreads * kJobs, n, 1, 4242, as, bs);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Matrix<double>> wa = as, wb = bs;
    Server srv;
    std::vector<std::vector<std::future<JobResult>>> futs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (idx j = 0; j < kJobs; ++j) {
          const auto i = static_cast<std::size_t>(t) *
                             static_cast<std::size_t>(kJobs) +
                         static_cast<std::size_t>(j);
          futs[static_cast<std::size_t>(t)].push_back(
              srv.gesv(n, idx{1}, wa[i].data(), wa[i].ld(), wb[i].data(),
                       wb[i].ld()));
        }
      });
    }
    // Shut down only once submissions are actually flowing, so the rug is
    // pulled while submitters sit between admission and enqueue — on a
    // single core an immediate shutdown() would finish before any
    // submitter thread ever ran and the window would never open.
    while (srv.stats().submitted_jobs == 0) {
      std::this_thread::yield();
    }
    srv.shutdown();  // races the submitters: the window under test
    for (auto& th : threads) {
      th.join();
    }
    for (const auto& tf : futs) {
      for (const auto& f : tf) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "stranded job in round " << round;
      }
    }
    for (auto& tf : futs) {
      for (auto& f : tf) {
        const JobResult r = f.get();
        EXPECT_TRUE(r.info == 0 || r.info == kInfoRejected) << r.info;
      }
    }
    srv.wait_idle();  // must not hang: every admitted slot was released
  }
}

// ---------------------------------------------------------------------------
// multi-job admission (Server::submit_many)

TEST(ServeAdmissionTest, BatchCrossingQueueDepthRejectsOnlyTheJobsPastIt) {
  const idx n = 5;
  constexpr std::size_t kJobs = 8, kDepth = 5;
  // The gate takes one slot and holds the dispatcher, so kDepth slots are
  // left and the admission state after the call is exactly what the batch
  // did to it.
  Server srv(serve::Config{.queue_depth = kDepth + 1, .batch_max = 64});
  Gate gate(srv);
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(kJobs, n, 1, 5101, as, bs);
  const std::vector<Matrix<double>> a0 = as, b0 = bs;
  std::vector<Matrix<double>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_EQ(lapack::gesv(n, idx{1}, ra[i].data(), ra[i].ld(), piv.data(),
                           rb[i].data(), rb[i].ld()),
              0);
  }
  std::vector<serve::detail::Unit> units;
  for (std::size_t i = 0; i < kJobs; ++i) {
    units.push_back(gesv_unit(as[i], bs[i]));
  }
  std::vector<Seen> seen(kJobs);
  std::vector<std::future<JobResult>> futs(kJobs);
  std::vector<serve::Submission> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    // Half the jobs also take a future: both completion routes at once.
    jobs.push_back({&units[i], 1, &Seen::on_done, &seen[i],
                    i % 2 == 0 ? &futs[i] : nullptr});
  }
  srv.submit_many(jobs);
  // The jobs past the bound are rejected before the call returns, once
  // each, with their operands untouched.
  for (std::size_t i = kDepth; i < kJobs; ++i) {
    EXPECT_EQ(seen[i].count(), 1) << "job " << i;
    EXPECT_EQ(seen[i].r.info, kInfoRejected) << "job " << i;
    EXPECT_EQ(seen[i].r.entries, 1) << "job " << i;
    EXPECT_EQ(max_diff(a0[i], as[i]), 0.0) << "job " << i;
    EXPECT_EQ(max_diff(b0[i], bs[i]), 0.0) << "job " << i;
  }
  EXPECT_EQ(srv.stats().rejected_jobs, kJobs - kDepth);
  gate.open();
  srv.shutdown();  // drains the admitted ones
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(seen[i].count(), 1) << "job " << i;
    if (futs[i].valid()) {
      EXPECT_EQ(futs[i].get().info, seen[i].r.info) << "job " << i;
    }
  }
  for (std::size_t i = 0; i < kDepth; ++i) {
    EXPECT_EQ(seen[i].r.info, 0) << "job " << i;
    EXPECT_EQ(max_diff(ra[i], as[i]), 0.0) << "job " << i;
    EXPECT_EQ(max_diff(rb[i], bs[i]), 0.0) << "job " << i;
  }
  const serve::Stats s = srv.stats();
  EXPECT_EQ(s.submitted_jobs, kJobs + 1);  // the gate's job too
  EXPECT_EQ(s.completed_jobs, kDepth + 1);
}

TEST(ServeAdmissionTest, ZeroEntryJobInsideBatchCompletesWithInfoZero) {
  const idx n = 4;
  Server srv;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(2, n, 1, 5202, as, bs);
  std::vector<Matrix<double>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(lapack::gesv(n, idx{1}, ra[i].data(), ra[i].ld(), piv.data(),
                           rb[i].data(), rb[i].ld()),
              0);
  }
  serve::detail::Unit u0 = gesv_unit(as[0], bs[0]);
  serve::detail::Unit u1 = gesv_unit(as[1], bs[1]);
  std::vector<Seen> seen(3);
  std::future<JobResult> empty_fut;
  std::vector<serve::Submission> jobs = {
      {&u0, 1, &Seen::on_done, &seen[0], nullptr},
      {nullptr, 0, &Seen::on_done, &seen[1], &empty_fut},
      {&u1, 1, &Seen::on_done, &seen[2], nullptr}};
  srv.submit_many(jobs);
  // The empty job completes on the submitting thread.
  EXPECT_EQ(seen[1].count(), 1);
  EXPECT_EQ(seen[1].r.info, 0);
  EXPECT_EQ(seen[1].r.entries, 0);
  ASSERT_TRUE(empty_fut.valid());
  EXPECT_EQ(empty_fut.get().info, 0);
  srv.wait_idle();
  for (std::size_t i = 0; i < 2; ++i) {
    const Seen& s = seen[i == 0 ? 0 : 2];
    EXPECT_EQ(s.count(), 1) << "job " << i;
    EXPECT_EQ(s.r.info, 0) << "job " << i;
    EXPECT_EQ(max_diff(ra[i], as[i]), 0.0) << "job " << i;
    EXPECT_EQ(max_diff(rb[i], bs[i]), 0.0) << "job " << i;
  }
  EXPECT_EQ(seen[1].count(), 1);
  const serve::Stats st = srv.stats();
  EXPECT_EQ(st.submitted_jobs, 3u);
  EXPECT_EQ(st.completed_jobs, 3u);
}

TEST(ServeAdmissionTest, BatchesRacingShutdownCompleteEveryJobOnce) {
  // Several threads admit whole batches while shutdown() runs: each job
  // is served or rejected, its hook fires exactly once, a served job is
  // bit-identical to the direct driver, and wait_idle() returns.
  const idx n = 4;
  constexpr int kRounds = 32;
  constexpr std::size_t kThreads = 4, kBatches = 4, kPerBatch = 8;
  constexpr std::size_t kJobs = kThreads * kBatches * kPerBatch;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(kJobs, n, 1, 5303, as, bs);
  std::vector<Matrix<double>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_EQ(lapack::gesv(n, idx{1}, ra[i].data(), ra[i].ld(), piv.data(),
                           rb[i].data(), rb[i].ld()),
              0);
  }
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Matrix<double>> wa = as, wb = bs;
    std::vector<Seen> seen(kJobs);
    Server srv;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t b = 0; b < kBatches; ++b) {
          std::vector<serve::detail::Unit> units;
          std::vector<serve::Submission> jobs;
          const std::size_t first = (t * kBatches + b) * kPerBatch;
          for (std::size_t j = 0; j < kPerBatch; ++j) {
            units.push_back(gesv_unit(wa[first + j], wb[first + j]));
          }
          for (std::size_t j = 0; j < kPerBatch; ++j) {
            jobs.push_back(
                {&units[j], 1, &Seen::on_done, &seen[first + j], nullptr});
          }
          srv.submit_many(jobs);
        }
      });
    }
    while (srv.stats().submitted_jobs == 0) {
      std::this_thread::yield();
    }
    srv.shutdown();  // races the batches still being admitted
    for (auto& th : threads) {
      th.join();
    }
    srv.wait_idle();
    idx served = 0;
    for (std::size_t i = 0; i < kJobs; ++i) {
      ASSERT_EQ(seen[i].count(), 1) << "job " << i << " round " << round;
      const idx info = seen[i].r.info;
      ASSERT_TRUE(info == 0 || info == kInfoRejected) << info;
      if (info == 0) {
        ++served;
        EXPECT_EQ(max_diff(ra[i], wa[i]), 0.0) << "job " << i;
        EXPECT_EQ(max_diff(rb[i], wb[i]), 0.0) << "job " << i;
      }
    }
    const serve::Stats s = srv.stats();
    EXPECT_EQ(s.submitted_jobs, kJobs);
    EXPECT_EQ(s.completed_jobs, static_cast<std::uint64_t>(served));
    EXPECT_EQ(s.rejected_jobs, kJobs - static_cast<std::uint64_t>(served));
  }
}

TEST(ServeFlushTest, PartialGroupsFlushWhenTheQueueRunsDry) {
  // Three jobs far below the batch width: nothing will ever fill their
  // group, so each completes in a partial flush once the dispatcher has
  // emptied its queue.
  const idx n = 6;
  Server srv(serve::Config{.queue_depth = 0, .batch_max = 1024});
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(3, n, 1, 4010, as, bs);
  std::vector<std::future<JobResult>> futs;
  for (std::size_t i = 0; i < 3; ++i) {
    futs.push_back(srv.gesv(n, idx{1}, as[i].data(), as[i].ld(),
                            bs[i].data(), bs[i].ld()));
  }
  for (auto& f : futs) {
    const JobResult r = f.get();  // nothing else triggers a flush
    EXPECT_EQ(r.info, 0);
    EXPECT_GE(r.batches, 1);
    EXPECT_GE(r.total_us, 0.0);
    EXPECT_GE(r.total_us, r.exec_us);
  }
  const serve::Stats s = srv.stats();
  EXPECT_EQ(s.completed_jobs, 3u);
  EXPECT_GE(s.flush_deadline, 1u);
  EXPECT_EQ(s.flush_full, 0u);
}

TEST(ServeFlushTest, JobsQueuedBehindAFlushShareTheNextFlush) {
  // While the gate's flush runs, k single-entry jobs queue up behind it.
  // When it ends, the dispatcher takes them in one wake and serves them as
  // one coalesced batch call, bit-identical to the direct driver.
  constexpr std::size_t kJobs = 6;
  const idx n = 5;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(kJobs, n, 1, 4060, as, bs);
  std::vector<Matrix<double>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_EQ(lapack::gesv(n, idx{1}, ra[i].data(), ra[i].ld(), piv.data(),
                           rb[i].data(), rb[i].ld()),
              0);
  }
  Server srv(serve::Config{.queue_depth = 0, .batch_max = 64});
  std::vector<std::future<JobResult>> futs;
  serve::Stats before;
  {
    Gate gate(srv);
    before = srv.stats();
    for (std::size_t i = 0; i < kJobs; ++i) {
      futs.push_back(srv.gesv(n, idx{1}, as[i].data(), as[i].ld(),
                              bs[i].data(), bs[i].ld()));
    }
  }
  for (auto& f : futs) {
    const JobResult r = f.get();
    EXPECT_EQ(r.info, 0);
    EXPECT_EQ(r.batches, 1);
  }
  const serve::Stats s = srv.stats();
  EXPECT_EQ(s.batches - before.batches, 1u);
  EXPECT_EQ(s.coalesced_entries - before.coalesced_entries, kJobs);
  EXPECT_EQ(s.flush_deadline - before.flush_deadline, 1u);  // partial
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

TEST(ServeFlushTest, WidthFlushCoalescesIntoFullBatches) {
  const idx count = 8, n = 6;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(count, n, 1, 4111, as, bs);
  std::vector<Matrix<double>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(lapack::gesv(n, idx{1}, ra[i].data(), ra[i].ld(), piv.data(),
                           rb[i].data(), rb[i].ld()),
              0);
  }
  Server srv(serve::Config{.queue_depth = 0, .batch_max = 4});
  std::vector<double*> pa, pb;
  std::vector<idx> da, db;
  const JobResult r =
      srv.gesv(make_batch(as, pa, da), make_batch(bs, pb, db)).get();
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(r.entries, count);
  EXPECT_EQ(r.batches, 2);  // 8 units through width-4 flushes
  const serve::Stats s = srv.stats();
  EXPECT_EQ(s.flush_full, 2u);
  EXPECT_EQ(s.coalesced_entries, 8u);
  EXPECT_EQ(s.mean_batch_entries(), 4.0);
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

TEST(ServeFlushTest, ZeroEntryBatchCompletesImmediately) {
  Server srv;
  const auto empty =
      batch::MatrixBatch<double>::ragged(nullptr, nullptr, nullptr, nullptr,
                                         0);
  const JobResult r = srv.gesv(empty, empty).get();
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(r.entries, 0);
}

// ---------------------------------------------------------------------------
// configuration resolution

TEST(ServeConfigTest, ExplicitConfigBeatsEnvironment) {
  const idx prev =
      set_env_override(EnvSpec::ServeQueueDepth, EnvRoutine::gemm, 99);
  {
    Server env_srv;
    EXPECT_EQ(env_srv.config().queue_depth, 99);
    Server cfg_srv(serve::Config{.queue_depth = 7, .batch_max = 0});
    EXPECT_EQ(cfg_srv.config().queue_depth, 7);
    // Unset fields still resolve through ilaenv.
    EXPECT_EQ(cfg_srv.config().batch_max,
              ilaenv(EnvSpec::ServeBatchMax, EnvRoutine::gemm, 0));
  }
  set_env_override(EnvSpec::ServeQueueDepth, EnvRoutine::gemm, prev);
}

// ---------------------------------------------------------------------------
// concurrency: many submitters against one dispatcher

TEST(ServeConcurrencyTest, ConcurrentSubmittersAllServedIdentically) {
  const idx kThreads = 8, kJobs = 24, n = 6;
  std::vector<std::vector<Matrix<double>>> as(kThreads), bs(kThreads),
      ra(kThreads), rb(kThreads);
  std::vector<idx> piv(n);
  for (idx t = 0; t < kThreads; ++t) {
    build_gesv_problems<double>(kJobs, n, 1, 5000 + static_cast<int>(t),
                                as[static_cast<std::size_t>(t)],
                                bs[static_cast<std::size_t>(t)]);
    ra[static_cast<std::size_t>(t)] = as[static_cast<std::size_t>(t)];
    rb[static_cast<std::size_t>(t)] = bs[static_cast<std::size_t>(t)];
    for (idx j = 0; j < kJobs; ++j) {
      auto& a = ra[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)];
      auto& b = rb[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)];
      ASSERT_EQ(lapack::gesv(n, idx{1}, a.data(), a.ld(), piv.data(),
                             b.data(), b.ld()),
                0);
    }
  }
  Server srv;
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  for (idx t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::future<JobResult>> futs;
      for (idx j = 0; j < kJobs; ++j) {
        auto& a = as[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)];
        auto& b = bs[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)];
        futs.push_back(
            srv.gesv(n, idx{1}, a.data(), a.ld(), b.data(), b.ld()));
      }
      for (auto& f : futs) {
        if (f.get().info != 0) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(bad.load(), 0);
  for (idx t = 0; t < kThreads; ++t) {
    expect_identical(ra[static_cast<std::size_t>(t)],
                     as[static_cast<std::size_t>(t)]);
    expect_identical(rb[static_cast<std::size_t>(t)],
                     bs[static_cast<std::size_t>(t)]);
  }
  const serve::Stats s = srv.stats();
  EXPECT_EQ(s.submitted_jobs, static_cast<std::uint64_t>(kThreads * kJobs));
  EXPECT_EQ(s.completed_jobs, static_cast<std::uint64_t>(kThreads * kJobs));
  EXPECT_EQ(s.rejected_jobs, 0u);
  EXPECT_EQ(s.failed_entries, 0u);
  std::uint64_t hist_total = 0;
  for (const auto c : s.latency_hist) {
    hist_total += c;
  }
  EXPECT_EQ(hist_total, static_cast<std::uint64_t>(kThreads * kJobs));
}

TEST(ServeConcurrencyTest, ConcurrentSubmittersMatchDirectGesv) {
  const idx kThreads = 4, kJobs = 12, n = 5;
  Server srv(serve::Config{.queue_depth = 0, .batch_max = 0});
  std::vector<std::vector<Matrix<double>>> as(kThreads), bs(kThreads);
  std::vector<std::vector<Matrix<double>>> ra(kThreads), rb(kThreads);
  for (idx t = 0; t < kThreads; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    build_gesv_problems<double>(kJobs, n, 1, 4515 + static_cast<int>(t),
                                as[ut], bs[ut]);
    ra[ut] = as[ut];
    rb[ut] = bs[ut];
    std::vector<idx> piv(n);
    for (idx j = 0; j < kJobs; ++j) {
      const auto uj = static_cast<std::size_t>(j);
      ASSERT_EQ(lapack::gesv(n, idx{1}, ra[ut][uj].data(), ra[ut][uj].ld(),
                             piv.data(), rb[ut][uj].data(), rb[ut][uj].ld()),
                0);
    }
  }
  std::vector<std::thread> threads;
  for (idx t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ut = static_cast<std::size_t>(t);
      for (idx j = 0; j < kJobs; ++j) {
        const auto uj = static_cast<std::size_t>(j);
        EXPECT_EQ(srv.gesv(n, idx{1}, as[ut][uj].data(), as[ut][uj].ld(),
                           bs[ut][uj].data(), bs[ut][uj].ld())
                      .get()
                      .info,
                  0);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (idx t = 0; t < kThreads; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    expect_identical(ra[ut], as[ut]);
    expect_identical(rb[ut], bs[ut]);
  }
}

// ---------------------------------------------------------------------------
// wait_idle and the process-wide statistics view

TEST(ServeStatsTest, WaitIdleDrainsAndProcessStatsMerge) {
  serve::reset_stats();
  const idx n = 5;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(5, n, 1, 4212, as, bs);
  std::vector<std::future<JobResult>> futs;
  {
    Server srv;
    for (std::size_t i = 0; i < as.size(); ++i) {
      futs.push_back(srv.gesv(n, idx{1}, as[i].data(), as[i].ld(),
                              bs[i].data(), bs[i].ld()));
    }
    srv.wait_idle();
    for (auto& f : futs) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_EQ(f.get().info, 0);
    }
    EXPECT_EQ(srv.stats().completed_jobs, 5u);
    EXPECT_GT(srv.stats().p99_us(), 0.0);
    EXPECT_GE(srv.stats().p99_us(), srv.stats().p50_us());
  }
  // The server is gone; its totals moved to the retired accumulator.
  const serve::Stats s = serve::stats();
  EXPECT_EQ(s.completed_jobs, 5u);
  EXPECT_EQ(s.completed_entries, 5u);
  serve::reset_stats();
  EXPECT_EQ(serve::stats().completed_jobs, 0u);
}

// ---------------------------------------------------------------------------
// mixed-precision jobs through the serving pipeline

TEST(ServeMixedTest, MixedGesvMatchesBatchExecutorWithIter) {
  const idx n = 24, nrhs = 2;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(1, n, nrhs, 4616, as, bs);
  Matrix<double> ra = as[0], rb = bs[0];
  double* pa = ra.data();
  double* pb = rb.data();
  idx adims[4] = {n, n, n, nrhs};
  idx lds[2] = {ra.ld(), rb.ld()};
  const auto ab = batch::MatrixBatch<double>::ragged(&pa, &adims[0],
                                                     &adims[1], &lds[0], 1);
  const auto bb = batch::MatrixBatch<double>::ragged(&pb, &adims[2],
                                                     &adims[3], &lds[1], 1);
  idx ref_iter = -99, ref_info = -99;
  batch::mixed_gesv_batch(ab, bb, &ref_iter, &ref_info);
  ASSERT_EQ(ref_info, 0);

  Server srv;
  const JobResult r = srv.mixed_gesv(n, nrhs, as[0].data(), as[0].ld(),
                                     bs[0].data(), bs[0].ld())
                          .get();
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(r.iter, ref_iter);
  EXPECT_EQ(max_diff(ra, as[0]), 0.0);
  EXPECT_EQ(max_diff(rb, bs[0]), 0.0);
}

TEST(ServeMixedTest, MixedGesvBatchReportsPerEntryIter) {
  const idx count = 6, n = 24, nrhs = 1;
  std::vector<Matrix<double>> as, bs, ra, rb;
  build_gesv_problems<double>(count, n, nrhs, 4717, as, bs);
  ra = as;
  rb = bs;
  std::vector<double*> pa, pb;
  std::vector<idx> da, db;
  std::vector<idx> ref_iters(static_cast<std::size_t>(count), idx{-99});
  std::vector<idx> ref_infos(static_cast<std::size_t>(count), idx{-99});
  batch::mixed_gesv_batch(make_batch(ra, pa, da), make_batch(rb, pb, db),
                          ref_iters.data(), ref_infos.data());

  std::vector<double*> qa, qb;
  std::vector<idx> ea, eb;
  std::vector<idx> iters(static_cast<std::size_t>(count), idx{-99});
  std::vector<idx> infos(static_cast<std::size_t>(count), idx{-99});
  Server srv;
  const JobResult r = srv.mixed_gesv(make_batch(as, qa, ea),
                                     make_batch(bs, qb, eb), iters.data(),
                                     infos.data())
                          .get();
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(r.iter, ref_iters[0]);  // entry 0's ITER rides the JobResult
  for (idx i = 0; i < count; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    EXPECT_EQ(infos[ui], ref_infos[ui]) << "entry " << i;
    EXPECT_EQ(iters[ui], ref_iters[ui]) << "entry " << i;
  }
  expect_identical(ra, as);
  expect_identical(rb, bs);
}

}  // namespace
}  // namespace la::test
