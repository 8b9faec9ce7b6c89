// la::net loopback integration: a TCP-served result must be bit-identical
// to the corresponding direct la::lapack driver call (the wire moves
// bytes, never arithmetic), results stream back out-of-order across
// interleaved clients, the per-connection admission cap rejects at the
// wire with serve::kInfoRejected, version-mismatched peers are turned
// away at the handshake, malformed frames drop the connection, and an
// abrupt client disconnect mid-flight leaks neither jobs nor sockets
// (the ASan smoke run keeps that honest).
//
// The NetFaults suite drives the listener's event loop with hostile raw
// peers: the handshake and a Submit frame split at every byte, a reset
// mid-frame, a peer that never reads its results (backpressure), and
// connect/disconnect churn. The listener serves every connection from one
// thread, so the process's thread count must not move with the number of
// connections.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "test_utils.hpp"

namespace la::test {
namespace {

using net::Client;
using net::Listener;
using net::ListenerConfig;
using serve::JobResult;
namespace wire = net::wire;

template <Scalar T>
batch::MatrixBatch<T> make_batch(std::vector<Matrix<T>>& ms,
                                 std::vector<T*>& ptrs,
                                 std::vector<idx>& dims) {
  return f90::detail::make_batch<T>(std::span<Matrix<T>>(ms), ptrs, dims);
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

/// Listener + connected client on an ephemeral loopback port.
struct Loop {
  Listener listener;
  Client client;
  explicit Loop(const ListenerConfig& cfg = {}) : listener(cfg) {
    EXPECT_TRUE(listener.ok());
    EXPECT_TRUE(client.connect("127.0.0.1", listener.port()));
  }
};

template <class T>
class NetLoopbackTest : public ::testing::Test {};
TYPED_TEST_SUITE(NetLoopbackTest, AllTypes);

// ---------------------------------------------------------------------------
// TCP == direct driver, all four routine families

TYPED_TEST(NetLoopbackTest, GesvBitIdenticalToDirectDriver) {
  using T = TypeParam;
  const idx n = 8, nrhs = 3;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(1, n, nrhs, 9101, as, bs);
  Matrix<T> ra = as[0], rb = bs[0];
  std::vector<idx> piv(n);
  ASSERT_EQ(lapack::gesv(n, nrhs, ra.data(), ra.ld(), piv.data(), rb.data(),
                         rb.ld()),
            0);
  Loop lo;
  const JobResult r = lo.client.gesv(n, nrhs, as[0].data(), as[0].ld(),
                                     bs[0].data(), bs[0].ld());
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(r.entries, 1);
  EXPECT_EQ(max_diff(ra, as[0]), real_t<T>(0));
  EXPECT_EQ(max_diff(rb, bs[0]), real_t<T>(0));
}

TYPED_TEST(NetLoopbackTest, PosvBitIdenticalToDirectDriver) {
  using T = TypeParam;
  const idx n = 10, nrhs = 2;
  Iseed seed = seed_for(9202);
  Matrix<T> a = random_spd<T>(n, seed);
  Matrix<T> b = random_matrix<T>(n, nrhs, seed);
  Matrix<T> ra = a, rb = b;
  ASSERT_EQ(lapack::posv(Uplo::Upper, n, nrhs, ra.data(), ra.ld(), rb.data(),
                         rb.ld()),
            0);
  Loop lo;
  const JobResult r = lo.client.posv(Uplo::Upper, n, nrhs, a.data(), a.ld(),
                                     b.data(), b.ld());
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(max_diff(ra, a), real_t<T>(0));
  EXPECT_EQ(max_diff(rb, b), real_t<T>(0));
}

TYPED_TEST(NetLoopbackTest, GelsBitIdenticalToDirectDriver) {
  using T = TypeParam;
  const idx m = 9, n = 5, nrhs = 2;
  Iseed seed = seed_for(9303);
  Matrix<T> a = random_matrix<T>(m, n, seed);
  Matrix<T> b = random_matrix<T>(m, nrhs, seed);
  Matrix<T> ra = a, rb = b;
  ASSERT_EQ(lapack::gels(Trans::NoTrans, m, n, nrhs, ra.data(), ra.ld(),
                         rb.data(), rb.ld()),
            0);
  Loop lo;
  const JobResult r = lo.client.gels(Trans::NoTrans, m, n, nrhs, a.data(),
                                     a.ld(), b.data(), b.ld());
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(max_diff(ra, a), real_t<T>(0));
  EXPECT_EQ(max_diff(rb, b), real_t<T>(0));
}

TYPED_TEST(NetLoopbackTest, GeqrfBitIdenticalToDirectDriver) {
  using T = TypeParam;
  const idx m = 10, n = 6, k = std::min(m, n);
  Iseed seed = seed_for(9404);
  Matrix<T> a = random_matrix<T>(m, n, seed);
  Matrix<T> ra = a;
  std::vector<T> rtau(static_cast<std::size_t>(k));
  ASSERT_EQ(lapack::geqrf(m, n, ra.data(), ra.ld(), rtau.data()), 0);
  std::vector<T> tau(static_cast<std::size_t>(k));
  Loop lo;
  const JobResult r = lo.client.geqrf(m, n, a.data(), a.ld(), tau.data());
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(max_diff(ra, a), real_t<T>(0));
  for (std::size_t i = 0; i < tau.size(); ++i) {
    EXPECT_EQ(tau[i], rtau[i]) << "tau element " << i;
  }
}

TYPED_TEST(NetLoopbackTest, WantBLeavesClientFactorsUntouched) {
  using T = TypeParam;
  const idx n = 6, nrhs = 1;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(1, n, nrhs, 9505, as, bs);
  Matrix<T> ra = as[0], rb = bs[0];
  std::vector<idx> piv(n);
  ASSERT_EQ(lapack::gesv(n, nrhs, ra.data(), ra.ld(), piv.data(), rb.data(),
                         rb.ld()),
            0);
  const Matrix<T> a_orig = as[0];
  Loop lo;
  const auto t = lo.client.gesv_async(n, nrhs, as[0].data(), as[0].ld(),
                                      bs[0].data(), bs[0].ld(), wire::kWantB);
  const JobResult r = lo.client.wait(t);
  EXPECT_EQ(r.info, 0);
  // Solution shipped back, factors left server-side: A is as submitted.
  EXPECT_EQ(max_diff(rb, bs[0]), real_t<T>(0));
  EXPECT_EQ(max_diff(a_orig, as[0]), real_t<T>(0));
}

// ---------------------------------------------------------------------------
// batch jobs, per-entry INFO over the wire

TYPED_TEST(NetLoopbackTest, BatchSubmissionMatchesDirectLoop) {
  using T = TypeParam;
  const idx count = 10, n = 6, nrhs = 2;
  std::vector<Matrix<T>> as, bs;
  build_gesv_problems<T>(count, n, nrhs, 9606, as, bs);
  std::vector<Matrix<T>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(lapack::gesv(n, nrhs, ra[i].data(), ra[i].ld(), piv.data(),
                           rb[i].data(), rb[i].ld()),
              0);
  }
  std::vector<T*> pa, pb;
  std::vector<idx> da, db;
  std::vector<idx> infos(static_cast<std::size_t>(count), idx{-7});
  Loop lo;
  const auto t = lo.client.submit_batch_async(
      serve::Routine::gesv, Uplo::Lower, Trans::NoTrans,
      make_batch(as, pa, da), make_batch(bs, pb, db), infos.data());
  const JobResult r = lo.client.wait(t);
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(r.entries, count);
  for (idx v : infos) {
    EXPECT_EQ(v, 0);
  }
  for (std::size_t i = 0; i < as.size(); ++i) {
    EXPECT_EQ(max_diff(ra[i], as[i]), real_t<T>(0)) << "entry " << i;
    EXPECT_EQ(max_diff(rb[i], bs[i]), real_t<T>(0)) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// mixed precision over the wire

TEST(NetLoopback, PipelinedWindowSharesAdmissions) {
  // A client that pipelines a 128-job window sends its Submit frames in
  // one flush; the listener admits every job it decodes in one loop pass
  // with one serve call, so there are fewer admissions than frames.
  constexpr idx kWindow = 128, kProblems = 8;
  const idx n = 4, nrhs = 1;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(kProblems, n, nrhs, 9131, as, bs);
  std::vector<Matrix<double>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t p = 0; p < ra.size(); ++p) {
    ASSERT_EQ(lapack::gesv(n, nrhs, ra[p].data(), ra[p].ld(), piv.data(),
                           rb[p].data(), rb[p].ld()),
              0);
  }
  std::vector<Matrix<double>> wa, wb;
  for (idx j = 0; j < kWindow; ++j) {
    wa.push_back(as[static_cast<std::size_t>(j % kProblems)]);
    wb.push_back(bs[static_cast<std::size_t>(j % kProblems)]);
  }
  Loop lo;
  std::vector<Client::Ticket> ts;
  for (std::size_t j = 0; j < wa.size(); ++j) {
    ts.push_back(lo.client.gesv_async(n, nrhs, wa[j].data(), wa[j].ld(),
                                      wb[j].data(), wb[j].ld()));
  }
  idx mismatched = 0;
  for (std::size_t j = 0; j < ts.size(); ++j) {
    const auto p = j % static_cast<std::size_t>(kProblems);
    if (lo.client.wait(ts[j]).info != 0 || max_diff(ra[p], wa[j]) != 0.0 ||
        max_diff(rb[p], wb[j]) != 0.0) {
      ++mismatched;
    }
  }
  EXPECT_EQ(mismatched, 0);
  const net::ListenerStats st = lo.listener.stats();
  EXPECT_EQ(st.frames_in, static_cast<std::uint64_t>(kWindow));
  ASSERT_GE(st.admissions, 1u);
  EXPECT_GT(static_cast<double>(st.frames_in) /
                static_cast<double>(st.admissions),
            1.0)
      << st.admissions << " admissions";
  EXPECT_EQ(lo.listener.server().stats().submitted_jobs,
            static_cast<std::uint64_t>(kWindow));
}

TEST(NetMixed, MixedGesvMatchesInProcessServe) {
  const idx n = 24, nrhs = 2;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(1, n, nrhs, 9707, as, bs);
  Matrix<double> a2 = as[0], b2 = bs[0];

  serve::Server direct;
  const JobResult r1 =
      direct
          .mixed_gesv(n, nrhs, as[0].data(), as[0].ld(), bs[0].data(),
                      bs[0].ld())
          .get();
  Loop lo;
  const JobResult r2 =
      lo.client.mixed_gesv(n, nrhs, a2.data(), a2.ld(), b2.data(), b2.ld());
  EXPECT_EQ(r1.info, 0);
  EXPECT_EQ(r2.info, 0);
  EXPECT_EQ(r2.iter, r1.iter);
  EXPECT_EQ(max_diff(as[0], a2), 0.0);
  EXPECT_EQ(max_diff(bs[0], b2), 0.0);
}

TEST(NetMixed, UnsupportedDtypeReportsPerEntryInfo) {
  // mixed_gesv has no lower working precision for float: the typed APIs
  // forbid it at compile time, so drive the type-erased wire path and
  // expect the defensive per-entry kInfoUnsupported.
  const idx count = 3, n = 4;
  std::vector<Matrix<float>> as, bs;
  build_gesv_problems<float>(count, n, 1, 9808, as, bs);
  std::vector<float*> pa, pb;
  std::vector<idx> da, db;
  std::vector<idx> infos(static_cast<std::size_t>(count), idx{0});
  Loop lo;
  const auto t = lo.client.submit_batch_async(
      serve::Routine::mixed_gesv, Uplo::Lower, Trans::NoTrans,
      make_batch(as, pa, da), make_batch(bs, pb, db), infos.data());
  const JobResult r = lo.client.wait(t);
  EXPECT_EQ(r.info, 1);  // first failing entry, batch aggregate rule
  for (idx v : infos) {
    EXPECT_EQ(v, serve::kInfoUnsupported);
  }
}

// ---------------------------------------------------------------------------
// streaming, interleaving, admission

TEST(NetStreaming, InterleavedClientsResolveOutOfOrderWaits) {
  const idx n = 6, nrhs = 1, jobs = 8;
  Listener listener;
  ASSERT_TRUE(listener.ok());
  Client c1, c2;
  ASSERT_TRUE(c1.connect("127.0.0.1", listener.port()));
  ASSERT_TRUE(c2.connect("127.0.0.1", listener.port()));

  std::vector<Matrix<double>> as1, bs1, as2, bs2, ra, rb;
  build_gesv_problems<double>(jobs, n, nrhs, 9909, as1, bs1);
  as2 = as1;
  bs2 = bs1;
  ra = as1;
  rb = bs1;
  std::vector<idx> piv(n);
  for (idx i = 0; i < jobs; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    ASSERT_EQ(lapack::gesv(n, nrhs, ra[ui].data(), ra[ui].ld(), piv.data(),
                           rb[ui].data(), rb[ui].ld()),
              0);
  }
  // Interleave submissions across both connections, then wait in reverse
  // order: the server streams results as they complete, tagged by job id,
  // so wait order is the client's choice.
  std::vector<Client::Ticket> t1, t2;
  for (idx i = 0; i < jobs; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    t1.push_back(c1.gesv_async(n, nrhs, as1[ui].data(), as1[ui].ld(),
                               bs1[ui].data(), bs1[ui].ld()));
    t2.push_back(c2.gesv_async(n, nrhs, as2[ui].data(), as2[ui].ld(),
                               bs2[ui].data(), bs2[ui].ld()));
  }
  c1.flush();
  c2.flush();
  for (idx i = jobs - 1; i >= 0; --i) {
    const auto ui = static_cast<std::size_t>(i);
    EXPECT_EQ(c2.wait(t2[ui]).info, 0);
    EXPECT_EQ(c1.wait(t1[ui]).info, 0);
  }
  for (idx i = 0; i < jobs; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    EXPECT_EQ(max_diff(ra[ui], as1[ui]), 0.0) << "c1 entry " << i;
    EXPECT_EQ(max_diff(rb[ui], bs1[ui]), 0.0) << "c1 entry " << i;
    EXPECT_EQ(max_diff(ra[ui], as2[ui]), 0.0) << "c2 entry " << i;
    EXPECT_EQ(max_diff(rb[ui], bs2[ui]), 0.0) << "c2 entry " << i;
  }
}

TEST(NetAdmission, PerConnectionCapRejectsAtTheWire) {
  // Cap one job in flight per connection and make the first job a large
  // solve (twice BatchGrain, a solo flush): it is still running while the
  // rest of the burst arrives right behind it, so every subsequent job
  // must bounce at the wire without ever reaching the compute server.
  // Kept at 2 MiB a matrix: freeing 8 MiB buffers raises glibc's mmap
  // threshold for the rest of the process, which speeds the listener up
  // enough to break NetFaults.StalledReader*'s timing check.
  const idx n = 4, jobs = 9, big = 2 * batch::batch_grain();
  ListenerConfig cfg;
  cfg.conn_inflight = 1;
  Loop lo(cfg);
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(1, big, 1, 9110, as, bs);
  build_gesv_problems<double>(jobs - 1, n, 1, 9111, as, bs);
  std::vector<Client::Ticket> ts;
  for (idx i = 0; i < jobs; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    ts.push_back(lo.client.gesv_async(as[ui].rows(), 1, as[ui].data(),
                                      as[ui].ld(), bs[ui].data(),
                                      bs[ui].ld(), wire::kWantB));
  }
  lo.client.flush();
  EXPECT_EQ(lo.client.wait(ts[0]).info, 0);  // the large solve got through
  idx rejected = 0;
  for (std::size_t i = 1; i < ts.size(); ++i) {
    if (lo.client.wait(ts[i]).info == serve::kInfoRejected) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, jobs - 1);
  EXPECT_EQ(lo.listener.stats().conn_rejects,
            static_cast<std::uint64_t>(jobs - 1));
}

TEST(NetAdmission, WindowEqualToCapNeverRejects) {
  // A client that keeps exactly conn_inflight jobs in flight resubmits as
  // soon as it reads a result. The listener frees the slot before the
  // result is sent, so no resubmission may find the connection full.
  constexpr idx kCap = 4;
  constexpr idx kJobs = 4000;
  const idx n = 4;
  ListenerConfig cfg;
  cfg.conn_inflight = kCap;
  Loop lo(cfg);
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(kCap, n, 1, 9112, as, bs);
  std::vector<Matrix<double>> a(as), b(bs);
  std::vector<Client::Ticket> ts(kCap);
  const auto submit = [&](idx job) {
    const auto slot = static_cast<std::size_t>(job % kCap);
    a[slot] = as[slot];
    b[slot] = bs[slot];
    ts[slot] = lo.client.gesv_async(n, 1, a[slot].data(), a[slot].ld(),
                                    b[slot].data(), b[slot].ld());
    lo.client.flush();
  };
  for (idx j = 0; j < kCap; ++j) {
    submit(j);
  }
  idx rejected = 0, failed = 0;
  for (idx j = 0; j < kJobs; ++j) {
    const JobResult r = lo.client.wait(ts[static_cast<std::size_t>(j % kCap)]);
    if (r.info == serve::kInfoRejected) {
      ++rejected;
    } else if (r.info != 0) {
      ++failed;
    }
    if (j + kCap < kJobs) {
      submit(j + kCap);
    }
  }
  EXPECT_EQ(rejected, 0);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(lo.listener.stats().conn_rejects, 0u);
}

TEST(NetAdmission, OversizedJobFailsTooLargeAndConnectionSurvives) {
  // max_frame chosen so the Submit frame fits but the Result frame would
  // not: its per-entry metadata is 32 bytes against the Submit's 16, so a
  // wide batch of tiny entries crosses the cap only on the way back. The
  // client must refuse locally with kInfoTooLarge — letting the job
  // through would have the server's reply blow the client's parse cap and
  // take down the connection with every other in-flight job.
  const idx count = 100;
  ListenerConfig cfg;
  cfg.max_frame = 4000;
  Loop lo(cfg);
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(count, 1, 1, 9777, as, bs);
  std::vector<double*> pa, pb;
  std::vector<idx> da, db;
  std::vector<idx> infos(static_cast<std::size_t>(count), idx{-7});
  const auto t = lo.client.submit_batch_async(
      serve::Routine::gesv, Uplo::Lower, Trans::NoTrans,
      make_batch(as, pa, da), make_batch(bs, pb, db), infos.data());
  const JobResult r = lo.client.wait(t);
  EXPECT_EQ(r.info, net::kInfoTooLarge);
  EXPECT_EQ(r.entries, count);
  EXPECT_EQ(infos[0], -7);  // the job went nowhere: outputs untouched
  EXPECT_TRUE(lo.client.ok());

  // A single job whose payload alone exceeds the cap fails the same way.
  Matrix<double> big_a(40, 40), big_b(40, 1);
  for (idx dg = 0; dg < 40; ++dg) {
    big_a(dg, dg) = 1.0;
  }
  const JobResult rb_big = lo.client.gesv(idx{40}, idx{1}, big_a.data(),
                                          big_a.ld(), big_b.data(),
                                          big_b.ld());
  EXPECT_EQ(rb_big.info, net::kInfoTooLarge);

  // The connection stays healthy: a frame-sized job still goes through.
  Matrix<double> sa = as[0], sb = bs[0];
  Matrix<double> ra = sa, rbm = sb;
  std::vector<idx> piv(1);
  ASSERT_EQ(lapack::gesv(idx{1}, idx{1}, ra.data(), ra.ld(), piv.data(),
                         rbm.data(), rbm.ld()),
            0);
  const JobResult r2 = lo.client.gesv(idx{1}, idx{1}, sa.data(), sa.ld(),
                                      sb.data(), sb.ld());
  EXPECT_EQ(r2.info, 0);
  EXPECT_EQ(max_diff(ra, sa), 0.0);
  EXPECT_EQ(max_diff(rbm, sb), 0.0);
}

TEST(NetDisconnect, AbruptClientDisconnectLeaksNothing) {
  // Queue small jobs behind a large solve (twice BatchGrain, sized as in
  // PerConnectionCapRejectsAtTheWire), then vanish while it runs: the server must finish the work, discard the
  // undeliverable results, and shut down cleanly (ASan keeps the "no
  // leaks" half honest).
  const idx n = 4, jobs = 6, big = 2 * batch::batch_grain();
  Listener listener;
  ASSERT_TRUE(listener.ok());
  {
    Client cl;
    ASSERT_TRUE(cl.connect("127.0.0.1", listener.port()));
    std::vector<Matrix<double>> as, bs;
    build_gesv_problems<double>(1, big, 1, 9221, as, bs);
    build_gesv_problems<double>(jobs - 1, n, 1, 9222, as, bs);
    for (idx i = 0; i < jobs; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      (void)cl.gesv_async(as[ui].rows(), 1, as[ui].data(), as[ui].ld(),
                          bs[ui].data(), bs[ui].ld());
    }
    cl.flush();
    cl.close();  // buffers freed after close: the server owns copies
  }
  // Every admitted job still completes server-side. The client's close
  // does not wait for the server to decode, so give the reader a moment
  // to admit everything before draining.
  for (int spin = 0; spin < 5000 && listener.server().stats().submitted_jobs <
                                        static_cast<std::uint64_t>(jobs);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  listener.server().wait_idle();
  listener.shutdown();
  const serve::Stats s = listener.server().stats();
  EXPECT_EQ(s.submitted_jobs, static_cast<std::uint64_t>(jobs));
  EXPECT_EQ(s.completed_jobs, static_cast<std::uint64_t>(jobs));
}

// ---------------------------------------------------------------------------
// handshake + framing at the socket level

/// Raw loopback socket helper for speaking deliberately broken protocol.
struct RawSock {
  int fd = -1;
  explicit RawSock(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawSock() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  bool send_bytes(const void* p, std::size_t len) const {
    return ::send(fd, p, len, MSG_NOSIGNAL) == static_cast<ssize_t>(len);
  }
  /// Read until EOF; returns bytes read.
  std::size_t drain(void* p, std::size_t cap) const {
    auto* d = static_cast<std::byte*>(p);
    std::size_t got = 0;
    while (got < cap) {
      const ssize_t r = ::recv(fd, d + got, cap - got, 0);
      if (r <= 0) {
        break;
      }
      got += static_cast<std::size_t>(r);
    }
    return got;
  }
};

TEST(NetHandshake, VersionMismatchIsAckedRejectedAndDropped) {
  Listener listener;
  ASSERT_TRUE(listener.ok());
  RawSock s(listener.port());
  ASSERT_GE(s.fd, 0);
  std::vector<std::byte> hello;
  wire::encode_hello(hello, {.version = 0x7777, .flags = 0});
  ASSERT_TRUE(s.send_bytes(hello.data(), hello.size()));
  std::byte ack[wire::kHelloBytes + 1];
  const std::size_t got = s.drain(ack, sizeof(ack));
  ASSERT_EQ(got, wire::kHelloBytes);  // ack then EOF, nothing more
  wire::HelloAck a;
  ASSERT_TRUE(wire::decode_hello_ack({ack, wire::kHelloBytes}, a));
  EXPECT_FALSE(a.accept);
  listener.shutdown();
  EXPECT_EQ(listener.stats().handshake_fail, 1u);
}

TEST(NetHandshake, ClientRefusesMismatchedAck) {
  // Client::connect against a non-la::net peer that answers garbage.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const int port = ntohs(addr.sin_port);

  std::thread peer([lfd] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd >= 0) {
      std::byte junk[wire::kHelloBytes] = {};
      std::byte buf[wire::kHelloBytes];
      (void)::recv(cfd, buf, sizeof(buf), 0);
      (void)::send(cfd, junk, sizeof(junk), MSG_NOSIGNAL);
      ::close(cfd);
    }
  });
  Client cl;
  EXPECT_FALSE(cl.connect("127.0.0.1", port));
  EXPECT_FALSE(cl.ok());
  peer.join();
  ::close(lfd);
}

TEST(NetFraming, GarbageFrameDropsConnection) {
  Listener listener;
  ASSERT_TRUE(listener.ok());
  RawSock s(listener.port());
  ASSERT_GE(s.fd, 0);
  std::vector<std::byte> hello;
  wire::encode_hello(hello);
  ASSERT_TRUE(s.send_bytes(hello.data(), hello.size()));
  std::byte ack[wire::kHelloBytes];
  ASSERT_EQ(s.drain(ack, sizeof(ack)), wire::kHelloBytes);

  // A frame with an unknown type byte: the server must drop us, not hang.
  std::byte junk[16] = {};
  junk[0] = std::byte{8};   // len = 8
  junk[4] = std::byte{99};  // unknown type
  ASSERT_TRUE(s.send_bytes(junk, sizeof(junk)));
  std::byte rest[8];
  EXPECT_EQ(s.drain(rest, sizeof(rest)), 0u);  // EOF: connection dropped
  listener.shutdown();
  EXPECT_EQ(listener.stats().malformed, 1u);
}

TEST(NetConnect, RefusedPortFailsCleanly) {
  // Grab an ephemeral port and close it again: connecting must fail.
  const int tmp = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(tmp, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(tmp, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const int port = ntohs(addr.sin_port);
  ::close(tmp);
  Client cl;
  EXPECT_FALSE(cl.connect("127.0.0.1", port));
  const serve::JobResult r = cl.wait(12345);
  EXPECT_EQ(r.info, net::kInfoNetClosed);
}


// ---------------------------------------------------------------------------
// socket faults against the listener's event loop

/// Threads of this process (entries in /proc/self/task); -1 when absent.
long thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) {
    return -1;
  }
  return static_cast<long>(std::distance(it, {}));
}

/// Send a v1 hello on a raw socket and read the ack; true when accepted.
bool greet(const RawSock& s) {
  std::vector<std::byte> hello;
  wire::encode_hello(hello);
  std::byte ack[wire::kHelloBytes];
  wire::HelloAck a;
  return s.send_bytes(hello.data(), hello.size()) &&
         s.drain(ack, sizeof(ack)) == sizeof(ack) &&
         wire::decode_hello_ack({ack, sizeof(ack)}, a) && a.accept;
}

/// Append one gesv Submit frame asking for A and B back.
void append_gesv_submit(std::vector<std::byte>& out, std::uint64_t job_id,
                        const Matrix<double>& a, const Matrix<double>& b) {
  const wire::EntryDims d{a.rows(), a.cols(), b.rows(), b.cols()};
  const std::size_t at = wire::encode_submit_header(
      out, job_id, serve::Routine::gesv, serve::Dtype::d, Uplo::Lower,
      Trans::NoTrans, wire::kWantA | wire::kWantB, {&d, 1});
  wire::append_matrix(out, a.data(), a.rows(), a.cols(), a.ld(),
                      sizeof(double));
  wire::append_matrix(out, b.data(), b.rows(), b.cols(), b.ld(),
                      sizeof(double));
  wire::end_frame(out, at);
}

/// Read one gesv Result frame off a raw socket and scatter its A and B
/// payloads into `a` and `b`; false on a short read or a bad frame.
bool read_gesv_result(const RawSock& s, std::uint64_t job_id,
                      Matrix<double>& a, Matrix<double>& b) {
  std::vector<std::byte> buf(wire::kFrameHeaderBytes);
  if (s.drain(buf.data(), buf.size()) != buf.size()) {
    return false;
  }
  const auto len = wire::detail::load_le<std::uint32_t>(buf.data());
  if (len > wire::kDefaultMaxFrame) {
    return false;
  }
  buf.resize(wire::kFrameHeaderBytes + len);
  if (s.drain(buf.data() + wire::kFrameHeaderBytes, len) != len) {
    return false;
  }
  wire::FrameView fv;
  wire::ResultMsg m;
  if (wire::parse_frame(buf, wire::kDefaultMaxFrame, fv) !=
          wire::FrameStatus::ok ||
      !wire::decode_result(fv.payload, serve::Dtype::d, m) ||
      m.job_id != job_id || m.info != 0 ||
      m.flags != (wire::kWantA | wire::kWantB)) {
    return false;
  }
  const std::byte* src = m.payload;
  src += wire::scatter_matrix(src, a.data(), a.rows(), a.cols(), a.ld(),
                              sizeof(double));
  (void)wire::scatter_matrix(src, b.data(), b.rows(), b.cols(), b.ld(),
                             sizeof(double));
  return true;
}

void set_nodelay(const RawSock& s) {
  int one = 1;
  ::setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TEST(NetFaults, ThreadCountIndependentOfConnections) {
  if (thread_count() < 0) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  constexpr int kConns = 32;
  Listener listener;
  ASSERT_TRUE(listener.ok());
  const long before = thread_count();
  std::vector<std::unique_ptr<RawSock>> socks;
  for (int i = 0; i < kConns; ++i) {
    socks.push_back(std::make_unique<RawSock>(listener.port()));
    ASSERT_GE(socks.back()->fd, 0);
    ASSERT_TRUE(greet(*socks.back())) << "connection " << i;
  }
  // Every handshake has been answered, so every connection is being
  // served; none of them may have cost a thread.
  EXPECT_LE(thread_count(), before);
  socks.clear();
  listener.shutdown();
  EXPECT_EQ(listener.stats().connections, static_cast<std::uint64_t>(kConns));
}

TEST(NetFaults, HandshakeAndFrameSplitAtEveryByteStayBitIdentical) {
  const idx n = 4, nrhs = 2;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(1, n, nrhs, 9444, as, bs);
  Matrix<double> ra = as[0], rb = bs[0];
  std::vector<idx> piv(n);
  ASSERT_EQ(lapack::gesv(n, nrhs, ra.data(), ra.ld(), piv.data(), rb.data(),
                         rb.ld()),
            0);
  std::vector<std::byte> msg;
  wire::encode_hello(msg);
  append_gesv_submit(msg, 77, as[0], bs[0]);
  Listener listener;
  ASSERT_TRUE(listener.ok());
  for (std::size_t cut = 1; cut < msg.size(); ++cut) {
    RawSock s(listener.port());
    ASSERT_GE(s.fd, 0);
    set_nodelay(s);
    ASSERT_TRUE(s.send_bytes(msg.data(), cut));
    // Give the listener a chance to read the first part on its own.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ASSERT_TRUE(s.send_bytes(msg.data() + cut, msg.size() - cut));
    std::byte ack[wire::kHelloBytes];
    wire::HelloAck a;
    ASSERT_EQ(s.drain(ack, sizeof(ack)), wire::kHelloBytes) << "cut " << cut;
    ASSERT_TRUE(wire::decode_hello_ack({ack, sizeof(ack)}, a) && a.accept);
    Matrix<double> ga(n, n), gb(n, nrhs);
    ASSERT_TRUE(read_gesv_result(s, 77, ga, gb)) << "cut " << cut;
    EXPECT_EQ(max_diff(ra, ga), 0.0) << "cut " << cut;
    EXPECT_EQ(max_diff(rb, gb), 0.0) << "cut " << cut;
  }
  listener.shutdown();
  EXPECT_EQ(listener.stats().malformed, 0u);
  EXPECT_EQ(listener.stats().frames_in,
            static_cast<std::uint64_t>(msg.size() - 1));
}

TEST(NetFaults, ResetMidFrameLeavesListenerServing) {
  const idx n = 6, nrhs = 1;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(1, n, nrhs, 9555, as, bs);
  Listener listener;
  ASSERT_TRUE(listener.ok());
  {
    RawSock s(listener.port());
    ASSERT_GE(s.fd, 0);
    ASSERT_TRUE(greet(s));
    std::vector<std::byte> frame;
    append_gesv_submit(frame, 1, as[0], bs[0]);
    ASSERT_TRUE(s.send_bytes(frame.data(), frame.size() / 2));
    // A zero linger turns close() into a reset.
    const linger rst{1, 0};
    ASSERT_EQ(::setsockopt(s.fd, SOL_SOCKET, SO_LINGER, &rst, sizeof(rst)), 0);
  }
  Matrix<double> ra = as[0], rb = bs[0];
  std::vector<idx> piv(n);
  ASSERT_EQ(lapack::gesv(n, nrhs, ra.data(), ra.ld(), piv.data(), rb.data(),
                         rb.ld()),
            0);
  Client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", listener.port()));
  const JobResult r = cl.gesv(n, nrhs, as[0].data(), as[0].ld(), bs[0].data(),
                              bs[0].ld());
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(max_diff(ra, as[0]), 0.0);
  EXPECT_EQ(max_diff(rb, bs[0]), 0.0);
  cl.close();
  listener.shutdown();
  EXPECT_EQ(listener.stats().connections, 2u);
  EXPECT_EQ(listener.stats().malformed, 0u);
  EXPECT_EQ(listener.stats().frames_in, 1u);
}

TEST(NetFaults, StalledReaderBlocksNeitherOtherPeersNorShutdown) {
  Listener listener;
  ASSERT_TRUE(listener.ok());
  // conn_inflight jobs of 64 KiB results each, far beyond what the socket
  // buffers and the listener's unsent-byte high water hold: the listener
  // must stop reading the stalled peer rather than block or buffer it all.
  const idx cap = listener.config().conn_inflight;
  std::vector<Matrix<double>> big_a, big_b;
  build_gesv_problems<double>(1, 64, 64, 9666, big_a, big_b);
  std::vector<std::byte> frame;
  append_gesv_submit(frame, 5, big_a[0], big_b[0]);

  constexpr idx kJobs = 1000, kWindow = 50, kProblems = 10;
  const idx n = 4, nrhs = 1;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(kProblems, n, nrhs, 9667, as, bs);
  std::vector<Matrix<double>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t p = 0; p < ra.size(); ++p) {
    ASSERT_EQ(lapack::gesv(n, nrhs, ra[p].data(), ra[p].ld(), piv.data(),
                           rb[p].data(), rb[p].ld()),
              0);
  }
  Client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", listener.port()));
  RawSock stalled(listener.port());
  ASSERT_GE(stalled.fd, 0);
  ASSERT_TRUE(greet(stalled));
  // The submissions stall too once the listener stops reading, so they go
  // out on their own thread; closing the socket at the end releases it.
  std::thread pusher([&stalled, &frame, cap] {
    for (idx j = 0; j < cap; ++j) {
      if (!stalled.send_bytes(frame.data(), frame.size())) {
        return;
      }
    }
  });
  idx mismatched = 0;
  for (idx base = 0; base < kJobs; base += kWindow) {
    std::vector<Matrix<double>> wa, wb;
    std::vector<Client::Ticket> ts;
    for (idx j = 0; j < kWindow; ++j) {
      const auto p = static_cast<std::size_t>((base + j) % kProblems);
      wa.push_back(as[p]);
      wb.push_back(bs[p]);
    }
    for (std::size_t j = 0; j < wa.size(); ++j) {
      ts.push_back(cl.gesv_async(n, nrhs, wa[j].data(), wa[j].ld(),
                                 wb[j].data(), wb[j].ld()));
    }
    for (std::size_t j = 0; j < ts.size(); ++j) {
      const auto p = static_cast<std::size_t>((base + static_cast<idx>(j)) %
                                              kProblems);
      const JobResult r = cl.wait(ts[j]);
      if (r.info != 0 || max_diff(ra[p], wa[j]) != 0.0 ||
          max_diff(rb[p], wb[j]) != 0.0) {
        ++mismatched;
      }
    }
  }
  EXPECT_EQ(mismatched, 0);
  cl.close();
  listener.shutdown();
  ::shutdown(stalled.fd, SHUT_RDWR);
  pusher.join();
  EXPECT_EQ(listener.stats().malformed, 0u);
  // The listener stopped reading the stalled peer: reading on would have
  // decoded all kJobs + cap frames. This holds while the loopback socket
  // buffers take less than the cap's 16 MiB of unread results.
  EXPECT_LT(listener.stats().frames_in,
            static_cast<std::uint64_t>(kJobs + cap));
}

TEST(NetFaults, ClientWindowLargerThanSocketBuffersCompletes) {
  // 256 jobs of 144 KiB each way in one window: the client's flushes
  // outrun the socket buffers while results stream back, and the listener
  // stops reading it past its unsent high water. The client must keep
  // reading results while a flush waits, or both sides stall for good.
  const idx n = 96, nrhs = 96, kProblems = 8;
  Listener listener;
  ASSERT_TRUE(listener.ok());
  const idx jobs = listener.config().conn_inflight;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(kProblems, n, nrhs, 9888, as, bs);
  std::vector<Matrix<double>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t p = 0; p < ra.size(); ++p) {
    ASSERT_EQ(lapack::gesv(n, nrhs, ra[p].data(), ra[p].ld(), piv.data(),
                           rb[p].data(), rb[p].ld()),
              0);
  }
  std::vector<Matrix<double>> wa, wb;
  for (idx j = 0; j < jobs; ++j) {
    wa.push_back(as[static_cast<std::size_t>(j % kProblems)]);
    wb.push_back(bs[static_cast<std::size_t>(j % kProblems)]);
  }
  Client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", listener.port()));
  std::vector<Client::Ticket> ts;
  for (std::size_t j = 0; j < wa.size(); ++j) {
    ts.push_back(cl.gesv_async(n, nrhs, wa[j].data(), wa[j].ld(),
                               wb[j].data(), wb[j].ld()));
  }
  idx mismatched = 0;
  for (std::size_t j = 0; j < ts.size(); ++j) {
    const auto p = j % static_cast<std::size_t>(kProblems);
    if (cl.wait(ts[j]).info != 0 || max_diff(ra[p], wa[j]) != 0.0 ||
        max_diff(rb[p], wb[j]) != 0.0) {
      ++mismatched;
    }
  }
  EXPECT_EQ(mismatched, 0);
  EXPECT_EQ(listener.stats().conn_rejects, 0u);
}

TEST(NetFaults, ValidFramesBeforeMalformedFrameRunAndPeerIsDropped) {
  // One send() carries several valid Submit frames and then a frame of
  // unknown type. The listener drops the peer on the bad frame, but the
  // jobs decoded before it were already taken on: they must be admitted
  // and complete (their storage comes back through serve, so ASan sees no
  // leak), and the listener must go on serving fresh clients.
  const idx n = 5, nrhs = 1;
  constexpr std::size_t kValid = 4;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(kValid, n, nrhs, 9777, as, bs);
  Listener listener;
  ASSERT_TRUE(listener.ok());
  {
    RawSock s(listener.port());
    ASSERT_GE(s.fd, 0);
    ASSERT_TRUE(greet(s));
    std::vector<std::byte> msg;
    for (std::size_t i = 0; i < kValid; ++i) {
      append_gesv_submit(msg, i + 1, as[i], bs[i]);
    }
    const std::size_t at = msg.size();
    msg.resize(at + wire::kFrameHeaderBytes + 8);
    msg[at] = std::byte{8};        // len = 8
    msg[at + 4] = std::byte{99};  // unknown type
    ASSERT_TRUE(s.send_bytes(msg.data(), msg.size()));
    // Dropped: the read ends at EOF (or a reset), whatever it got first.
    std::vector<std::byte> rest(std::size_t{1} << 20);
    (void)s.drain(rest.data(), rest.size());
  }
  for (int spin = 0;
       spin < 5000 && listener.server().stats().submitted_jobs < kValid;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  listener.server().wait_idle();
  const serve::Stats ss = listener.server().stats();
  EXPECT_EQ(ss.submitted_jobs, kValid);
  EXPECT_EQ(ss.completed_jobs, ss.submitted_jobs);
  EXPECT_EQ(listener.stats().malformed, 1u);
  EXPECT_EQ(listener.stats().frames_in, kValid);

  std::vector<Matrix<double>> fa, fb;
  build_gesv_problems<double>(1, n, nrhs, 9778, fa, fb);
  Matrix<double> ra = fa[0], rb = fb[0];
  std::vector<idx> piv(n);
  ASSERT_EQ(lapack::gesv(n, nrhs, ra.data(), ra.ld(), piv.data(), rb.data(),
                         rb.ld()),
            0);
  Client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", listener.port()));
  const JobResult r = cl.gesv(n, nrhs, fa[0].data(), fa[0].ld(), fb[0].data(),
                              fb[0].ld());
  EXPECT_EQ(r.info, 0);
  EXPECT_EQ(max_diff(ra, fa[0]), 0.0);
  EXPECT_EQ(max_diff(rb, fb[0]), 0.0);
  cl.close();
  listener.shutdown();
}

TEST(NetFaults, ConnectDisconnectChurnKeepsThreadCount) {
  if (thread_count() < 0) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  constexpr int kCycles = 200;
  Listener listener;
  ASSERT_TRUE(listener.ok());
  const long before = thread_count();
  for (int i = 0; i < kCycles; ++i) {
    {
      RawSock s(listener.port());
      ASSERT_GE(s.fd, 0);
      ASSERT_TRUE(greet(s)) << "cycle " << i;
    }
    ASSERT_EQ(thread_count(), before) << "cycle " << i;
  }
  listener.shutdown();
  EXPECT_EQ(listener.stats().connections, static_cast<std::uint64_t>(kCycles));
}


// ---------------------------------------------------------------------------
// faults against net::Client: a fake server that splits, inflates or
// resets its Result frames

bool recv_exact(int fd, void* dst, std::size_t len) {
  auto* p = static_cast<std::byte*>(dst);
  while (len > 0) {
    const ssize_t r = ::recv(fd, p, len, 0);
    if (r <= 0) {
      return false;
    }
    p += r;
    len -= static_cast<std::size_t>(r);
  }
  return true;
}

bool send_all(int fd, const std::byte* p, std::size_t len) {
  return len == 0 ||
         ::send(fd, p, len, MSG_NOSIGNAL) == static_cast<ssize_t>(len);
}

/// Read one Submit frame off `fd` and return its job id (0 on failure).
std::uint64_t read_submit(int fd) {
  std::vector<std::byte> buf(wire::kFrameHeaderBytes);
  if (!recv_exact(fd, buf.data(), buf.size())) {
    return 0;
  }
  const auto len = wire::detail::load_le<std::uint32_t>(buf.data());
  buf.resize(wire::kFrameHeaderBytes + len);
  wire::FrameView fv;
  wire::SubmitMsg m;
  if (!recv_exact(fd, buf.data() + wire::kFrameHeaderBytes, len) ||
      wire::parse_frame(buf, wire::kDefaultMaxFrame, fv) !=
          wire::FrameStatus::ok ||
      !wire::decode_submit(fv.payload, m)) {
    return 0;
  }
  return m.job_id;
}

/// Append a successful gesv Result frame carrying `a` and `b`.
void append_gesv_result(std::vector<std::byte>& out, std::uint64_t job_id,
                        const Matrix<double>& a, const Matrix<double>& b) {
  const wire::EntryResult e{0, 0, {a.rows(), a.cols(), b.rows(), b.cols()}};
  const std::size_t at = wire::encode_result_header(
      out, job_id, 0, 0, wire::kWantA | wire::kWantB, {&e, 1});
  wire::append_matrix(out, a.data(), a.rows(), a.cols(), a.ld(),
                      sizeof(double));
  wire::append_matrix(out, b.data(), b.rows(), b.cols(), b.ld(),
                      sizeof(double));
  wire::end_frame(out, at);
}

/// Block until the peer closes its end.
void await_eof(int fd) {
  std::byte sink[256];
  while (::recv(fd, sink, sizeof(sink), 0) > 0) {
  }
}

/// A fake la::net server on an ephemeral loopback port. It accepts
/// `conns` connections one after another, acks each handshake, and hands
/// the socket to `script(k, fd)` for the k-th connection; the socket is
/// closed when the script returns.
struct FakePeer {
  int lfd = -1;
  int port = 0;
  std::thread th;

  FakePeer(int conns, std::function<void(int, int)> script) {
    lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t alen = sizeof(addr);
    if (lfd < 0 ||
        ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(lfd, 4) != 0 ||
        ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
      return;
    }
    port = ntohs(addr.sin_port);
    th = std::thread([this, conns, script = std::move(script)] {
      for (int k = 0; k < conns; ++k) {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
          return;  // the destructor shut the listen socket down
        }
        // Split sends must leave at once, not wait on a delayed ACK.
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::byte hello[wire::kHelloBytes];
        std::vector<std::byte> ack;
        wire::encode_hello_ack(
            ack, {.accept = true,
                  .max_frame =
                      static_cast<std::uint32_t>(wire::kDefaultMaxFrame)});
        if (recv_exact(fd, hello, sizeof(hello)) &&
            send_all(fd, ack.data(), ack.size())) {
          script(k, fd);
        }
        ::close(fd);
      }
    });
  }

  ~FakePeer() {
    if (lfd >= 0) {
      ::shutdown(lfd, SHUT_RDWR);  // releases an accept() a failure skipped
    }
    if (th.joinable()) {
      th.join();
    }
    if (lfd >= 0) {
      ::close(lfd);
    }
  }
};

/// Client::wait with a watchdog: a ticket still unresolved after 30 s is a
/// hang, reported as a failure; closing the client releases the waiter.
JobResult wait_or_fail(Client& cl, Client::Ticket t) {
  auto f = std::async(std::launch::async, [&cl, t] { return cl.wait(t); });
  if (f.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    ADD_FAILURE() << "ticket " << t << " never resolved";
    cl.close();
  }
  return f.get();
}

TEST(NetClientFaults, ResultFrameSplitAtEveryByteStaysBitIdentical) {
  const idx n = 4, nrhs = 2;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(1, n, nrhs, 9911, as, bs);
  Matrix<double> ra = as[0], rb = bs[0];
  std::vector<idx> piv(n);
  ASSERT_EQ(lapack::gesv(n, nrhs, ra.data(), ra.ld(), piv.data(), rb.data(),
                         rb.ld()),
            0);
  std::vector<std::byte> probe;
  append_gesv_result(probe, 1, ra, rb);
  const int cuts = static_cast<int>(probe.size()) - 1;
  // Connection k gets its Result frame in two sends cut after byte k + 1.
  FakePeer peer(cuts, [&ra, &rb](int k, int fd) {
    const std::uint64_t id = read_submit(fd);
    std::vector<std::byte> res;
    append_gesv_result(res, id, ra, rb);
    const auto cut = static_cast<std::size_t>(k) + 1;
    if (id == 0 || !send_all(fd, res.data(), cut)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (send_all(fd, res.data() + cut, res.size() - cut)) {
      await_eof(fd);
    }
  });
  ASSERT_GT(peer.port, 0);
  for (int k = 0; k < cuts; ++k) {
    Matrix<double> a = as[0], b = bs[0];
    Client cl;
    ASSERT_TRUE(cl.connect("127.0.0.1", peer.port)) << "cut " << k + 1;
    const Client::Ticket t =
        cl.gesv_async(n, nrhs, a.data(), a.ld(), b.data(), b.ld());
    const JobResult r = wait_or_fail(cl, t);
    EXPECT_EQ(r.info, 0) << "cut " << k + 1;
    EXPECT_EQ(max_diff(ra, a), 0.0) << "cut " << k + 1;
    EXPECT_EQ(max_diff(rb, b), 0.0) << "cut " << k + 1;
  }
}

TEST(NetClientFaults, StreamWithResultOverOneMiBGrowsAndCompactsBuffer) {
  // 24 results of 16 KiB, one of 1.2 MiB, then 4 more of 16 KiB, sent as
  // one stream in 96 KiB pieces: the client's receive buffer must keep a
  // partial frame across reads, move it to the front once the consumed
  // frames before it leave too little room, and grow for the big one.
  struct Job {
    idx n, nrhs;
  };
  std::vector<Job> jobs(24, Job{32, 32});
  jobs.push_back(Job{256, 320});
  jobs.insert(jobs.end(), 4, Job{32, 32});
  std::vector<Matrix<double>> as, bs, ra, rb;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::vector<Matrix<double>> a1, b1;
    build_gesv_problems<double>(1, jobs[j].n, jobs[j].nrhs,
                                9920 + static_cast<int>(j), a1, b1);
    as.push_back(a1[0]);
    bs.push_back(b1[0]);
    Matrix<double> x = a1[0], y = b1[0];
    std::vector<idx> piv(static_cast<std::size_t>(jobs[j].n));
    ASSERT_EQ(lapack::gesv(jobs[j].n, jobs[j].nrhs, x.data(), x.ld(),
                           piv.data(), y.data(), y.ld()),
              0);
    ra.push_back(std::move(x));
    rb.push_back(std::move(y));
  }
  const auto big_bytes = static_cast<std::size_t>(
      ra[24].rows() * ra[24].cols() + rb[24].rows() * rb[24].cols()) *
      sizeof(double);
  ASSERT_GT(big_bytes, std::size_t{1} << 20);
  FakePeer peer(1, [&ra, &rb](int, int fd) {
    std::vector<std::byte> stream;
    for (std::size_t j = 0; j < ra.size(); ++j) {
      const std::uint64_t id = read_submit(fd);
      if (id == 0) {
        return;
      }
      append_gesv_result(stream, id, ra[j], rb[j]);
    }
    constexpr std::size_t kPiece = std::size_t{96} << 10;
    for (std::size_t at = 0; at < stream.size(); at += kPiece) {
      if (!send_all(fd, stream.data() + at,
                    std::min(kPiece, stream.size() - at))) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    await_eof(fd);
  });
  ASSERT_GT(peer.port, 0);
  Client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", peer.port));
  std::vector<Client::Ticket> ts;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ts.push_back(cl.gesv_async(jobs[j].n, jobs[j].nrhs, as[j].data(),
                               as[j].ld(), bs[j].data(), bs[j].ld()));
  }
  // The peer answers only once it has every Submit frame; wait() alone
  // would not push the tail still buffered behind the first ticket.
  cl.flush();
  for (std::size_t j = 0; j < ts.size(); ++j) {
    EXPECT_EQ(wait_or_fail(cl, ts[j]).info, 0) << "job " << j;
    EXPECT_EQ(max_diff(ra[j], as[j]), 0.0) << "job " << j;
    EXPECT_EQ(max_diff(rb[j], bs[j]), 0.0) << "job " << j;
  }
  cl.close();
}

TEST(NetClientFaults, ResetMidFrameFailsOnlyTheUnfinishedTicket) {
  // One whole Result frame, then half of the next, then a reset: the
  // first ticket completes (bit-identically, unless the reset overtook
  // its bytes), the second fails kInfoNetClosed, and neither hangs.
  const idx n = 6, nrhs = 1;
  std::vector<Matrix<double>> as, bs;
  build_gesv_problems<double>(2, n, nrhs, 9933, as, bs);
  std::vector<Matrix<double>> ra = as, rb = bs;
  std::vector<idx> piv(n);
  for (std::size_t j = 0; j < 2; ++j) {
    ASSERT_EQ(lapack::gesv(n, nrhs, ra[j].data(), ra[j].ld(), piv.data(),
                           rb[j].data(), rb[j].ld()),
              0);
  }
  FakePeer peer(1, [&ra, &rb](int, int fd) {
    const std::uint64_t id0 = read_submit(fd);
    const std::uint64_t id1 = read_submit(fd);
    std::vector<std::byte> first, second;
    append_gesv_result(first, id0, ra[0], rb[0]);
    append_gesv_result(second, id1, ra[1], rb[1]);
    if (id0 == 0 || id1 == 0 || !send_all(fd, first.data(), first.size())) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)send_all(fd, second.data(), second.size() / 2);
    // A zero linger turns the close after the script into a reset.
    const linger rst{1, 0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_LINGER, &rst, sizeof(rst));
  });
  ASSERT_GT(peer.port, 0);
  Client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", peer.port));
  std::vector<Client::Ticket> ts;
  for (std::size_t j = 0; j < 2; ++j) {
    ts.push_back(cl.gesv_async(n, nrhs, as[j].data(), as[j].ld(),
                               bs[j].data(), bs[j].ld()));
  }
  const JobResult r0 = wait_or_fail(cl, ts[0]);
  if (r0.info == 0) {
    EXPECT_EQ(max_diff(ra[0], as[0]), 0.0);
    EXPECT_EQ(max_diff(rb[0], bs[0]), 0.0);
  } else {
    EXPECT_EQ(r0.info, net::kInfoNetClosed);
  }
  EXPECT_EQ(wait_or_fail(cl, ts[1]).info, net::kInfoNetClosed);
  EXPECT_FALSE(cl.ok());
  // A closed client answers new submissions at once.
  EXPECT_EQ(cl.gesv(n, nrhs, as[1].data(), as[1].ld(), bs[1].data(),
                    bs[1].ld())
                .info,
            net::kInfoNetClosed);
}

}  // namespace
}  // namespace la::test
