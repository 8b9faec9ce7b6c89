// lapack90/serve/server.hpp
//
// The serving engine. One Server owns one dispatcher thread running the
// three-stage pipeline over its queue and coalescing groups:
//
//   admission  — a bounded MPMC submission queue. The depth bound counts
//                every admitted-but-uncompleted problem (queued,
//                coalescing, or executing); a submission that would exceed
//                it resolves immediately with info = kInfoRejected instead
//                of blocking the client or growing without bound. Every
//                submission goes through submit_many, which admits a whole
//                span of jobs under one take of each mutex and wakes the
//                dispatcher once, so a front end that decodes many jobs at
//                a time pays the locking and the wake-up once per batch.
//   coalescing — units are bucketed by (routine, dtype, uplo/trans).
//                A bucket flushes when it reaches ServeBatchMax entries,
//                when its oldest entry has waited ServeFlushUs
//                microseconds (the latency bound under light load), or at
//                drain/shutdown. Entries at or above the BatchGrain
//                threshold skip coalescing entirely and flush solo — the
//                batch layer would run them serial-outer anyway, and
//                holding a large solve back only adds latency.
//   execution  — each flush is one la::batch ragged-descriptor driver
//                call issued from the dispatcher thread, so the PR-1
//                worker pool parallelizes *inside* the batch call and is
//                never oversubscribed by competing teams. Per-entry INFO
//                flows back through the units into the per-job aggregate
//                (first failing entry, batch-driver rule), and -100
//                workspace injections mark the affected entries exactly
//                like the direct drivers.
//
// Because the executor is the la::batch layer, every served result is
// bit-identical to the corresponding direct la::lapack driver call — the
// serving layer adds scheduling, never different arithmetic.
//
// Knobs resolve through ilaenv at construction: EnvSpec::ServeQueueDepth
// (LAPACK90_SERVE_QUEUE), ServeFlushUs (LAPACK90_SERVE_FLUSH_US),
// ServeBatchMax (LAPACK90_SERVE_BATCH); a nonzero Config field beats the
// environment for that server instance.
#pragma once

#include <algorithm>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "lapack90/batch/descriptor.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/core/precision.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/serve/job.hpp"
#include "lapack90/serve/stats.hpp"

namespace la::serve {

/// Per-server knob overrides; 0 = resolve through ilaenv (env var >
/// set_env_override > builtin).
struct Config {
  idx queue_depth = 0;  ///< max in-flight entries (ServeQueueDepth)
  idx flush_us = 0;     ///< coalescing deadline, microseconds (ServeFlushUs)
  idx batch_max = 0;    ///< max entries per coalesced flush (ServeBatchMax)
};

/// One job of a multi-job admission (Server::submit_many): `count`
/// type-erased units, the completion hook, and where to put the job's
/// future. A null `future` takes none, and the job then creates no
/// promise: it completes through `on_done` alone.
struct Submission {
  detail::Unit* units = nullptr;
  idx count = 0;
  CompletionFn on_done = nullptr;
  void* on_done_ctx = nullptr;
  std::future<JobResult>* future = nullptr;
};

class Server {
 public:
  Server();
  explicit Server(const Config& cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The knob values this server resolved at construction.
  [[nodiscard]] Config config() const noexcept;

  /// Block until every admitted job has completed (the queue and the
  /// coalescer are empty). New submissions remain accepted throughout.
  void wait_idle();

  /// Stop accepting jobs, drain everything already admitted, and join the
  /// dispatcher. Idempotent; the destructor calls it.
  void shutdown();

  /// Statistics snapshot / reset for this server.
  [[nodiscard]] Stats stats() const;
  void reset_stats();

  // -- single-problem submissions -----------------------------------------
  // Operand buffers are client-owned and must stay untouched until the
  // future is ready. On success the result overwrites the inputs exactly
  // as the underlying la::lapack driver would.

  template <Scalar T>
  std::future<JobResult> gesv(idx n, idx nrhs, T* a, idx lda, T* b, idx ldb) {
    detail::Unit u = make_unit<T>(Routine::gesv, n, n, a, lda, n, nrhs, b, ldb);
    return submit_units(&u, 1);
  }

  template <Scalar T>
  std::future<JobResult> posv(Uplo uplo, idx n, idx nrhs, T* a, idx lda, T* b,
                              idx ldb) {
    detail::Unit u = make_unit<T>(Routine::posv, n, n, a, lda, n, nrhs, b, ldb);
    u.uplo = uplo;
    return submit_units(&u, 1);
  }

  template <Scalar T>
  std::future<JobResult> gels(Trans trans, idx m, idx n, idx nrhs, T* a,
                              idx lda, T* b, idx ldb) {
    detail::Unit u = make_unit<T>(Routine::gels, m, n, a, lda,
                                  std::max(m, n), nrhs, b, ldb);
    u.trans = trans;
    return submit_units(&u, 1);
  }

  template <Scalar T>
  std::future<JobResult> geqrf(idx m, idx n, T* a, idx lda, T* tau) {
    const idx k = std::min(m, n);
    detail::Unit u = make_unit<T>(Routine::geqrf, m, n, a, lda, k, 1, tau,
                                  std::max<idx>(k, 1));
    return submit_units(&u, 1);
  }

  /// Mixed-precision solve (DSGESV pattern, PR 5): B is overwritten with
  /// the refined full-precision solution; A is preserved on the mixed path
  /// and overwritten with its LU factors on a per-entry fallback — the
  /// batch::mixed_gesv post-state. The job's ITER code lands in
  /// JobResult::iter.
  template <Scalar T>
    requires has_lower_precision_v<T>
  std::future<JobResult> mixed_gesv(idx n, idx nrhs, T* a, idx lda, T* b,
                                    idx ldb) {
    detail::Unit u =
        make_unit<T>(Routine::mixed_gesv, n, n, a, lda, n, nrhs, b, ldb);
    return submit_units(&u, 1);
  }

  // -- batch submissions --------------------------------------------------
  // One future covers the whole batch; per-entry INFO lands in infos[i]
  // when provided (same protocol as the la::batch drivers). The
  // descriptors are read at submission; the matrix data they name must
  // outlive the future.

  template <Scalar T>
  std::future<JobResult> gesv(const batch::MatrixBatch<T>& a,
                              const batch::MatrixBatch<T>& b,
                              idx* infos = nullptr) {
    return submit_batch<T>(Routine::gesv, Uplo::Lower, Trans::NoTrans, a, b,
                           infos);
  }

  template <Scalar T>
  std::future<JobResult> posv(Uplo uplo, const batch::MatrixBatch<T>& a,
                              const batch::MatrixBatch<T>& b,
                              idx* infos = nullptr) {
    return submit_batch<T>(Routine::posv, uplo, Trans::NoTrans, a, b, infos);
  }

  template <Scalar T>
  std::future<JobResult> gels(Trans trans, const batch::MatrixBatch<T>& a,
                              const batch::MatrixBatch<T>& b,
                              idx* infos = nullptr) {
    return submit_batch<T>(Routine::gels, Uplo::Lower, trans, a, b, infos);
  }

  template <Scalar T>
  std::future<JobResult> geqrf(const batch::MatrixBatch<T>& a,
                               const batch::MatrixBatch<T>& tau,
                               idx* infos = nullptr) {
    return submit_batch<T>(Routine::geqrf, Uplo::Lower, Trans::NoTrans, a, tau,
                           infos);
  }

  /// Batched mixed-precision solve: per-entry ITER codes land in iters[i]
  /// when provided, alongside the usual per-entry infos[i].
  template <Scalar T>
    requires has_lower_precision_v<T>
  std::future<JobResult> mixed_gesv(const batch::MatrixBatch<T>& a,
                                    const batch::MatrixBatch<T>& b,
                                    idx* iters = nullptr,
                                    idx* infos = nullptr) {
    return submit_batch<T>(Routine::mixed_gesv, Uplo::Lower, Trans::NoTrans,
                           a, b, infos, iters);
  }

  // -- transport front ends ----------------------------------------------

  /// Completion hook for type-erased submissions: invoked exactly once per
  /// job as `on_done(ctx, r)` with the same JobResult the future carries,
  /// on the dispatcher thread that completed the job (on the submitting
  /// thread for admission rejections and zero-entry jobs). Must be cheap —
  /// it runs inside the dispatch loop; hand heavy work to another thread.
  using CompletionFn = serve::CompletionFn;

  /// Type-erased core used by the typed methods above and by transport
  /// front ends (la::net) that decode routine/dtype at runtime: the
  /// one-job case of submit_many, returning the job's future. The units'
  /// routine/dtype/pointer fields must be fully populated; ownership rules
  /// match the typed methods. A mixed_gesv unit whose dtype has no lower
  /// working precision completes with per-entry INFO = kInfoUnsupported
  /// instead of executing.
  std::future<JobResult> submit_units(detail::Unit* units, idx count,
                                      CompletionFn on_done = nullptr,
                                      void* on_done_ctx = nullptr);

  /// Admit several jobs at once — the only admission path. Each job's
  /// shared completion block is stamped, then the admission mutex and the
  /// queue mutex are each taken once for the whole span and the
  /// dispatcher is notified once. Per-job semantics are those of
  /// submit_units called once per job in span order: each job is admitted
  /// or rejected (kInfoRejected) on its own against the in-flight bound, a
  /// zero-entry job completes at once with info 0, and every job completes
  /// exactly once, through its future and its hook.
  void submit_many(std::span<Submission> jobs);

 private:
  struct Engine;

  template <Scalar T>
  [[nodiscard]] static detail::Unit make_unit(Routine rt, idx am, idx an, T* a,
                                              idx lda, idx bm, idx bn, T* b,
                                              idx ldb) noexcept {
    detail::Unit u;
    u.routine = rt;
    u.dtype = dtype_of<T>();
    u.a = a;
    u.am = am;
    u.an = an;
    u.lda = lda;
    u.b = b;
    u.bm = bm;
    u.bn = bn;
    u.ldb = ldb;
    return u;
  }

  template <Scalar T>
  std::future<JobResult> submit_batch(Routine rt, Uplo uplo, Trans trans,
                                      const batch::MatrixBatch<T>& a,
                                      const batch::MatrixBatch<T>& b,
                                      idx* infos, idx* iters = nullptr) {
    const idx count = a.count();
    std::vector<detail::Unit> units(static_cast<std::size_t>(count));
    for (idx i = 0; i < count; ++i) {
      detail::Unit& u = units[static_cast<std::size_t>(i)];
      u = make_unit<T>(rt, a.rows(i), a.cols(i), a.ptr(i), a.ld(i), b.rows(i),
                       b.cols(i), b.ptr(i), b.ld(i));
      u.uplo = uplo;
      u.trans = trans;
      u.info_out = infos != nullptr ? infos + i : nullptr;
      u.iter_out = iters != nullptr ? iters + i : nullptr;
    }
    return submit_units(units.data(), count);
  }

  // Process-wide stats registry hooks (src/serve.cpp).
  static void register_server(Server* s);
  static void unregister_server(Server* s);

  std::unique_ptr<Engine> eng_;
};

}  // namespace la::serve
