// lapack90/serve/job.hpp
//
// Job vocabulary for the serving subsystem (la::serve). A client submits a
// gesv/posv/gels/geqrf job — one problem, or a whole MatrixBatch — and
// receives a std::future<JobResult>. Internally every job is expanded into
// per-problem Units; the Unit is the coalescing currency: the server's
// coalescer is free to group units from different jobs into one batched
// driver call, and a large job's units may be spread over several calls.
// A shared completion block ties a job's units back together: the last
// unit to finish aggregates the per-entry INFOs and stage timestamps into
// the JobResult, fulfils the promise when the submitter took a future, and
// calls the completion hook when it gave one.
//
// Data ownership follows the batch descriptors: the server never owns or
// copies matrix data. Operand buffers must stay alive (and untouched by
// the client) until the job's future is ready.
#pragma once

#include <atomic>
#include <chrono>
#include <complex>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>

#include "lapack90/core/types.hpp"

namespace la::serve {

/// The served routine families. gesv/posv solve in place (A becomes its
/// factors, B the solution); geqrf factors in place (tau alongside); gels
/// overwrites B's leading rows with the least-squares solution;
/// mixed_gesv is the DSGESV-pattern mixed-precision solve (B becomes the
/// refined full-precision solution, A is preserved on the mixed path and
/// overwritten with its LU factors on a fallback) reporting the per-job
/// ITER protocol alongside INFO.
enum class Routine : int { gesv = 0, posv, gels, geqrf, mixed_gesv, count_ };

/// Element type of a job's operands (the LAPACK S/D/C/Z prefix).
enum class Dtype : int { s = 0, d, c, z, count_ };

inline constexpr int kServeRoutineCount = static_cast<int>(Routine::count_);
inline constexpr int kServeDtypeCount = static_cast<int>(Dtype::count_);

template <Scalar T>
[[nodiscard]] consteval Dtype dtype_of() noexcept {
  if constexpr (std::same_as<T, float>) {
    return Dtype::s;
  } else if constexpr (std::same_as<T, double>) {
    return Dtype::d;
  } else if constexpr (std::same_as<T, std::complex<float>>) {
    return Dtype::c;
  } else {
    return Dtype::z;
  }
}

/// JobResult::info when admission control turned the job away: the
/// in-flight bound (EnvSpec::ServeQueueDepth) was already met, or the
/// server is shutting down. Sits in the same infrastructure block as the
/// ERINFO protocol's -100 (workspace allocation failed) — it is neither an
/// argument error (-200 < info < 0 with -info naming the argument) nor a
/// numerical failure (info > 0). A rejected job's operands are untouched.
inline constexpr idx kInfoRejected = -120;

/// Per-entry INFO when a submission names a (routine, dtype) pair the
/// executor cannot run — today that is mixed_gesv on a dtype with no lower
/// working precision (s, c). Unreachable through the typed Server methods
/// (they are constrained on has_lower_precision_v); transport front ends
/// that build type-erased units from the wire report it per entry instead
/// of crashing the executor. Same infrastructure block as kInfoRejected.
inline constexpr idx kInfoUnsupported = -121;

/// Completed-job report delivered through the future (and the completion
/// hook, for transport front ends). The stage
/// timestamps every unit carries (enqueue, coalesce/flush, execute) are
/// folded into the three durations: queue_us is admission to the start of
/// the first batch call that carried one of the job's entries, exec_us
/// spans the first to the last of those calls, total_us is admission to
/// job completion as observed by the server.
struct JobResult {
  idx info = 0;      ///< 0, kInfoRejected, or 1-based first failing entry
  idx entries = 0;   ///< problems in the job (1 for the single-problem API)
  idx batches = 0;   ///< batched driver calls that carried those entries
  idx iter = 0;      ///< mixed_gesv only: entry 0's ITER code (>= 0
                     ///< refinement sweeps, < 0 fallback reason — see
                     ///< mixed/drivers.hpp); batch jobs report per-entry
                     ///< ITER through the `iters` out-array instead
  double queue_us = 0.0;
  double exec_us = 0.0;
  double total_us = 0.0;
};

/// Completion hook for transport front ends (see Server::submit_units).
/// A plain function pointer + context instead of std::function: the hook
/// runs once per job on the serving hot path, and any capturing closure
/// big enough to hold real state would heap-allocate per job.
using CompletionFn = void (*)(void* ctx, const JobResult& r);

namespace detail {

using clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t to_ns(clock::time_point t) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Per-job completion block shared by the job's units. All fields except
/// the promise are updated with relaxed atomics from the executor; the
/// last unit (remaining hits zero) reads them back single-threadedly.
/// The promise exists only when the submitter took a future: a
/// std::promise allocates its shared state on construction, and a
/// transport front end that completes through `on_done` never reads it.
struct JobShared {
  std::optional<std::promise<JobResult>> promise;
  std::atomic<idx> remaining{0};
  std::atomic<idx> first_fail{0};  // 0 = all ok, else min 1-based entry
  std::atomic<std::int64_t> exec_start_ns{
      std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> done_ns{0};
  std::atomic<idx> batches{0};
  std::atomic<idx> iter0{0};  // entry 0's ITER (mixed_gesv jobs)
  idx entries = 0;
  clock::time_point t_submit{};
  /// Optional completion hook for transport front ends: invoked on the
  /// executing dispatcher thread right after the promise (if any) is
  /// fulfilled (rejections and zero-entry jobs invoke it on the submitting
  /// thread). Must be cheap — it runs inside the dispatch loop.
  CompletionFn on_done = nullptr;
  void* on_done_ctx = nullptr;
};

/// Record entry index i (0-based within the job) as failed, keeping the
/// smallest — the batch drivers' deterministic aggregate-INFO rule.
inline void note_unit_failure(JobShared& sh, idx i) noexcept {
  idx cur = sh.first_fail.load(std::memory_order_relaxed);
  while ((cur == 0 || i + 1 < cur) &&
         !sh.first_fail.compare_exchange_weak(cur, i + 1,
                                              std::memory_order_relaxed)) {
  }
}

/// Type-erased single problem: the coalescing currency. `a` is the system
/// matrix (am x an, leading dimension lda); `b` is the right-hand-side /
/// solution block for gesv/posv/gels and the tau vector (bm x 1) for
/// geqrf. Pointers are client-owned; dtype names the element type they
/// actually point at.
struct Unit {
  Routine routine = Routine::gesv;
  Dtype dtype = Dtype::d;
  Uplo uplo = Uplo::Lower;        // posv only
  Trans trans = Trans::NoTrans;   // gels only
  void* a = nullptr;
  idx am = 0, an = 0, lda = 1;
  void* b = nullptr;
  idx bm = 0, bn = 0, ldb = 1;
  idx* info_out = nullptr;        // per-entry INFO slot, may be null
  idx* iter_out = nullptr;        // per-entry ITER slot (mixed_gesv only)
  idx entry_index = 0;            // position within the job
  std::shared_ptr<JobShared> shared;
};

}  // namespace detail

}  // namespace la::serve
