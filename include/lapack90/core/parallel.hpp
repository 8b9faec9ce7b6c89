// lapack90/core/parallel.hpp
//
// The thread runtime under the Level-3 BLAS and the blocked factorizations.
// `parallel_for` hands out independent chunks to a team of workers drawn
// from one persistent std::thread pool (src/parallel.cpp). The worker count
// routes through the ilaenv override machinery (EnvSpec::Threads) so tests
// and benches can force a serial run or a fixed team size; the process
// default resolves from LAPACK90_NUM_THREADS, then hardware concurrency.
// A team never exceeds hardware_threads(), whatever count is requested.
//
// Contract: the result of a kernel built on parallel_for must not depend on
// the worker count — every chunk writes a disjoint region and all reduction
// orders live inside a chunk. Nested calls (a parallel_for issued from
// inside a worker) degrade to serial execution of the inner loop.
#pragma once

#include <functional>
#include <utility>

#include "lapack90/core/env.hpp"
#include "lapack90/core/types.hpp"

namespace la {

namespace detail {

/// Thread count from the environment, computed once per process:
/// LAPACK90_NUM_THREADS > std::thread::hardware_concurrency.
[[nodiscard]] idx default_thread_count() noexcept;

/// True while executing inside a parallel_for worker (guards nesting).
[[nodiscard]] bool in_parallel_region() noexcept;

/// Run body(chunk, tid) for chunk in [0, nchunks) on a team of at most
/// min(nthreads, hardware_threads()) workers (tid below that). Blocks until
/// every chunk has run. An exception escaping `body` terminates the process.
void parallel_run(idx nchunks, idx nthreads,
                  const std::function<void(idx, int)>& body) noexcept;

}  // namespace detail

/// Hardware concurrency as seen by this process (>= 1).
[[nodiscard]] idx hardware_threads() noexcept;

/// The backend parallel_for dispatches to: "std::thread" for the built-in
/// pool, or "serial" when the process sees a single hardware thread (the
/// pool is never spun up). Reported in la::version() and the bench JSON
/// context so measurements are attributable after the fact.
[[nodiscard]] const char* thread_backend_name() noexcept;

/// The worker count the Level-3 runtime will use right now (>= 1):
/// the EnvSpec::Threads override when set, else the environment default.
[[nodiscard]] inline idx num_threads() noexcept {
  return ilaenv(EnvSpec::Threads, EnvRoutine::gemm, 0);
}

/// Force the Level-3 worker count for the whole process (1 = serial;
/// 0 restores the environment default). Returns the previous override.
inline idx set_num_threads(idx n) noexcept {
  return set_env_override(EnvSpec::Threads, EnvRoutine::gemm, n);
}

/// Parallel loop over [0, nchunks): body(chunk, tid). Chunks are assigned
/// dynamically; falls back to a plain serial loop when the resolved team
/// size is 1, when there is at most one chunk, or when already inside a
/// parallel region (no nested parallelism).
template <class F>
void parallel_for(idx nchunks, F&& body) {
  if (nchunks <= 0) {
    return;
  }
  const idx nt = std::min<idx>(num_threads(), nchunks);
  if (nt <= 1 || detail::in_parallel_region()) {
    for (idx i = 0; i < nchunks; ++i) {
      body(i, 0);
    }
    return;
  }
  detail::parallel_run(nchunks, nt,
                       std::function<void(idx, int)>(std::forward<F>(body)));
}

}  // namespace la
