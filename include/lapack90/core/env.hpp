// lapack90/core/env.hpp
//
// The ILAENV analog: per-routine blocking parameters. LAPACK centralises
// machine tuning in ILAENV; the F90 wrappers query it to size workspaces
// (the paper's LA_GETRI listing calls ILAENV to pick NB). We keep the same
// contract — a process-wide, overridable table keyed by routine family —
// so benches can ablate block sizes and tests can force the unblocked path.
//
// Value resolution (most to least authoritative):
//
//   1. environment variable (LAPACK90_GEMM_KC, LAPACK90_SERVE_BATCH, ...) — a
//      deployment-level pin that beats everything programmatic;
//   2. set_env_override — the process-wide programmatic override;
//   3. builtin default — the hand-measured constants in src/env.cpp.
//
// EnvSpec::Threads is the one exception: it keeps the historical
// override-beats-environment order (set_num_threads is the API every bench
// and test uses to force a team size, and LAPACK90_NUM_THREADS is already
// merely the *default* source).
#pragma once

#include "lapack90/core/types.hpp"

namespace la {

/// Tuning query kinds, mirroring ILAENV's ISPEC values we use (ISPEC 2,
/// NBMIN, is not one of them).
enum class EnvSpec : int {
  BlockSize = 1,       ///< optimal block size NB; for getrf/potrf/geqrf the
                       ///< tile edge of the task-DAG drivers
  Crossover = 3,       ///< crossover point N below which unblocked is used
                       ///< (for EnvRoutine::gemm: the m*n*k flop-product
                       ///< below which the packed path is skipped)
  Threads = 4,         ///< worker count for the parallel Level-3 runtime
                       ///< (our extension; not a reference ILAENV ISPEC)
  CacheBlockM = 5,     ///< gemm MC: rows of the packed A block (extension)
  CacheBlockK = 6,     ///< gemm KC: depth of the packed panels (extension)
  CacheBlockN = 7,     ///< gemm NC: columns of the shared B panel (extension)
  BatchGrain = 8,      ///< batch scheduler threshold: entries whose largest
                       ///< dimension reaches this run sequentially with the
                       ///< threaded Level-3 path inside each entry; smaller
                       ///< entries are distributed across workers (extension)
  IterRefineMaxIter = 9,  ///< mixed-precision refinement: iteration budget
                          ///< before the ITER<0 stall fallback to the
                          ///< full-precision factorization (extension;
                          ///< LAPACK90_IR_MAXITER)
  IterRefineCutoff = 10,  ///< mixed-precision refinement: problem dimension
                          ///< below which demote/refine is not attempted and
                          ///< the driver goes straight to full precision
                          ///< with ITER = -1 (extension; LAPACK90_IR_CUTOFF)
  ServeQueueDepth = 11,  ///< serving subsystem admission bound: maximum
                         ///< admitted-but-uncompleted job entries per
                         ///< la::serve::Server before submissions are
                         ///< rejected with INFO = kInfoRejected (extension;
                         ///< LAPACK90_SERVE_QUEUE)
  ServeBatchMax = 12,  ///< serving subsystem coalescing width: a group is
                       ///< flushed as soon as it holds this many entries,
                       ///< and partial groups flush whenever the queue
                       ///< runs dry, so no unit waits on a timer; 1
                       ///< disables coalescing (per-job execution)
                       ///< (extension; LAPACK90_SERVE_BATCH)
};

/// Routine families with distinct tuning entries.
enum class EnvRoutine : int {
  getrf = 0,
  potrf,
  geqrf,
  gelqf,
  ormqr,
  getri,
  sytrd,
  gehrd,
  gebrd,
  gemm,
  count_,  // sentinel
};

/// Extent of the (spec, routine) table: specs are 1-based ISPEC values;
/// the unused ISPEC 2 keeps its row and is never a valid slot.
inline constexpr int kEnvSpecCount = 12;
static_assert(kEnvSpecCount == static_cast<int>(EnvSpec::ServeBatchMax),
              "the last ISPEC value sizes the table");
inline constexpr int kEnvRoutineCount = static_cast<int>(EnvRoutine::count_);

namespace detail {

/// Strict positive-integer parser for environment settings: returns
/// `fallback` unless `s` is a complete decimal integer in [1, max_value]
/// (leading/trailing whitespace tolerated). Rejects what a bare strtol
/// would accept: trailing garbage ("64abc"), values that overflow long,
/// zero and negatives. Exposed here so the hardening is unit-testable.
[[nodiscard]] idx parse_env_idx(const char* s, idx max_value,
                                idx fallback) noexcept;

/// Hardened environment knob: `getenv(name)` through parse_env_idx. The one
/// shared reader behind every LAPACK90_* integer variable (thread count,
/// gemm cache blocks, batch grain, refinement knobs, serving knobs) —
/// malformed or out-of-range settings fall back instead of misconfiguring.
[[nodiscard]] idx env_knob(const char* name, idx max_value,
                           idx fallback) noexcept;

/// True when (spec, routine) indexes a real slot of the override table —
/// the guard that keeps a cast-from-integer enum from walking off the
/// override array. Everything that writes a slot routes through this.
[[nodiscard]] bool valid_env_slot(EnvSpec spec, EnvRoutine routine) noexcept;

/// Flat slot index for a (validated) pair.
[[nodiscard]] inline int env_slot(EnvSpec spec, EnvRoutine routine) noexcept {
  return (static_cast<int>(spec) - 1) * kEnvRoutineCount +
         static_cast<int>(routine);
}

/// Largest legal value per spec: the same clamp the env readers and
/// set_env_override both apply (e.g. thread counts at 2^15, block sizes at
/// 2^20).
[[nodiscard]] idx env_spec_max(EnvSpec spec) noexcept;

/// Environment variable carrying this spec's pin, or nullptr when the spec
/// has none (BlockSize/Crossover are builtin/override only; Threads
/// resolves through the parallel runtime instead).
[[nodiscard]] const char* env_knob_name(EnvSpec spec) noexcept;

/// Re-read every LAPACK90_* knob variable into the process cache. The cache
/// is populated once on first use; this hook exists for the tests (which
/// setenv/unsetenv around precedence checks).
void refresh_env_cache() noexcept;

/// True when at least one knob environment variable is set and valid —
/// feeds the "knobs: builtin+env" component of la::version().
[[nodiscard]] bool any_env_knob_set() noexcept;

}  // namespace detail

/// ILAENV equivalent: returns the tuning value for (spec, routine) given
/// the problem size n, resolved through the precedence chain in the file
/// comment. Never returns less than 1; an out-of-range (spec, routine)
/// pair returns 1 instead of reading past the table.
[[nodiscard]] idx ilaenv(EnvSpec spec, EnvRoutine routine, idx n) noexcept;

/// Override a tuning value for the whole process (0 restores the default).
/// Returns the previous override (0 when none was set). Validated like the
/// env readers: an out-of-range (spec, routine) pair is a no-op returning
/// 0, and a negative value or one above detail::env_spec_max(spec) is
/// rejected — the slot keeps its current setting, which is returned.
idx set_env_override(EnvSpec spec, EnvRoutine routine, idx value) noexcept;

/// Convenience: the block size actually used for `routine` at size n —
/// applies the crossover rule (nb=1 below the crossover point).
[[nodiscard]] idx block_size(EnvRoutine routine, idx n) noexcept;

}  // namespace la
