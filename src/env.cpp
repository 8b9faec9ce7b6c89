// ILAENV-analog tuning tables — see include/lapack90/core/env.hpp.
//
// Resolution order for every spec except Threads: environment variable >
// set_env_override > builtin. Threads keeps override > environment
// default (set_num_threads is the team-size forcing API).

#include "lapack90/core/env.hpp"

#include <array>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "lapack90/core/parallel.hpp"

namespace la {

namespace detail {

idx parse_env_idx(const char* s, idx max_value, idx fallback) noexcept {
  if (s == nullptr || *s == '\0') {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || errno == ERANGE) {
    return fallback;  // no digits, or overflowed long
  }
  while (std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  if (*end != '\0') {
    return fallback;  // trailing garbage ("64abc", "1e6")
  }
  if (v < 1 || v > static_cast<long>(max_value)) {
    return fallback;  // zero, negative, or out of the legal range
  }
  return static_cast<idx>(v);
}

idx env_knob(const char* name, idx max_value, idx fallback) noexcept {
  return parse_env_idx(std::getenv(name), max_value, fallback);
}

bool valid_env_slot(EnvSpec spec, EnvRoutine routine) noexcept {
  const int s = static_cast<int>(spec);
  const int r = static_cast<int>(routine);
  return s >= 1 && s <= kEnvSpecCount && s != 2 && r >= 0 &&
         r < kEnvRoutineCount;  // ISPEC 2 (NBMIN) is unused
}

idx env_spec_max(EnvSpec spec) noexcept {
  switch (spec) {
    case EnvSpec::BlockSize:
      return idx{1} << 20;
    case EnvSpec::Threads:
      return idx{1} << 15;  // matches the parallel runtime's env clamp
    case EnvSpec::ServeQueueDepth:
    case EnvSpec::ServeBatchMax:
      return idx{1} << 20;
    case EnvSpec::Crossover:
    case EnvSpec::CacheBlockM:
    case EnvSpec::CacheBlockK:
    case EnvSpec::CacheBlockN:
    case EnvSpec::BatchGrain:
    case EnvSpec::IterRefineMaxIter:
    case EnvSpec::IterRefineCutoff:
      return idx{1} << 28;
  }
  return idx{1} << 28;
}

const char* env_knob_name(EnvSpec spec) noexcept {
  switch (spec) {
    case EnvSpec::CacheBlockM:
      return "LAPACK90_GEMM_MC";
    case EnvSpec::CacheBlockK:
      return "LAPACK90_GEMM_KC";
    case EnvSpec::CacheBlockN:
      return "LAPACK90_GEMM_NC";
    case EnvSpec::BatchGrain:
      return "LAPACK90_BATCH_GRAIN";
    case EnvSpec::IterRefineMaxIter:
      return "LAPACK90_IR_MAXITER";
    case EnvSpec::IterRefineCutoff:
      return "LAPACK90_IR_CUTOFF";
    case EnvSpec::ServeQueueDepth:
      return "LAPACK90_SERVE_QUEUE";
    case EnvSpec::ServeBatchMax:
      return "LAPACK90_SERVE_BATCH";
    case EnvSpec::BlockSize:
    case EnvSpec::Crossover:
    case EnvSpec::Threads:  // resolved by the parallel runtime instead
      return nullptr;
  }
  return nullptr;
}

}  // namespace detail

namespace {

constexpr int kRoutines = kEnvRoutineCount;
constexpr int kSpecs = kEnvSpecCount;

struct Defaults {
  idx nb;
  idx nx;
};

// Defaults follow the reference ILAENV choices (NB=64 for factorizations,
// 32 for two-sided reductions) with crossover points where the blocked
// path starts to pay for itself. The two-sided reduction crossovers were
// measured with bench_reductions (see EXPERIMENTS.md): the panel kernels
// stay gemv/hemv-bound, so blocking wins once the her2k/gemm/larfb
// trailing updates carry enough flops — on the CI box (one core, 105 MB
// L3 that keeps level-2 streaming unusually competitive) blocked gehrd
// crosses between n=128 and 256, sytrd and gebrd between 256 and 512.
// Machines with ordinary cache hierarchies cross earlier; pin the
// crossover with set_env_override where that matters.
//
// getrf, potrf and geqrf are the exception: their NB is the tile edge of the
// task DAG (lapack/tiled.hpp). LU tiles in 2D: an nb=128 tile pair of
// complex<double> stays in L2, and getrf time is flat between 64 and 128. QR
// tiles are full-height column tiles, so each step's panel (geqr2 + larft down
// all remaining rows) sits serially on the critical path and only n/nb column
// tiles update in parallel. Halving the edge to 64 halves that panel chain and
// doubles the parallelism: geqrf 2048x1024 on a 4-core AVX-512 Xeon, 4 workers,
// 90 ms at 64 vs 164 ms at 128. Cholesky is fastest at 64 too: potrf 1024 on
// the same host reads 11.0 ms at 64 vs 16.6 ms at 128 on 4 workers and 29.7 vs
// 40.5 ms on 1, and 64 is no slower at n = 512 or 2048 (EXPERIMENTS.md, medians
// of 5 over nb 64/96/128). The crossover is 128 for all three, so a blocked
// call spans at least two tiles.
constexpr std::array<Defaults, kRoutines> kDefaults = {{
    {128, 128},  // getrf
    {64, 128},  // potrf
    {64, 128},  // geqrf
    {32, 128},  // gelqf
    {32, 128},  // ormqr (also the org* accumulation family)
    {64, 64},   // getri
    {32, 384},  // sytrd
    {32, 128},  // gehrd
    {32, 384},  // gebrd
    {64, 32768},  // gemm (nb = cache block edge; nx = m*n*k flop-product
                  // below which packing is skipped)
}};

// Builtin values for the routine-independent specs (the per-VM hand
// measurements PRs 1..6 shipped). The gemm cache blocks are in elements,
// shared by all four element types (the register tile MR/NR is a
// compile-time per-ISA constant in blas/level3.hpp); 256 is where a single
// dgetrf stops being "tiny" for the batch scheduler; the refinement knobs
// follow the reference DSGESV (ITERMAX=30) and the measured demote/refine
// round-trip break-even. The
// cache blocks are fixed rather than derived from the machine: on a 4-core
// AVX-512 Xeon, five MC/KC/NC settings from 128/256/512 to 384/256/4096
// all timed n=1024 dgemm inside one setting's own run-to-run spread.
constexpr idx kGemmMCDefault = 128;
constexpr idx kGemmKCDefault = 256;
constexpr idx kGemmNCDefault = 512;
constexpr idx kBatchGrainDefault = 256;
constexpr idx kIrMaxIterDefault = 30;
constexpr idx kIrCutoffDefault = 64;
// Serving defaults: 4096 in-flight entries bounds a server's memory and
// tail latency without starving the load generator's saturation runs; 64
// entries per coalesced batch is past the point where per-flush overhead
// is fully amortized for tiny problems.
constexpr idx kServeQueueDefault = 4096;
constexpr idx kServeBatchMaxDefault = 64;

idx builtin_value(EnvSpec spec, EnvRoutine routine) noexcept {
  const Defaults& d = kDefaults[static_cast<int>(routine)];
  switch (spec) {
    case EnvSpec::BlockSize:
      return d.nb;
    case EnvSpec::Crossover:
      return d.nx;
    case EnvSpec::Threads:
      return detail::default_thread_count();
    case EnvSpec::CacheBlockM:
      return kGemmMCDefault;
    case EnvSpec::CacheBlockK:
      return kGemmKCDefault;
    case EnvSpec::CacheBlockN:
      return kGemmNCDefault;
    case EnvSpec::BatchGrain:
      return kBatchGrainDefault;
    case EnvSpec::IterRefineMaxIter:
      return kIrMaxIterDefault;
    case EnvSpec::IterRefineCutoff:
      return kIrCutoffDefault;
    case EnvSpec::ServeQueueDepth:
      return kServeQueueDefault;
    case EnvSpec::ServeBatchMax:
      return kServeBatchMaxDefault;
  }
  return 1;
}

// Per-spec cache of the LAPACK90_* knob variables, 0 = unset or invalid.
// Populated once on first use through the hardened env_knob reader;
// detail::refresh_env_cache() re-reads for the tests.
struct EnvVarCache {
  std::array<std::atomic<idx>, kSpecs> value{};
};

void fill_env_cache(EnvVarCache& c) noexcept {
  for (int s = 1; s <= kSpecs; ++s) {
    const auto spec = static_cast<EnvSpec>(s);
    const char* name = detail::env_knob_name(spec);
    c.value[static_cast<std::size_t>(s - 1)].store(
        name != nullptr ? detail::env_knob(name, detail::env_spec_max(spec), 0)
                        : 0,
        std::memory_order_relaxed);
  }
}

EnvVarCache& env_cache() noexcept {
  static EnvVarCache cache;
  // Magic-static guard: the first caller fills the cache, concurrent
  // callers wait on the guard until it is initialized.
  static const bool initialized = (fill_env_cache(cache), true);
  (void)initialized;
  return cache;
}

idx env_var_value(EnvSpec spec) noexcept {
  return env_cache()
      .value[static_cast<std::size_t>(static_cast<int>(spec) - 1)]
      .load(std::memory_order_relaxed);
}

std::array<std::atomic<idx>, kRoutines * kSpecs>& overrides() noexcept {
  static std::array<std::atomic<idx>, kRoutines * kSpecs> table{};
  return table;
}

}  // namespace

namespace detail {

void refresh_env_cache() noexcept { fill_env_cache(env_cache()); }

bool any_env_knob_set() noexcept {
  for (int s = 1; s <= kSpecs; ++s) {
    if (env_var_value(static_cast<EnvSpec>(s)) > 0) {
      return true;
    }
  }
  return false;
}

}  // namespace detail

idx ilaenv(EnvSpec spec, EnvRoutine routine, idx n) noexcept {
  if (!detail::valid_env_slot(spec, routine)) {
    return 1;
  }
  const idx ov =
      overrides()[detail::env_slot(spec, routine)].load(std::memory_order_relaxed);
  idx v;
  if (spec == EnvSpec::Threads) {
    // Historical order: the set_num_threads override beats the environment
    // default (which already folds in LAPACK90_NUM_THREADS).
    v = ov > 0 ? ov : detail::default_thread_count();
  } else if (const idx ev = env_var_value(spec); ev > 0) {
    v = ev;  // deployment pin: the env var beats everything programmatic
  } else if (ov > 0) {
    v = ov;
  } else {
    v = builtin_value(spec, routine);
  }
  // Never hand back a block larger than the problem (matches the paper's
  // LA_GETRI guard: IF (NB < 1 .OR. NB >= N) NB = 1).
  if (spec == EnvSpec::BlockSize && n > 0 && v > n) {
    v = n;
  }
  return v < 1 ? 1 : v;
}

idx set_env_override(EnvSpec spec, EnvRoutine routine, idx value) noexcept {
  if (!detail::valid_env_slot(spec, routine)) {
    return 0;
  }
  std::atomic<idx>& slot = overrides()[detail::env_slot(spec, routine)];
  if (value < 0 || value > detail::env_spec_max(spec)) {
    // Rejected with the env readers' clamping rules: the slot keeps its
    // current setting instead of storing a team size of -3 verbatim.
    return slot.load(std::memory_order_relaxed);
  }
  return slot.exchange(value, std::memory_order_relaxed);
}

idx block_size(EnvRoutine routine, idx n) noexcept {
  const idx nx = ilaenv(EnvSpec::Crossover, routine, n);
  if (n <= nx) {
    return 1;
  }
  return ilaenv(EnvSpec::BlockSize, routine, n);
}

}  // namespace la
