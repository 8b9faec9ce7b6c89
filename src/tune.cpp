// la::tune — self-tuning runtime. See include/lapack90/tune/tune.hpp.
//
// Layout of this file:
//   1. machine signature (ISA + sysconf cache geometry + worker count)
//   2. tuning-file paths, allocation-free parser, save
//   3. the live tuning layer ilaenv consults (atomic slots, lazy load)
//   4. the coordinate-descent sweep engine
//   5. tune_main — the CLI shared by lapack90_tune and `bench_* --tune`
//
// Everything the ilaenv hot path can reach (detail::tuned_value and the
// lazy first-touch load behind it) is allocation-free C stdio and never
// throws; the sweep engine below it is ordinary C++.

#include "lapack90/tune/tune.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#if !defined(_WIN32)
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "lapack90/lapack90.hpp"

namespace la::tune {

namespace {

constexpr int kSlots = kEnvSpecCount * kEnvRoutineCount;

const char* const kSpecNames[kEnvSpecCount] = {
    "BlockSize",    nullptr /* ISPEC 2 (NBMIN) is unused */, "Crossover",
    "Threads",      "CacheBlockM",       "CacheBlockK",
    "CacheBlockN",  "BatchGrain",        "IterRefineMaxIter",
    "IterRefineCutoff", "TileSize",      "TileScheduler",
    "ServeQueueDepth",  "ServeFlushUs",  "ServeBatchMax",
    "ServeShards",
};

const char* const kRoutineNames[kEnvRoutineCount] = {
    "getrf", "potrf", "geqrf", "gelqf", "ormqr",
    "getri", "sytrd", "gehrd", "gebrd", "gemm",
};

int spec_index(const char* name) noexcept {
  for (int s = 0; s < kEnvSpecCount; ++s) {
    if (kSpecNames[s] != nullptr && std::strcmp(name, kSpecNames[s]) == 0) {
      return s + 1;  // specs are 1-based
    }
  }
  return 0;
}

int routine_index(const char* name) noexcept {
  for (int r = 0; r < kEnvRoutineCount; ++r) {
    if (std::strcmp(name, kRoutineNames[r]) == 0) {
      return r;
    }
  }
  return -1;
}

// --------------------------------------------------------------------------
// 1. Machine signature
// --------------------------------------------------------------------------

long cache_size_bytes(int level) noexcept {
#if defined(_SC_LEVEL1_DCACHE_SIZE) && defined(_SC_LEVEL2_CACHE_SIZE) && \
    defined(_SC_LEVEL3_CACHE_SIZE)
  long v = -1;
  switch (level) {
    case 1:
      v = ::sysconf(_SC_LEVEL1_DCACHE_SIZE);
      break;
    case 2:
      v = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
      break;
    case 3:
      v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
      break;
    default:
      break;
  }
  return v > 0 ? v : 0;
#else
  (void)level;
  return 0;
#endif
}

/// Canonical signature into a caller buffer; returns false on truncation.
bool signature_c(char* buf, std::size_t cap) noexcept {
  const int n = std::snprintf(
      buf, cap, "%s-l1:%ld-l2:%ld-l3:%ld-nt:%ld", simd_isa_name(),
      cache_size_bytes(1), cache_size_bytes(2), cache_size_bytes(3),
      static_cast<long>(la::detail::default_thread_count()));
  return n > 0 && static_cast<std::size_t>(n) < cap;
}

// --------------------------------------------------------------------------
// 2. Paths, parser, save
// --------------------------------------------------------------------------

/// Resolve the tuning-file path ilaenv should look for. Returns false when
/// loading is disabled (LAPACK90_TUNE_FILE=off) or unresolvable (no HOME).
bool default_tune_path_c(char* buf, std::size_t cap) noexcept {
  const char* forced = std::getenv("LAPACK90_TUNE_FILE");
  if (forced != nullptr && *forced != '\0') {
    if (std::strcmp(forced, "off") == 0) {
      return false;
    }
    const int n = std::snprintf(buf, cap, "%s", forced);
    return n > 0 && static_cast<std::size_t>(n) < cap;
  }
  char sig[160];
  if (!signature_c(sig, sizeof sig)) {
    return false;
  }
  const char* xdg = std::getenv("XDG_CACHE_HOME");
  int n;
  if (xdg != nullptr && *xdg != '\0') {
    n = std::snprintf(buf, cap, "%s/lapack90/tune-%s.conf", xdg, sig);
  } else {
    const char* home = std::getenv("HOME");
    if (home == nullptr || *home == '\0') {
      return false;
    }
    n = std::snprintf(buf, cap, "%s/.cache/lapack90/tune-%s.conf", home, sig);
  }
  return n > 0 && static_cast<std::size_t>(n) < cap;
}

struct ParseCounters {
  int applied = 0;
  int skipped = 0;
};

/// Next line that is not blank and not a comment; false at EOF.
bool next_significant_line(std::FILE* f, char* line, std::size_t cap) noexcept {
  while (std::fgets(line, static_cast<int>(cap), f) != nullptr) {
    const char* p = line;
    while (*p == ' ' || *p == '\t') {
      ++p;
    }
    if (*p != '\0' && *p != '\n' && *p != '\r' && *p != '#') {
      return true;
    }
  }
  return false;
}

/// Allocation-free parser core shared by the lazy first-touch load and the
/// public load_file. `slots` must hold kSlots entries and is only written
/// on LoadStatus::Loaded. `expect_sig` (when non-null) must match the
/// file's signature line. The file's signature is copied to sig_out.
LoadStatus parse_file_c(const char* path, idx* slots, char* sig_out,
                        std::size_t sig_cap, const char* expect_sig,
                        ParseCounters* pc) noexcept {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return LoadStatus::NoFile;
  }
  char line[256];
  int version = 0;
  if (!next_significant_line(f, line, sizeof line) ||
      std::sscanf(line, "lapack90-tune %d", &version) != 1 ||
      version != kFileFormatVersion) {
    std::fclose(f);
    return LoadStatus::BadHeader;
  }
  char sig[160];
  if (!next_significant_line(f, line, sizeof line) ||
      std::sscanf(line, "signature %159s", sig) != 1) {
    std::fclose(f);
    return LoadStatus::BadHeader;
  }
  if (sig_out != nullptr && sig_cap > 0) {
    std::snprintf(sig_out, sig_cap, "%s", sig);
  }
  if (expect_sig != nullptr && std::strcmp(sig, expect_sig) != 0) {
    std::fclose(f);
    return LoadStatus::WrongSignature;
  }
  std::fill_n(slots, kSlots, idx{0});
  while (next_significant_line(f, line, sizeof line)) {
    char rname[32];
    char sname[32];
    char value[32];
    char extra[8];
    const int fields =
        std::sscanf(line, "%31s %31s %31s %7s", rname, sname, value, extra);
    bool ok = fields == 3;
    int s = 0;
    int r = -1;
    idx v = 0;
    if (ok) {
      s = spec_index(sname);
      r = routine_index(rname);
      // Team size is a deployment decision, never a tuning-file entry.
      ok = s != 0 && r >= 0 && static_cast<EnvSpec>(s) != EnvSpec::Threads;
    }
    if (ok) {
      // Same clamping rules as the env readers: garbage, zero, negative
      // or above the per-spec maximum falls back (here: line skipped).
      v = la::detail::parse_env_idx(
          value, la::detail::env_spec_max(static_cast<EnvSpec>(s)), 0);
      ok = v > 0;
    }
    if (ok) {
      slots[la::detail::env_slot(static_cast<EnvSpec>(s),
                                 static_cast<EnvRoutine>(r))] = v;
      if (pc != nullptr) {
        ++pc->applied;
      }
    } else if (pc != nullptr) {
      ++pc->skipped;
    }
  }
  std::fclose(f);
  return LoadStatus::Loaded;
}

/// mkdir -p for the directory part of `path` (POSIX; no-op elsewhere).
void make_parent_dirs(const char* path) noexcept {
#if !defined(_WIN32)
  char buf[512];
  const int n = std::snprintf(buf, sizeof buf, "%s", path);
  if (n <= 0 || static_cast<std::size_t>(n) >= sizeof buf) {
    return;
  }
  for (char* p = buf + 1; *p != '\0'; ++p) {
    if (*p == '/') {
      *p = '\0';
      ::mkdir(buf, 0755);  // EEXIST is fine
      *p = '/';
    }
  }
#else
  (void)path;
#endif
}

// --------------------------------------------------------------------------
// 3. The live tuning layer
// --------------------------------------------------------------------------

enum TuneSource : int { kSourceBuiltin = 0, kSourceFile = 1, kSourceApi = 2 };

struct TuneState {
  std::array<std::atomic<idx>, kSlots> slots{};
  std::atomic<int> source{kSourceBuiltin};
  std::atomic<bool> checked{false};  // first-touch load resolved
  std::mutex mutex;                  // serializes load/install/clear
  char file[512] = {0};              // path actually loaded, "" if none
};

TuneState& state() noexcept {
  static TuneState s;
  return s;
}

/// First-touch load of the default tuning file. Never throws; any problem
/// (no file, bad header, wrong signature) leaves the builtins in effect.
void ensure_loaded() noexcept {
  TuneState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  if (st.checked.load(std::memory_order_relaxed)) {
    return;
  }
  char path[512];
  if (default_tune_path_c(path, sizeof path)) {
    idx slots[kSlots];
    char sig[160];
    char expect[160];
    if (signature_c(expect, sizeof expect) &&
        parse_file_c(path, slots, sig, sizeof sig, expect, nullptr) ==
            LoadStatus::Loaded) {
      for (int i = 0; i < kSlots; ++i) {
        st.slots[static_cast<std::size_t>(i)].store(slots[i],
                                                    std::memory_order_relaxed);
      }
      std::snprintf(st.file, sizeof st.file, "%s", path);
      st.source.store(kSourceFile, std::memory_order_relaxed);
    }
  }
  st.checked.store(true, std::memory_order_release);
}

void install_locked(TuneState& st, const TuningTable& table, int source,
                    const char* path) noexcept {
  for (int i = 0; i < kSlots; ++i) {
    st.slots[static_cast<std::size_t>(i)].store(
        table.values[static_cast<std::size_t>(i)], std::memory_order_relaxed);
  }
  std::snprintf(st.file, sizeof st.file, "%s", path != nullptr ? path : "");
  st.source.store(source, std::memory_order_relaxed);
  st.checked.store(true, std::memory_order_release);
}

}  // namespace

}  // namespace la::tune

namespace la::detail {

idx tuned_value(EnvSpec spec, EnvRoutine routine) noexcept {
  if (spec == EnvSpec::Threads) {
    return 0;
  }
  tune::TuneState& st = tune::state();
  if (!st.checked.load(std::memory_order_acquire)) {
    tune::ensure_loaded();
  }
  return st.slots[static_cast<std::size_t>(env_slot(spec, routine))].load(
      std::memory_order_relaxed);
}

}  // namespace la::detail

namespace la::tune {

std::string MachineSignature::str() const {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%s-l1:%ld-l2:%ld-l3:%ld-nt:%ld", isa, l1d,
                l2, l3, static_cast<long>(threads));
  return buf;
}

MachineSignature machine_signature() noexcept {
  return MachineSignature{simd_isa_name(), cache_size_bytes(1),
                          cache_size_bytes(2), cache_size_bytes(3),
                          la::detail::default_thread_count()};
}

std::string default_tune_file() {
  char buf[512];
  if (!default_tune_path_c(buf, sizeof buf)) {
    return {};
  }
  return buf;
}

bool TuningTable::set(EnvSpec spec, EnvRoutine routine, idx value) noexcept {
  if (!la::detail::valid_env_slot(spec, routine) || value < 0 ||
      value > la::detail::env_spec_max(spec)) {
    return false;
  }
  values[static_cast<std::size_t>(la::detail::env_slot(spec, routine))] =
      value;
  return true;
}

bool TuningTable::empty() const noexcept {
  for (const idx v : values) {
    if (v != 0) {
      return false;
    }
  }
  return true;
}

LoadStatus load_file(const std::string& path, TuningTable& out, LoadInfo* info,
                     bool require_signature_match) {
  idx slots[kSlots];
  char sig[160] = {0};
  char expect[160];
  const char* expect_p = nullptr;
  if (require_signature_match && signature_c(expect, sizeof expect)) {
    expect_p = expect;
  }
  ParseCounters pc;
  const LoadStatus status =
      parse_file_c(path.c_str(), slots, sig, sizeof sig, expect_p, &pc);
  if (info != nullptr) {
    info->applied = pc.applied;
    info->skipped = pc.skipped;
  }
  if (status == LoadStatus::Loaded) {
    std::copy_n(slots, kSlots, out.values.begin());
    out.signature = sig;
  }
  return status;
}

bool save_file(const std::string& path, const TuningTable& table) {
  make_parent_dirs(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string sig =
      table.signature.empty() ? machine_signature().str() : table.signature;
  std::fprintf(f, "lapack90-tune %d\n", kFileFormatVersion);
  std::fprintf(f, "signature %s\n", sig.c_str());
  std::fprintf(f, "# measured by lapack90_tune; <routine> <spec> <value>\n");
  for (int s = 1; s <= kEnvSpecCount; ++s) {
    if (static_cast<EnvSpec>(s) == EnvSpec::Threads) {
      continue;
    }
    for (int r = 0; r < kEnvRoutineCount; ++r) {
      const idx v = table.values[static_cast<std::size_t>(la::detail::env_slot(
          static_cast<EnvSpec>(s), static_cast<EnvRoutine>(r)))];
      if (v > 0) {
        std::fprintf(f, "%s %s %ld\n", kRoutineNames[r], kSpecNames[s - 1],
                     static_cast<long>(v));
      }
    }
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

void install(const TuningTable& table) noexcept {
  TuneState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  install_locked(st, table, kSourceApi, nullptr);
}

LoadStatus load_and_install(const std::string& path, LoadInfo* info) {
  TuningTable table;
  const LoadStatus status = load_file(path, table, info, true);
  if (status == LoadStatus::Loaded) {
    TuneState& st = state();
    std::lock_guard<std::mutex> lock(st.mutex);
    install_locked(st, table, kSourceFile, path.c_str());
  }
  return status;
}

void clear() noexcept {
  TuneState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  install_locked(st, TuningTable{}, kSourceBuiltin, nullptr);
}

const char* source() noexcept {
  TuneState& st = state();
  if (!st.checked.load(std::memory_order_acquire)) {
    ensure_loaded();
  }
  switch (st.source.load(std::memory_order_relaxed)) {
    case kSourceFile:
      return "file";
    case kSourceApi:
      return "api";
    default:
      return "builtin";
  }
}

const char* active_file() noexcept {
  TuneState& st = state();
  if (!st.checked.load(std::memory_order_acquire)) {
    ensure_loaded();
  }
  return st.file;
}

namespace detail {

void reset_first_touch_for_testing() noexcept {
  TuneState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  for (auto& slot : st.slots) {
    slot.store(0, std::memory_order_relaxed);
  }
  st.file[0] = '\0';
  st.source.store(kSourceBuiltin, std::memory_order_relaxed);
  st.checked.store(false, std::memory_order_release);
}

}  // namespace detail

// --------------------------------------------------------------------------
// 4. Sweep engine
// --------------------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Warm once, then best wall time of `reps` runs.
template <class F>
double time_best(int reps, F&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < std::max(1, reps); ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// An ilaenv override held for a scope, restoring the previous setting.
class ScopedOverride {
 public:
  ScopedOverride(EnvSpec spec, EnvRoutine routine, idx value) noexcept
      : spec_(spec),
        routine_(routine),
        prev_(set_env_override(spec, routine, value)) {}
  ~ScopedOverride() { set_env_override(spec_, routine_, prev_); }
  ScopedOverride(const ScopedOverride&) = delete;
  ScopedOverride& operator=(const ScopedOverride&) = delete;

 private:
  EnvSpec spec_;
  EnvRoutine routine_;
  idx prev_;
};

/// True when the knob is pinned by its environment variable — the pin
/// outranks overrides, so sweeping it would measure nothing.
bool env_pinned(EnvSpec spec) noexcept {
  const char* name = la::detail::env_knob_name(spec);
  return name != nullptr &&
         la::detail::env_knob(name, la::detail::env_spec_max(spec), 0) > 0;
}

/// Candidate ladder warm-started around `warm`: multiples of the current
/// value, snapped to `step` and clamped to [lo, hi], deduplicated.
std::vector<idx> ladder(idx warm, idx step, idx lo, idx hi) {
  const double factors[] = {0.5, 0.75, 1.0, 1.5, 2.0};
  std::vector<idx> c;
  for (const double f : factors) {
    idx v = static_cast<idx>(f * static_cast<double>(warm));
    v = std::max<idx>(step, v - v % step);
    v = std::min(std::max(v, lo), hi);
    if (std::find(c.begin(), c.end(), v) == c.end()) {
      c.push_back(v);
    }
  }
  return c;
}

struct SweepContext {
  const SweepOptions& opt;
  Clock::time_point t0;
  bool expired() const {
    return seconds_since(t0) >= opt.budget_seconds;
  }
  void log(const char* fmt, ...) const __attribute__((format(printf, 2, 3))) {
    if (!opt.verbose) {
      return;
    }
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stdout, fmt, args);
    va_end(args);
    std::fflush(stdout);
  }
};

Matrix<double> random_mat(idx m, idx n, int salt) {
  Iseed seed = {idx(salt % 4096), 1, 2, 3};
  Matrix<double> a(m, n);
  larnv(Dist::Uniform11, seed, m * n, a.data());
  return a;
}

double time_dgemm(idx n, const Matrix<double>& a, const Matrix<double>& b,
                  Matrix<double>& c, int reps) {
  return time_best(reps, [&] {
    blas::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n, 1.0, a.data(), a.ld(),
               b.data(), b.ld(), 0.0, c.data(), c.ld());
  });
}

/// Coordinate descent over the gemm cache blocks MC/KC/NC (elements,
/// shared by all four element types — the per-type register tiles are
/// compile-time constants). Two rounds of one-dimensional best-of sweeps,
/// warm-started from the effective values.
void sweep_gemm_blocks(SweepContext& ctx, TuningTable& table) {
  const idx n = ctx.opt.gemm_n;
  const auto a = random_mat(n, n, 41);
  const auto b = random_mat(n, n, 42);
  Matrix<double> c(n, n);
  struct Knob {
    EnvSpec spec;
    idx step, lo, hi;
    idx best;
  };
  Knob knobs[3] = {
      {EnvSpec::CacheBlockK, 16, 32, 2048,
       ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0)},
      {EnvSpec::CacheBlockM, 16, 32, 1024,
       ilaenv(EnvSpec::CacheBlockM, EnvRoutine::gemm, 0)},
      {EnvSpec::CacheBlockN, 24, 48, 4096,
       ilaenv(EnvSpec::CacheBlockN, EnvRoutine::gemm, 0)},
  };
  // Pin every coordinate to its current best while one is swept.
  ScopedOverride okc(EnvSpec::CacheBlockK, EnvRoutine::gemm, knobs[0].best);
  ScopedOverride omc(EnvSpec::CacheBlockM, EnvRoutine::gemm, knobs[1].best);
  ScopedOverride onc(EnvSpec::CacheBlockN, EnvRoutine::gemm, knobs[2].best);
  for (int round = 0; round < 2 && !ctx.expired(); ++round) {
    for (Knob& k : knobs) {
      if (env_pinned(k.spec)) {
        ctx.log("  gemm %s pinned by %s, skipping\n",
                kSpecNames[static_cast<int>(k.spec) - 1],
                la::detail::env_knob_name(k.spec));
        continue;
      }
      double best_t = 1e300;
      idx best_v = k.best;
      for (const idx cand : ladder(k.best, k.step, k.lo, k.hi)) {
        if (ctx.expired()) {
          break;
        }
        set_env_override(k.spec, EnvRoutine::gemm, cand);
        const double t = time_dgemm(n, a, b, c, ctx.opt.reps);
        if (t < best_t) {
          best_t = t;
          best_v = cand;
        }
      }
      k.best = best_v;
      set_env_override(k.spec, EnvRoutine::gemm, best_v);
      ctx.log("  gemm %s -> %ld (round %d, %.2f GFLOP/s)\n",
              kSpecNames[static_cast<int>(k.spec) - 1],
              static_cast<long>(best_v), round + 1,
              2.0 * n * n * double(n) / best_t * 1e-9);
    }
  }
  for (const Knob& k : knobs) {
    if (!env_pinned(k.spec)) {
      table.set(k.spec, EnvRoutine::gemm, k.best);
    }
  }
}

/// The gemm packed-path crossover: smallest m*n*k where packing pays.
/// Measured head-to-head (packed forced vs naive forced) on tiny squares.
void sweep_gemm_crossover(SweepContext& ctx, TuningTable& table) {
  const idx sizes[] = {8, 12, 16, 24, 32, 48};
  idx winner = 0;  // smallest n where the packed path won
  idx prev = 4;
  for (const idx n : sizes) {
    if (ctx.expired()) {
      return;  // keep the builtin rather than guessing from nothing
    }
    const auto a = random_mat(n, n, 43);
    const auto b = random_mat(n, n, 44);
    Matrix<double> c(n, n);
    const int iters = static_cast<int>(
        std::max<double>(8.0, 4e6 / (2.0 * n * n * double(n))));
    const auto run_with = [&](idx crossover) {
      ScopedOverride o(EnvSpec::Crossover, EnvRoutine::gemm, crossover);
      return time_best(ctx.opt.reps, [&] {
        for (int i = 0; i < iters; ++i) {
          blas::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n, 1.0, a.data(),
                     a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld());
        }
      });
    };
    const double t_packed = run_with(1);
    const double t_naive = run_with(idx{1} << 28);
    if (t_packed <= t_naive) {
      winner = n;
      break;
    }
    prev = n;
  }
  // Crossover is the m*n*k flop-product gate. Split the decade between the
  // last naive win and the first packed win; no packed win anywhere keeps
  // a cutoff above the largest size probed.
  const double lo = double(prev) * prev * prev;
  const double hi = winner > 0 ? double(winner) * winner * winner
                               : 2.0 * 48.0 * 48.0 * 48.0;
  const idx cutoff = static_cast<idx>(std::min<double>(
      double(la::detail::env_spec_max(EnvSpec::Crossover)), (lo + hi) / 2));
  table.set(EnvSpec::Crossover, EnvRoutine::gemm, std::max<idx>(cutoff, 1));
  ctx.log("  gemm Crossover -> %ld (packed wins at n=%ld)\n",
          static_cast<long>(cutoff), static_cast<long>(winner));
}

/// One-dimensional best-of sweep of a factorization knob (BlockSize on the
/// fork-join path, TileSize on the task-DAG path).
template <class Factor>
void sweep_factor_knob(SweepContext& ctx, TuningTable& table, EnvSpec spec,
                       EnvRoutine routine, TileScheduler sched, idx n,
                       idx step, idx lo, idx hi, Factor&& factor) {
  if (env_pinned(spec)) {
    ctx.log("  %s %s pinned by env, skipping\n",
            kRoutineNames[static_cast<int>(routine)],
            kSpecNames[static_cast<int>(spec) - 1]);
    return;
  }
  const TileScheduler prev_sched = set_tile_scheduler(sched);
  const idx warm = ilaenv(spec, routine, n);
  double best_t = 1e300;
  idx best_v = warm;
  for (const idx cand : ladder(warm, step, lo, hi)) {
    if (ctx.expired()) {
      break;
    }
    ScopedOverride o(spec, routine, cand);
    const double t = time_best(ctx.opt.reps, factor);
    if (t < best_t) {
      best_t = t;
      best_v = cand;
    }
  }
  set_tile_scheduler(prev_sched);
  table.set(spec, routine, best_v);
  ctx.log("  %s %s -> %ld (n=%ld, %.1f ms)\n",
          kRoutineNames[static_cast<int>(routine)],
          kSpecNames[static_cast<int>(spec) - 1], static_cast<long>(best_v),
          static_cast<long>(n), best_t * 1e3);
}

void sweep_factorizations(SweepContext& ctx, TuningTable& table) {
  {  // BlockSize drives the legacy fork-join blocked path.
    const idx n = ctx.opt.factor_n;
    const auto a0 = random_mat(n, n, 45);
    Matrix<double> spd(n, n);
    blas::gemm(Trans::NoTrans, Trans::Trans, n, n, n, 1.0, a0.data(), a0.ld(),
               a0.data(), a0.ld(), 0.0, spd.data(), spd.ld());
    for (idx i = 0; i < n; ++i) {
      spd(i, i) += double(n);
    }
    std::vector<idx> piv(static_cast<std::size_t>(n));
    std::vector<double> tau(static_cast<std::size_t>(n));
    Matrix<double> w(n, n);
    sweep_factor_knob(ctx, table, EnvSpec::BlockSize, EnvRoutine::getrf,
                      TileScheduler::ForkJoin, n, 8, 16, 512, [&] {
                        w = a0;
                        lapack::getrf(n, n, w.data(), w.ld(), piv.data());
                      });
    sweep_factor_knob(ctx, table, EnvSpec::BlockSize, EnvRoutine::potrf,
                      TileScheduler::ForkJoin, n, 8, 16, 512, [&] {
                        w = spd;
                        lapack::potrf(Uplo::Lower, n, w.data(), w.ld());
                      });
    sweep_factor_knob(ctx, table, EnvSpec::BlockSize, EnvRoutine::geqrf,
                      TileScheduler::ForkJoin, n, 8, 16, 512, [&] {
                        w = a0;
                        lapack::geqrf(n, n, w.data(), w.ld(), tau.data());
                      });
  }
  {  // TileSize drives the task-DAG tiled path (the default scheduler).
    const idx n = ctx.opt.tile_n;
    const auto a0 = random_mat(n, n, 46);
    Matrix<double> spd(n, n);
    blas::gemm(Trans::NoTrans, Trans::Trans, n, n, n, 1.0, a0.data(), a0.ld(),
               a0.data(), a0.ld(), 0.0, spd.data(), spd.ld());
    for (idx i = 0; i < n; ++i) {
      spd(i, i) += double(n);
    }
    std::vector<idx> piv(static_cast<std::size_t>(n));
    std::vector<double> tau(static_cast<std::size_t>(n));
    Matrix<double> w(n, n);
    sweep_factor_knob(ctx, table, EnvSpec::TileSize, EnvRoutine::getrf,
                      TileScheduler::TiledDag, n, 16, 32, 512, [&] {
                        w = a0;
                        lapack::getrf(n, n, w.data(), w.ld(), piv.data());
                      });
    sweep_factor_knob(ctx, table, EnvSpec::TileSize, EnvRoutine::potrf,
                      TileScheduler::TiledDag, n, 16, 32, 512, [&] {
                        w = spd;
                        lapack::potrf(Uplo::Lower, n, w.data(), w.ld());
                      });
    sweep_factor_knob(ctx, table, EnvSpec::TileSize, EnvRoutine::geqrf,
                      TileScheduler::TiledDag, n, 16, 32, 512, [&] {
                        w = a0;
                        lapack::geqrf(n, n, w.data(), w.ld(), tau.data());
                      });
  }
}

/// Batch scheduler grain: entries >= grain run serially with the threaded
/// Level-3 inside; smaller fan out one-per-worker. Measured on a batch of
/// small LU solves.
void sweep_batch_grain(SweepContext& ctx, TuningTable& table) {
  if (env_pinned(EnvSpec::BatchGrain)) {
    ctx.log("  gemm BatchGrain pinned by env, skipping\n");
    return;
  }
  const idx n = 32;
  const idx count = 64;
  const std::ptrdiff_t stride_a = static_cast<std::ptrdiff_t>(n) * n;
  const std::ptrdiff_t stride_b = n;
  const auto a0 = random_mat(n, n * count, 47);
  const auto b0 = random_mat(n, count, 48);
  std::vector<double> a(static_cast<std::size_t>(stride_a) * count);
  std::vector<double> b(static_cast<std::size_t>(stride_b) * count);
  double best_t = 1e300;
  idx best_v = ilaenv(EnvSpec::BatchGrain, EnvRoutine::gemm, 0);
  for (const idx cand : {idx{16}, idx{32}, idx{64}, idx{128}, idx{256}}) {
    if (ctx.expired()) {
      break;
    }
    ScopedOverride o(EnvSpec::BatchGrain, EnvRoutine::gemm, cand);
    const double t = time_best(ctx.opt.reps, [&] {
      std::copy_n(a0.data(), a.size(), a.data());
      std::copy_n(b0.data(), b.size(), b.data());
      const auto ba = batch::MatrixBatch<double>::strided(a.data(), n, n, n,
                                                          stride_a, count);
      const auto bb = batch::MatrixBatch<double>::strided(b.data(), n, 1, n,
                                                          stride_b, count);
      batch::gesv_batch(ba, bb);
    });
    if (t < best_t) {
      best_t = t;
      best_v = cand;
    }
  }
  table.set(EnvSpec::BatchGrain, EnvRoutine::gemm, best_v);
  ctx.log("  gemm BatchGrain -> %ld\n", static_cast<long>(best_v));
}

/// Iterative-refinement cutoff: smallest n where demote/factor/refine
/// beats the direct double factorization.
void sweep_ir_cutoff(SweepContext& ctx, TuningTable& table) {
  if (env_pinned(EnvSpec::IterRefineCutoff)) {
    ctx.log("  getrf IterRefineCutoff pinned by env, skipping\n");
    return;
  }
  idx cutoff = 0;
  idx prev = 16;
  for (const idx n : {idx{32}, idx{48}, idx{64}, idx{96}, idx{128}}) {
    if (ctx.expired()) {
      return;  // keep the builtin
    }
    const auto a0 = random_mat(n, n, 49);
    const auto b0 = random_mat(n, 1, 50);
    Matrix<double> a(n, n);
    Matrix<double> x(n, 1);
    std::vector<idx> piv(static_cast<std::size_t>(n));
    ScopedOverride o(EnvSpec::IterRefineCutoff, EnvRoutine::getrf, 1);
    idx iter = 0;
    const double t_mixed = time_best(ctx.opt.reps, [&] {
      a = a0;
      mixed::gesv(n, 1, a.data(), a.ld(), piv.data(), b0.data(), b0.ld(),
                  x.data(), x.ld(), iter);
    });
    const double t_direct = time_best(ctx.opt.reps, [&] {
      a = a0;
      x = b0;
      lapack::gesv(n, 1, a.data(), a.ld(), piv.data(), x.data(), x.ld());
    });
    if (iter > 0 && t_mixed < t_direct) {
      cutoff = n;
      break;
    }
    prev = n;
  }
  // No win up to 128 leaves the cutoff above the probed range.
  const idx v = cutoff > 0 ? std::max<idx>((prev + cutoff) / 2, 2) : 192;
  table.set(EnvSpec::IterRefineCutoff, EnvRoutine::getrf, v);
  ctx.log("  getrf IterRefineCutoff -> %ld\n", static_cast<long>(v));
}

/// Apply every tuned value in `table` as overrides for a scope.
class ScopedTableOverrides {
 public:
  explicit ScopedTableOverrides(const TuningTable& table) {
    for (int s = 1; s <= kEnvSpecCount; ++s) {
      for (int r = 0; r < kEnvRoutineCount; ++r) {
        const auto spec = static_cast<EnvSpec>(s);
        const auto routine = static_cast<EnvRoutine>(r);
        const idx v = table.get(spec, routine);
        if (v > 0) {
          prev_.push_back({spec, routine, set_env_override(spec, routine, v)});
        }
      }
    }
  }
  ~ScopedTableOverrides() {
    for (auto it = prev_.rbegin(); it != prev_.rend(); ++it) {
      set_env_override(it->spec, it->routine, it->value);
    }
  }

 private:
  struct Saved {
    EnvSpec spec;
    EnvRoutine routine;
    idx value;
  };
  std::vector<Saved> prev_;
};

}  // namespace

SweepOutcome run_sweep(const SweepOptions& options) {
  SweepOutcome out;
  SweepContext ctx{options, Clock::now()};
  // A from-scratch tune measures against the builtins: drop any loaded
  // table for the duration (the caller decides whether to install the
  // fresh result afterwards).
  clear();
  ctx.log("lapack90_tune: sweeping on %s (budget %.0f s)\n",
          machine_signature().str().c_str(), options.budget_seconds);
  sweep_gemm_blocks(ctx, out.table);
  sweep_gemm_crossover(ctx, out.table);
  sweep_factorizations(ctx, out.table);
  sweep_batch_grain(ctx, out.table);
  sweep_ir_cutoff(ctx, out.table);

  if (options.headline_n > 0) {
    const idx n = options.headline_n;
    const auto a = random_mat(n, n, 51);
    const auto b = random_mat(n, n, 52);
    Matrix<double> c(n, n);
    Matrix<double> w(n, n);
    std::vector<idx> piv(static_cast<std::size_t>(n));
    const double flops_gemm = 2.0 * n * n * double(n);
    const double flops_lu = 2.0 / 3.0 * n * n * double(n);
    out.builtin_dgemm_gflops =
        flops_gemm / time_dgemm(n, a, b, c, options.reps) * 1e-9;
    out.builtin_dgetrf_gflops =
        flops_lu / time_best(options.reps, [&] {
          w = a;
          lapack::getrf(n, n, w.data(), w.ld(), piv.data());
        }) *
        1e-9;
    {
      ScopedTableOverrides tuned(out.table);
      out.tuned_dgemm_gflops =
          flops_gemm / time_dgemm(n, a, b, c, options.reps) * 1e-9;
      out.tuned_dgetrf_gflops =
          flops_lu / time_best(options.reps, [&] {
            w = a;
            lapack::getrf(n, n, w.data(), w.ld(), piv.data());
          }) *
          1e-9;
    }
    ctx.log(
        "  headline n=%ld: dgemm %.2f -> %.2f GFLOP/s, dgetrf %.2f -> %.2f "
        "GFLOP/s\n",
        static_cast<long>(n), out.builtin_dgemm_gflops, out.tuned_dgemm_gflops,
        out.builtin_dgetrf_gflops, out.tuned_dgetrf_gflops);
  }
  out.table.signature = machine_signature().str();
  out.seconds = seconds_since(ctx.t0);
  return out;
}

// --------------------------------------------------------------------------
// 5. CLI
// --------------------------------------------------------------------------

int tune_main(int argc, char** argv) {
  SweepOptions opt;
  std::string out_path;
  bool dry_run = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quiet") == 0) {
      opt.verbose = false;
    } else if (std::strcmp(arg, "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(arg, "--budget") == 0 && i + 1 < argc) {
      const double b = std::atof(argv[++i]);
      if (b > 0) {
        opt.budget_seconds = b;
      }
    } else {
      std::fprintf(stderr,
                   "usage: lapack90_tune [--out PATH] [--budget SECONDS] "
                   "[--dry-run] [--quiet]\n");
      return 2;
    }
  }
  std::printf("%s\n", version());
  const SweepOutcome outcome = run_sweep(opt);
  std::printf("tuned values (%s, %.1f s):\n", outcome.table.signature.c_str(),
              outcome.seconds);
  for (int s = 1; s <= kEnvSpecCount; ++s) {
    for (int r = 0; r < kEnvRoutineCount; ++r) {
      const idx v = outcome.table.get(static_cast<EnvSpec>(s),
                                      static_cast<EnvRoutine>(r));
      if (v > 0) {
        std::printf("  %s %s %ld\n", kRoutineNames[r], kSpecNames[s - 1],
                    static_cast<long>(v));
      }
    }
  }
  if (dry_run) {
    return 0;
  }
  if (out_path.empty()) {
    out_path = default_tune_file();
  }
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "lapack90_tune: no output path (LAPACK90_TUNE_FILE=off and "
                 "no --out?)\n");
    return 2;
  }
  if (!save_file(out_path, outcome.table)) {
    std::fprintf(stderr, "lapack90_tune: cannot write %s\n", out_path.c_str());
    return 1;
  }
  LoadInfo info;
  const LoadStatus status = load_and_install(out_path, &info);
  if (status != LoadStatus::Loaded) {
    std::fprintf(stderr, "lapack90_tune: wrote %s but reload failed\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%d values), now active: tune source \"%s\"\n",
              out_path.c_str(), info.applied, source());
  if (outcome.builtin_dgemm_gflops > 0) {
    std::printf(
        "tuned vs builtin at n=%ld: dgemm %+.1f%%, dgetrf %+.1f%%\n",
        static_cast<long>(opt.headline_n),
        100.0 * (outcome.tuned_dgemm_gflops / outcome.builtin_dgemm_gflops -
                 1.0),
        100.0 * (outcome.tuned_dgetrf_gflops / outcome.builtin_dgetrf_gflops -
                 1.0));
  }
  return 0;
}

}  // namespace la::tune
