// Batched driver throughput: many small systems per call (the la::batch
// subsystem) versus a sequential loop of single-problem drivers. Sweeps
// batch size x matrix size for gesv_batch, the worker count at the
// acceptance point (4096 systems of n = 32, double), and the tiny-GEMM
// direct micro-kernel path against a loop of blas::gemm calls (which fall
// to the naive triple loop below the crossover). Emits BENCH_batch.json.
//
// Every timed iteration restores the factored operands from a pristine
// pool first; the restore cost is included identically in the batch and
// loop arms, so the comparison stays fair.
//
// `bench_batch --smoke` is a self-checking mode for ctest: it asserts the
// batch path agrees bit-for-bit with the sequential driver loop, stays
// bit-identical when the worker count changes, returns the direct
// drivers' bits for a geqrf and a gels entry past geqrf's tile edge, and
// is not materially slower than the loop at one worker (generous slack —
// on a single-core host batch and loop do the same serial work and the
// timing check is close to a tautology).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_json_main.hpp"
#include "lapack90/lapack90.hpp"

namespace {

using la::idx;

/// Strided pools of `count` diagonally dominant n x n systems plus
/// right-hand sides, with pristine copies for per-iteration restore.
template <class T>
struct GesvPool {
  idx n = 0, nrhs = 0, count = 0;
  std::vector<T> a0, b0, a, b;

  void init(idx count_, idx n_, idx nrhs_) {
    n = n_;
    nrhs = nrhs_;
    count = count_;
    la::Iseed seed = la::default_iseed();
    a0.resize(static_cast<std::size_t>(count) * n * n);
    b0.resize(static_cast<std::size_t>(count) * n * nrhs);
    la::larnv(la::Dist::Uniform11, seed, static_cast<idx>(a0.size()),
              a0.data());
    la::larnv(la::Dist::Uniform11, seed, static_cast<idx>(b0.size()),
              b0.data());
    for (idx e = 0; e < count; ++e) {
      T* entry = a0.data() + static_cast<std::size_t>(e) * n * n;
      for (idx d = 0; d < n; ++d) {
        entry[static_cast<std::size_t>(d) * n + d] += T(la::real_t<T>(n));
      }
    }
    a = a0;
    b = b0;
  }

  void restore() {
    std::copy(a0.begin(), a0.end(), a.begin());
    std::copy(b0.begin(), b0.end(), b.begin());
  }

  la::batch::MatrixBatch<T> abatch() {
    return la::batch::MatrixBatch<T>::strided(
        a.data(), n, n, n, static_cast<std::ptrdiff_t>(n) * n, count);
  }
  la::batch::MatrixBatch<T> bbatch() {
    return la::batch::MatrixBatch<T>::strided(
        b.data(), n, nrhs, n, static_cast<std::ptrdiff_t>(n) * nrhs, count);
  }

  void run_batch() {
    la::batch::gesv_batch(abatch(), bbatch());
  }
  void run_loop() {
    std::vector<idx> piv(static_cast<std::size_t>(n));
    for (idx e = 0; e < count; ++e) {
      la::lapack::gesv(n, nrhs,
                       a.data() + static_cast<std::size_t>(e) * n * n, n,
                       piv.data(),
                       b.data() + static_cast<std::size_t>(e) * n * nrhs, n);
    }
  }
};

/// LU + two triangular solves per system.
double gesv_flops(idx n, idx nrhs) {
  const double dn = static_cast<double>(n);
  return 2.0 / 3.0 * dn * dn * dn + 2.0 * dn * dn * static_cast<double>(nrhs);
}

void BM_DGesvBatch(benchmark::State& state) {
  GesvPool<double> pool;
  pool.init(static_cast<idx>(state.range(0)), static_cast<idx>(state.range(1)),
            1);
  for (auto _ : state) {
    pool.restore();
    pool.run_batch();
    benchmark::DoNotOptimize(pool.b.data());
  }
  state.counters["systems/s"] = benchmark::Counter(
      static_cast<double>(pool.count) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["GFLOP/s"] = benchmark::Counter(
      gesv_flops(pool.n, pool.nrhs) * static_cast<double>(pool.count) *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  state.counters["batch"] = static_cast<double>(pool.count);
  state.counters["n"] = static_cast<double>(pool.n);
}
BENCHMARK(BM_DGesvBatch)
    ->Args({256, 32})->Args({1024, 32})->Args({4096, 32})  // batch sweep
    ->Args({1024, 8})->Args({1024, 16})->Args({1024, 64})  // size sweep
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DGesvLoop(benchmark::State& state) {
  GesvPool<double> pool;
  pool.init(static_cast<idx>(state.range(0)), static_cast<idx>(state.range(1)),
            1);
  for (auto _ : state) {
    pool.restore();
    pool.run_loop();
    benchmark::DoNotOptimize(pool.b.data());
  }
  state.counters["systems/s"] = benchmark::Counter(
      static_cast<double>(pool.count) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["batch"] = static_cast<double>(pool.count);
  state.counters["n"] = static_cast<double>(pool.n);
}
BENCHMARK(BM_DGesvLoop)
    ->Args({4096, 32})->Args({1024, 8})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Worker sweep at the acceptance point: 4096 systems of n = 32 (double).
/// The Arg is the forced worker count; wall-clock is the quantity of
/// interest (systems/s in the counters).
void BM_DGesvBatchThreads(benchmark::State& state) {
  const idx nt = static_cast<idx>(state.range(0));
  la::set_num_threads(nt);
  GesvPool<double> pool;
  pool.init(4096, 32, 1);
  for (auto _ : state) {
    pool.restore();
    pool.run_batch();
    benchmark::DoNotOptimize(pool.b.data());
  }
  la::set_num_threads(0);
  state.counters["systems/s"] = benchmark::Counter(
      static_cast<double>(pool.count) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(nt);
}
BENCHMARK(BM_DGesvBatchThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Tiny batched GEMM: the direct register-tile path (pack once per entry,
/// no cache-blocking loop nest) vs a loop of blas::gemm calls, which fall
/// back to the naive triple loop below the crossover.
template <bool Batched>
void BM_GemmTiny(benchmark::State& state) {
  const idx count = static_cast<idx>(state.range(0));
  const idx n = static_cast<idx>(state.range(1));
  const auto esz = static_cast<std::size_t>(n) * n;
  std::vector<double> a(esz * count), b(esz * count), c(esz * count);
  la::Iseed seed = la::default_iseed();
  la::larnv(la::Dist::Uniform11, seed, static_cast<idx>(a.size()), a.data());
  la::larnv(la::Dist::Uniform11, seed, static_cast<idx>(b.size()), b.data());
  for (auto _ : state) {
    if constexpr (Batched) {
      la::batch::gemm_batch_strided(
          la::Trans::NoTrans, la::Trans::NoTrans, n, n, n, 1.0, a.data(), n,
          static_cast<std::ptrdiff_t>(esz), b.data(), n,
          static_cast<std::ptrdiff_t>(esz), 0.0, c.data(), n,
          static_cast<std::ptrdiff_t>(esz), count);
    } else {
      for (idx e = 0; e < count; ++e) {
        la::blas::gemm(la::Trans::NoTrans, la::Trans::NoTrans, n, n, n, 1.0,
                       a.data() + esz * static_cast<std::size_t>(e), n,
                       b.data() + esz * static_cast<std::size_t>(e), n, 0.0,
                       c.data() + esz * static_cast<std::size_t>(e), n);
      }
    }
    benchmark::DoNotOptimize(c.data());
  }
  const double flops = 2.0 * std::pow(static_cast<double>(n), 3) *
                       static_cast<double>(count);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  state.counters["batch"] = static_cast<double>(count);
  state.counters["n"] = static_cast<double>(n);
}
void BM_DGemmBatchTiny(benchmark::State& s) { BM_GemmTiny<true>(s); }
void BM_DGemmLoopTiny(benchmark::State& s) { BM_GemmTiny<false>(s); }
BENCHMARK(BM_DGemmBatchTiny)->Args({4096, 8})->Args({4096, 16})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_DGemmLoopTiny)->Args({4096, 8})->Args({4096, 16})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// One geqrf and one gels entry whose min(m, n) passes geqrf's tile edge
/// while max(m, n) stays below BatchGrain, so the entry fans out while the
/// direct driver runs the tile DAG: true when the batch drivers return the
/// direct drivers' bits.
bool gap_shape_identical() {
  using MB = la::batch::MatrixBatch<double>;
  const idx m = 207, n = 200, nrhs = 2;
  la::Iseed seed = la::default_iseed();
  std::vector<double> a0(static_cast<std::size_t>(m) * n);
  std::vector<double> b0(static_cast<std::size_t>(m) * nrhs);
  la::larnv(la::Dist::Uniform11, seed, static_cast<idx>(a0.size()),
            a0.data());
  la::larnv(la::Dist::Uniform11, seed, static_cast<idx>(b0.size()),
            b0.data());
  std::vector<double> ra = a0, ba = a0, rtau(n), btau(n);
  la::lapack::geqrf(m, n, ra.data(), m, rtau.data());
  la::batch::geqrf_batch(MB::strided(ba.data(), m, n, m, m * n, 1),
                         MB::strided(btau.data(), n, 1, n, n, 1));
  const bool geqrf_same = ra == ba && rtau == btau;
  ra = a0;
  ba = a0;
  std::vector<double> rb = b0, bb = b0;
  la::lapack::gels(la::Trans::NoTrans, m, n, nrhs, ra.data(), m, rb.data(),
                   m);
  la::batch::gels_batch(la::Trans::NoTrans,
                        MB::strided(ba.data(), m, n, m, m * n, 1),
                        MB::strided(bb.data(), m, nrhs, m, m * nrhs, 1));
  return geqrf_same && ra == ba && rb == bb;
}

/// --smoke: correctness (batch == sequential loop, bitwise; bit-identical
/// across worker counts; geqrf/gels entries == the direct drivers) plus a
/// generous no-regression timing check at one worker.
int run_smoke() {
  using clock = std::chrono::steady_clock;
  const idx count = 512, n = 16;
  GesvPool<double> pool;
  pool.init(count, n, 1);

  // Sequential reference.
  pool.restore();
  pool.run_loop();
  std::vector<double> ref_b = pool.b;

  // Batch at 1 worker: must match the loop exactly.
  la::set_num_threads(1);
  pool.restore();
  pool.run_batch();
  la::set_num_threads(0);
  bool identical_loop = pool.b == ref_b;

  // Batch at 4 workers: must match the 1-worker batch exactly.
  la::set_num_threads(4);
  pool.restore();
  pool.run_batch();
  la::set_num_threads(0);
  const bool identical_threads = pool.b == ref_b && identical_loop;
  const bool identical_gap = gap_shape_identical();

  auto best_of = [&](int reps, auto&& f) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      pool.restore();
      const auto t0 = clock::now();
      f();
      const std::chrono::duration<double> dt = clock::now() - t0;
      best = std::min(best, dt.count());
    }
    return best;
  };
  la::set_num_threads(1);
  const double t_batch = best_of(5, [&] { pool.run_batch(); });
  la::set_num_threads(0);
  const double t_loop = best_of(5, [&] { pool.run_loop(); });
  const bool fast_enough = t_batch <= t_loop * 1.5;
  const bool ok =
      identical_loop && identical_threads && identical_gap && fast_enough;

  std::printf(
      "bench_batch --smoke (backend=%s, %lld systems of n=%lld): batch "
      "%.3f ms, loop %.3f ms, ratio %.2fx, bit-identical(loop)=%s, "
      "bit-identical(1-vs-4 workers)=%s, "
      "bit-identical(geqrf/gels 207x200 vs direct)=%s -> %s\n",
      la::thread_backend_name(), static_cast<long long>(count),
      static_cast<long long>(n), t_batch * 1e3, t_loop * 1e3,
      t_loop / t_batch, identical_loop ? "yes" : "no",
      identical_threads ? "yes" : "no", identical_gap ? "yes" : "no",
      ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return run_smoke();
  }
  return la::bench::run_with_json_default(
      argc, argv, "BENCH_batch.json", "^BM_DGesvBatch/");
}
