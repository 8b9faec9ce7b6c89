// The §1.1 design-choice ablation: blocked (Level-3-rich) factorizations
// versus their unblocked (Level-1/2, LINPACK-style) counterparts, the very
// reorganization LAPACK exists for. Block sizes are driven through the
// ilaenv override hooks so both paths run the same code base.
#include <benchmark/benchmark.h>

#include <vector>

#include "lapack90/lapack90.hpp"

namespace {

using la::idx;

void set_blocking(la::EnvRoutine r, idx nb) {
  // nb == 0 restores the defaults; nb == 1 forces the unblocked path.
  la::set_env_override(la::EnvSpec::BlockSize, r, nb);
  la::set_env_override(la::EnvSpec::Crossover, r, nb == 1 ? 1 << 28 : 2);
}

void BM_GetrfBlocked(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  la::Iseed seed = la::default_iseed();
  la::Matrix<double> a0(n, n);
  la::larnv(la::Dist::Uniform11, seed, n * n, a0.data());
  la::Matrix<double> a(n, n);
  std::vector<idx> ipiv(n);
  set_blocking(la::EnvRoutine::getrf, 64);
  for (auto _ : state) {
    state.PauseTiming();
    a = a0;
    state.ResumeTiming();
    la::lapack::getrf(n, n, a.data(), a.ld(), ipiv.data());
  }
  set_blocking(la::EnvRoutine::getrf, 0);
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_GetrfBlocked)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_GetrfUnblocked(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  la::Iseed seed = la::default_iseed();
  la::Matrix<double> a0(n, n);
  la::larnv(la::Dist::Uniform11, seed, n * n, a0.data());
  la::Matrix<double> a(n, n);
  std::vector<idx> ipiv(n);
  for (auto _ : state) {
    state.PauseTiming();
    a = a0;
    state.ResumeTiming();
    la::lapack::getf2(n, n, a.data(), a.ld(), ipiv.data());
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_GetrfUnblocked)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_PotrfBlocked(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  la::Iseed seed = la::default_iseed();
  la::Matrix<double> g(n, n);
  la::larnv(la::Dist::Uniform11, seed, n * n, g.data());
  la::Matrix<double> a0(n, n);
  la::blas::gemm(la::Trans::NoTrans, la::Trans::Trans, n, n, n, 1.0, g.data(),
                 g.ld(), g.data(), g.ld(), 0.0, a0.data(), a0.ld());
  for (idx i = 0; i < n; ++i) {
    a0(i, i) += double(n);
  }
  la::Matrix<double> a(n, n);
  set_blocking(la::EnvRoutine::potrf, 64);
  for (auto _ : state) {
    state.PauseTiming();
    a = a0;
    state.ResumeTiming();
    la::lapack::potrf(la::Uplo::Lower, n, a.data(), a.ld());
  }
  set_blocking(la::EnvRoutine::potrf, 0);
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_PotrfBlocked)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_PotrfUnblocked(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  la::Iseed seed = la::default_iseed();
  la::Matrix<double> g(n, n);
  la::larnv(la::Dist::Uniform11, seed, n * n, g.data());
  la::Matrix<double> a0(n, n);
  la::blas::gemm(la::Trans::NoTrans, la::Trans::Trans, n, n, n, 1.0, g.data(),
                 g.ld(), g.data(), g.ld(), 0.0, a0.data(), a0.ld());
  for (idx i = 0; i < n; ++i) {
    a0(i, i) += double(n);
  }
  la::Matrix<double> a(n, n);
  for (auto _ : state) {
    state.PauseTiming();
    a = a0;
    state.ResumeTiming();
    la::lapack::potf2(la::Uplo::Lower, n, a.data(), a.ld());
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_PotrfUnblocked)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_GeqrfBlocked(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  la::Iseed seed = la::default_iseed();
  la::Matrix<double> a0(n, n);
  la::larnv(la::Dist::Uniform11, seed, n * n, a0.data());
  la::Matrix<double> a(n, n);
  std::vector<double> tau(n);
  set_blocking(la::EnvRoutine::geqrf, 32);
  for (auto _ : state) {
    state.PauseTiming();
    a = a0;
    state.ResumeTiming();
    la::lapack::geqrf(n, n, a.data(), a.ld(), tau.data());
  }
  set_blocking(la::EnvRoutine::geqrf, 0);
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_GeqrfBlocked)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_GeqrfUnblocked(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  la::Iseed seed = la::default_iseed();
  la::Matrix<double> a0(n, n);
  la::larnv(la::Dist::Uniform11, seed, n * n, a0.data());
  la::Matrix<double> a(n, n);
  std::vector<double> tau(n);
  std::vector<double> work(n);
  for (auto _ : state) {
    state.PauseTiming();
    a = a0;
    state.ResumeTiming();
    la::lapack::geqr2(n, n, a.data(), a.ld(), tau.data(), work.data());
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_GeqrfUnblocked)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// One tiled-QR panel at the default tile edge (64 columns) on one worker:
// the Level-2 geqr2 + larft pair (arg 0) against the recursive geqrt3
// (arg 1) that the tiled geqrf runs, at about the heights of the first and
// the last panel of a 2048 x 1024 factorization.
void BM_GeqrfPanel(benchmark::State& state) {
  const idx m = static_cast<idx>(state.range(0));
  const bool recursive = state.range(1) != 0;
  const idx w = 64;
  la::Iseed seed = la::default_iseed();
  la::Matrix<double> a0(m, w);
  la::larnv(la::Dist::Uniform11, seed, m * w, a0.data());
  la::Matrix<double> a(m, w);
  la::Matrix<double> t(w, w);
  std::vector<double> tau(w);
  std::vector<double> work(w);
  const idx prev = la::set_num_threads(1);
  for (auto _ : state) {
    state.PauseTiming();
    a = a0;
    state.ResumeTiming();
    if (recursive) {
      la::lapack::geqrt3(m, w, a.data(), a.ld(), tau.data(), t.data(),
                         t.ld());
    } else {
      la::lapack::geqr2(m, w, a.data(), a.ld(), tau.data(), work.data());
      la::lapack::larft(m, w, a.data(), a.ld(), tau.data(), t.data(),
                        t.ld());
    }
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(t.data());
    benchmark::ClobberMemory();
  }
  la::set_num_threads(prev);
  state.counters["m"] = static_cast<double>(m);
}
BENCHMARK(BM_GeqrfPanel)
    ->ArgNames({"m", "geqrt3"})
    ->Args({2048, 0})
    ->Args({2048, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

// One tiled-QR update at the default tile edge on one worker: larfb Left
// ConjTrans of a 64-reflector block (V and T from geqrt3) onto an m x 64
// column tile, at about the heights of the first and the last update of a
// 2048 x 1024 factorization. Three of its calls are 64 x 64 trmms; the
// BM_TrmmTile below times one of them alone, so their share can be read off.
void BM_LarfbTile(benchmark::State& state) {
  const idx m = static_cast<idx>(state.range(0));
  const idx k = 64;
  la::Iseed seed = la::default_iseed();
  la::Matrix<double> v(m, k);
  la::larnv(la::Dist::Uniform11, seed, m * k, v.data());
  la::Matrix<double> t(k, k);
  std::vector<double> tau(k);
  la::lapack::geqrt3(m, k, v.data(), v.ld(), tau.data(), t.data(), t.ld());
  la::Matrix<double> c0(m, k);
  la::larnv(la::Dist::Uniform11, seed, m * k, c0.data());
  la::Matrix<double> c(m, k);
  la::Matrix<double> work(k, k);
  const idx prev = la::set_num_threads(1);
  for (auto _ : state) {
    state.PauseTiming();
    c = c0;
    state.ResumeTiming();
    la::lapack::larfb(la::Side::Left, la::Trans::ConjTrans, m, k, k, v.data(),
                      v.ld(), t.data(), t.ld(), c.data(), c.ld(), work.data(),
                      work.ld());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  la::set_num_threads(prev);
  state.counters["m"] = static_cast<double>(m);
}
BENCHMARK(BM_LarfbTile)->ArgName("m")->Arg(1600)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

// The middle trmm of BM_LarfbTile: W := W T, W 64 x 64, T upper triangular
// from geqrt3 (Side::Right, the shape of all three larfb trmms).
void BM_TrmmTile(benchmark::State& state) {
  const idx k = 64;
  la::Iseed seed = la::default_iseed();
  la::Matrix<double> v(2 * k, k);
  la::larnv(la::Dist::Uniform11, seed, 2 * k * k, v.data());
  la::Matrix<double> t(k, k);
  std::vector<double> tau(k);
  la::lapack::geqrt3(2 * k, k, v.data(), v.ld(), tau.data(), t.data(),
                     t.ld());
  la::Matrix<double> w0(k, k);
  la::larnv(la::Dist::Uniform11, seed, k * k, w0.data());
  la::Matrix<double> w(k, k);
  for (auto _ : state) {
    state.PauseTiming();
    w = w0;
    state.ResumeTiming();
    la::blas::trmm(la::Side::Right, la::Uplo::Upper, la::Trans::NoTrans,
                   la::Diag::NonUnit, k, k, 1.0, t.data(), t.ld(), w.data(),
                   w.ld());
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TrmmTile)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
