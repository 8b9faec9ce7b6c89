// Appendix G breadth benchmark: one timing per driver family, each
// exercised through the generic interface on a representative problem.
// This is the "every catalog entry is alive and converges" series that
// accompanies the per-table benches.
// Emits BENCH_drivers.json by default (see bench_json_main.hpp).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_json_main.hpp"
#include "lapack90/lapack90.hpp"

namespace {

using la::idx;
constexpr idx kN = 128;

la::Matrix<double> random_mat(idx m, idx n, int salt) {
  la::Iseed seed = {idx(salt % 4096), 1, 2, 3};
  la::Matrix<double> a(m, n);
  la::larnv(la::Dist::Uniform11, seed, m * n, a.data());
  return a;
}

la::Matrix<double> spd_mat(idx n, int salt) {
  la::Matrix<double> g = random_mat(n, n, salt);
  la::Matrix<double> a(n, n);
  la::blas::gemm(la::Trans::NoTrans, la::Trans::Trans, n, n, n, 1.0, g.data(),
                 g.ld(), g.data(), g.ld(), 0.0, a.data(), a.ld());
  for (idx i = 0; i < n; ++i) {
    a(i, i) += double(n);
  }
  return a;
}

void BM_DriverGesv(benchmark::State& state) {
  const auto a0 = random_mat(kN, kN, 1);
  const auto b0 = random_mat(kN, 2, 2);
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::Matrix<double> b = b0;
    la::gesv(a, b);
  }
}
BENCHMARK(BM_DriverGesv)->Unit(benchmark::kMillisecond);

void BM_DriverGbsv(benchmark::State& state) {
  const idx kl = 4;
  const idx ku = 4;
  auto dense = random_mat(kN, kN, 3);
  for (idx j = 0; j < kN; ++j) {
    for (idx i = 0; i < kN; ++i) {
      if (i - j > kl || j - i > ku) {
        dense(i, j) = 0;
      }
    }
    dense(j, j) += 8.0;
  }
  const auto ab0 = la::BandMatrix<double>::from_dense(dense, kl, ku);
  const auto b0 = random_mat(kN, 2, 4);
  for (auto _ : state) {
    la::BandMatrix<double> ab = ab0;
    la::Matrix<double> b = b0;
    la::gbsv(ab, b);
  }
}
BENCHMARK(BM_DriverGbsv)->Unit(benchmark::kMillisecond);

void BM_DriverGtsv(benchmark::State& state) {
  for (auto _ : state) {
    la::Vector<double> dl(kN - 1);
    la::Vector<double> d(kN);
    la::Vector<double> du(kN - 1);
    dl.fill(-1.0);
    du.fill(-1.0);
    d.fill(4.0);
    la::Matrix<double> b = random_mat(kN, 2, 5);
    la::gtsv(dl, d, du, b);
  }
}
BENCHMARK(BM_DriverGtsv);

void BM_DriverPosv(benchmark::State& state) {
  const auto a0 = spd_mat(kN, 6);
  const auto b0 = random_mat(kN, 2, 7);
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::Matrix<double> b = b0;
    la::posv(a, b);
  }
}
BENCHMARK(BM_DriverPosv)->Unit(benchmark::kMillisecond);

void BM_DriverPtsv(benchmark::State& state) {
  for (auto _ : state) {
    la::Vector<double> d(kN);
    la::Vector<double> e(kN - 1);
    d.fill(4.0);
    e.fill(-1.0);
    la::Matrix<double> b = random_mat(kN, 2, 8);
    la::ptsv<double>(d, e, b);
  }
}
BENCHMARK(BM_DriverPtsv);

void BM_DriverSysv(benchmark::State& state) {
  auto a0 = random_mat(kN, kN, 9);
  for (idx j = 0; j < kN; ++j) {
    for (idx i = 0; i < j; ++i) {
      a0(j, i) = a0(i, j);
    }
  }
  const auto b0 = random_mat(kN, 2, 10);
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::Matrix<double> b = b0;
    la::sysv(a, b);
  }
}
BENCHMARK(BM_DriverSysv)->Unit(benchmark::kMillisecond);

void BM_DriverGels(benchmark::State& state) {
  const auto a0 = random_mat(2 * kN, kN, 11);
  const auto b0 = random_mat(2 * kN, 2, 12);
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::Matrix<double> b = b0;
    la::gels(a, b);
  }
}
BENCHMARK(BM_DriverGels)->Unit(benchmark::kMillisecond);

void BM_DriverGelss(benchmark::State& state) {
  const auto a0 = random_mat(2 * kN, kN, 13);
  const auto b0 = random_mat(2 * kN, 2, 14);
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::Matrix<double> b = b0;
    la::gelss(a, b);
  }
}
BENCHMARK(BM_DriverGelss)->Unit(benchmark::kMillisecond);

void BM_DriverSyev(benchmark::State& state) {
  auto a0 = random_mat(kN, kN, 15);
  for (idx j = 0; j < kN; ++j) {
    for (idx i = 0; i < j; ++i) {
      a0(j, i) = a0(i, j);
    }
  }
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::Vector<double> w(kN);
    la::syev(a, w);
  }
}
BENCHMARK(BM_DriverSyev)->Unit(benchmark::kMillisecond);

void BM_DriverSyevd(benchmark::State& state) {
  auto a0 = random_mat(kN, kN, 16);
  for (idx j = 0; j < kN; ++j) {
    for (idx i = 0; i < j; ++i) {
      a0(j, i) = a0(i, j);
    }
  }
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::Vector<double> w(kN);
    la::syevd(a, w);
  }
}
BENCHMARK(BM_DriverSyevd)->Unit(benchmark::kMillisecond);

void BM_DriverGeev(benchmark::State& state) {
  const auto a0 = random_mat(kN, kN, 17);
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::Vector<double> wr(kN);
    la::Vector<double> wi(kN);
    la::Matrix<double> vr(kN, kN);
    la::geev(a, wr, wi, static_cast<la::Matrix<double>*>(nullptr), &vr);
  }
}
BENCHMARK(BM_DriverGeev)->Unit(benchmark::kMillisecond);

void BM_DriverGesvd(benchmark::State& state) {
  const auto a0 = random_mat(kN, kN, 18);
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::Vector<double> s(kN);
    la::Matrix<double> u(kN, kN);
    la::Matrix<double> vt(kN, kN);
    la::gesvd(a, s, &u, &vt);
  }
}
BENCHMARK(BM_DriverGesvd)->Unit(benchmark::kMillisecond);

void BM_DriverSygv(benchmark::State& state) {
  auto a0 = random_mat(kN, kN, 19);
  for (idx j = 0; j < kN; ++j) {
    for (idx i = 0; i < j; ++i) {
      a0(j, i) = a0(i, j);
    }
  }
  const auto b0 = spd_mat(kN, 20);
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::Matrix<double> b = b0;
    la::Vector<double> w(kN);
    la::sygv(a, b, w);
  }
}
BENCHMARK(BM_DriverSygv)->Unit(benchmark::kMillisecond);

void BM_DriverGesvx(benchmark::State& state) {
  const auto a0 = random_mat(kN, kN, 21);
  const auto b0 = random_mat(kN, 2, 22);
  for (auto _ : state) {
    la::Matrix<double> x(kN, 2);
    la::gesvx(a0, b0, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_DriverGesvx)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Tiled-factorization thread sweep: getrf/potrf/geqrf on the task DAG
// (lapack/tiled.hpp) at each worker count. Args are {n, workers}.
// ---------------------------------------------------------------------------

void BM_GetrfTiledDag(benchmark::State& state) {
  const idx n = state.range(0);
  const idx prev_nt = la::set_num_threads(state.range(1));
  const auto a0 = random_mat(n, n, 23);
  std::vector<idx> piv(static_cast<std::size_t>(n));
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::lapack::getrf(n, n, a.data(), a.ld(), piv.data());
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations());
  la::set_num_threads(prev_nt);
}
BENCHMARK(BM_GetrfTiledDag)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"n", "workers"})
    ->ArgsProduct({{512, 1024, 2048}, {1, 2, 4}});

void BM_PotrfTiledDag(benchmark::State& state) {
  const idx n = state.range(0);
  const idx prev_nt = la::set_num_threads(state.range(1));
  const auto a0 = spd_mat(n, 24);
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::lapack::potrf(la::Uplo::Lower, n, a.data(), a.ld());
    benchmark::DoNotOptimize(a.data());
  }
  la::set_num_threads(prev_nt);
}
BENCHMARK(BM_PotrfTiledDag)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"n", "workers"})
    ->ArgsProduct({{1024}, {1, 4}});

void BM_GeqrfTiledDag(benchmark::State& state) {
  const idx n = state.range(0);
  const idx prev_nt = la::set_num_threads(state.range(1));
  const auto a0 = random_mat(n, n, 25);
  std::vector<double> tau(static_cast<std::size_t>(n));
  for (auto _ : state) {
    la::Matrix<double> a = a0;
    la::lapack::geqrf(n, n, a.data(), a.ld(), tau.data());
    benchmark::DoNotOptimize(a.data());
  }
  la::set_num_threads(prev_nt);
}
BENCHMARK(BM_GeqrfTiledDag)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"n", "workers"})
    ->ArgsProduct({{1024}, {1, 4}});

// ---------------------------------------------------------------------------
// --smoke: self-check for the tiled path inside the ctest loop. Asserts
// the DESIGN.md section-14 determinism contract (DAG bit-identical across
// worker counts, pivots equal) and a generous timing bound (getrf at the
// current team size no slower than 3x the same call on 1 worker, the
// serial drain, at n=512 — the point is catching pathological scheduling
// regressions, not measuring).
// ---------------------------------------------------------------------------

template <class F>
double time_best_of(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

int run_smoke() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "bench_drivers --smoke: FAIL %s\n", what);
    }
  };
  const idx n = 320;
  const idx prev_nb =
      la::set_env_override(la::EnvSpec::BlockSize, la::EnvRoutine::getrf, 64);
  const auto a0 = random_mat(n, n, 31);
  const auto factor = [&](idx workers, la::Matrix<double>& f,
                          std::vector<idx>& piv) {
    const idx pt = la::set_num_threads(workers);
    f = a0;
    piv.assign(static_cast<std::size_t>(n), -1);
    la::lapack::getrf(n, n, f.data(), f.ld(), piv.data());
    la::set_num_threads(pt);
  };
  la::Matrix<double> dag1(n, n), dag4(n, n);
  std::vector<idx> p1, p4;
  factor(1, dag1, p1);
  factor(4, dag4, p4);
  bool bits14 = p1 == p4;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      bits14 = bits14 && dag1(i, j) == dag4(i, j);
    }
  }
  check(bits14, "tiled getrf bit-identity across 1 vs 4 workers");
  la::set_env_override(la::EnvSpec::BlockSize, la::EnvRoutine::getrf, prev_nb);

  // Generous perf bound at the shipped tile schedule.
  const idx np = 512;
  const idx team = la::num_threads();
  const auto b0 = random_mat(np, np, 32);
  std::vector<idx> piv(static_cast<std::size_t>(np));
  const auto run_once = [&](idx workers) {
    const idx pt = la::set_num_threads(workers);
    la::Matrix<double> a = b0;
    la::lapack::getrf(np, np, a.data(), a.ld(), piv.data());
    benchmark::DoNotOptimize(a.data());
    la::set_num_threads(pt);
  };
  const double t_serial = time_best_of(3, [&] { run_once(1); });
  const double t_team = time_best_of(3, [&] { run_once(team); });
  check(t_team <= 3.0 * t_serial + 1e-3,
        "tiled getrf at the team size within 3x of 1 worker at n=512");
  std::printf(
      "bench_drivers --smoke (threads=%lld): getrf n=%lld 1 worker %.1f ms, "
      "%lld workers %.1f ms (ratio %.2f); bit-identity %s\n",
      static_cast<long long>(team), static_cast<long long>(np),
      1e3 * t_serial, static_cast<long long>(team), 1e3 * t_team,
      t_team / t_serial, failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return run_smoke();
  }
  return la::bench::run_with_json_default(
      argc, argv, "BENCH_drivers.json",
      "^BM_DriverGesv$|^BM_DriverPosv$|"
      "^BM_GetrfTiledDag/n:1024/workers:1$|"
      "^BM_PotrfTiledDag/n:1024/workers:1$");
}
