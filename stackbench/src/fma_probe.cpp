// The FMA peak probe: independent multiply-add chains on one core, compiled
// per ISA through function target attributes and picked at run time for
// the widest ISA the host supports. It is the denominator of
// blas.gemm_peak_frac, measured in the same process as the gemm it rates.
// No library header is included here, so nothing the library shares with
// the benchmark is compiled for the wider ISA.
#include <immintrin.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common.hpp"

namespace stackbench {

namespace {

// 16 independent accumulators cover the FMA latency x throughput product
// of current x86 cores. acc = acc * x + y converges, so nothing overflows.
constexpr int kChains = 16;
constexpr double kX = 0.999999, kY = 1e-6;

__attribute__((target("avx512f"))) double chains_avx512(std::int64_t iters) {
  __m512d acc[kChains];
  const __m512d x = _mm512_set1_pd(kX);
  const __m512d y = _mm512_set1_pd(kY);
  for (int c = 0; c < kChains; ++c) {
    acc[c] = _mm512_set1_pd(static_cast<double>(c));
  }
  for (std::int64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 16
    for (int c = 0; c < kChains; ++c) {
      acc[c] = _mm512_fmadd_pd(acc[c], x, y);
    }
  }
  __m512d s = acc[0];
  for (int c = 1; c < kChains; ++c) {
    s = _mm512_add_pd(s, acc[c]);
  }
  double out[8];
  _mm512_storeu_pd(out, s);
  return out[0] + out[1] + out[2] + out[3] + out[4] + out[5] + out[6] + out[7];
}

__attribute__((target("avx2,fma"))) double chains_avx2(std::int64_t iters) {
  __m256d acc[kChains];
  const __m256d x = _mm256_set1_pd(kX);
  const __m256d y = _mm256_set1_pd(kY);
  for (int c = 0; c < kChains; ++c) {
    acc[c] = _mm256_set1_pd(static_cast<double>(c));
  }
  for (std::int64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 16
    for (int c = 0; c < kChains; ++c) {
      acc[c] = _mm256_fmadd_pd(acc[c], x, y);
    }
  }
  __m256d s = acc[0];
  for (int c = 1; c < kChains; ++c) {
    s = _mm256_add_pd(s, acc[c]);
  }
  double out[4];
  _mm256_storeu_pd(out, s);
  return out[0] + out[1] + out[2] + out[3];
}

// Baseline x86-64: separate multiply and add (2 flops per lane pair).
double chains_sse2(std::int64_t iters) {
  __m128d acc[kChains];
  const __m128d x = _mm_set1_pd(kX);
  const __m128d y = _mm_set1_pd(kY);
  for (int c = 0; c < kChains; ++c) {
    acc[c] = _mm_set1_pd(static_cast<double>(c));
  }
  for (std::int64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 16
    for (int c = 0; c < kChains; ++c) {
      acc[c] = _mm_add_pd(_mm_mul_pd(acc[c], x), y);
    }
  }
  __m128d s = acc[0];
  for (int c = 1; c < kChains; ++c) {
    s = _mm_add_pd(s, acc[c]);
  }
  double out[2];
  _mm_storeu_pd(out, s);
  return out[0] + out[1];
}

struct Probe {
  const char* isa;
  int lanes;
  double (*run)(std::int64_t);
};

Probe widest() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    return {"avx512f", 8, chains_avx512};
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {"avx2+fma", 4, chains_avx2};
  }
  return {"sse2", 2, chains_sse2};
}

volatile double g_sink = 0.0;

}  // namespace

const char* fma_probe_isa() { return widest().isa; }

double fma_peak_gflops(double seconds) {
  const Probe p = widest();
  const std::int64_t iters = 1 << 20;
  const double flops_per_call =
      2.0 * p.lanes * kChains * static_cast<double>(iters);
  g_sink = p.run(iters / 16);  // warm up (and let the clock ramp)
  std::vector<double> rates;
  const auto t_end = clk::now() + std::chrono::duration_cast<clk::duration>(
                                      std::chrono::duration<double>(seconds));
  do {
    const auto t0 = clk::now();
    g_sink = p.run(iters);
    rates.push_back(flops_per_call / seconds_since(t0) * 1e-9);
  } while (clk::now() < t_end || rates.size() < 5);
  return median(rates);
}

}  // namespace stackbench
