// lapack90/core/simd.hpp
//
// Portable fixed-width SIMD value type for the BLAS kernels. `la::simd<T, W>`
// wraps W lanes of float or double behind load/store/broadcast/fma and
// masked-tail operations; the native register width for the translation unit
// is `simd_width_v<T>`. Specializations lower to AVX-512F, AVX2+FMA, SSE2 or
// NEON intrinsics when the compiler targets them (-march=native via the
// LAPACK90_NATIVE option, on by default, or any explicit -m flags); every
// other (T, W) combination falls back to a plain array the optimizer can
// still auto-vectorize. The pair-wise operations (swap_pairs, neg_evens)
// exist for the complex micro-kernels, which keep data interleaved
// [re im re im ...] and synthesize the complex product from two real fmas.
//
// Compile-time ISA selection keeps the header freestanding: no runtime
// dispatch, no function-multiversioning, no dependency beyond <immintrin.h>
// / <arm_neon.h> on the targets that have them. Define
// LAPACK90_SIMD_FORCE_SCALAR to compile the scalar fallback everywhere
// (used by the ablation benchmarks and sanitizer builds when wanted).
#pragma once

#include <cstddef>
#include <cstdint>

#include "lapack90/core/types.hpp"

#if !defined(LAPACK90_SIMD_FORCE_SCALAR)
#if defined(__AVX512F__)
#define LAPACK90_SIMD_AVX512 1
#include <immintrin.h>
#elif defined(__AVX2__) && defined(__FMA__)
#define LAPACK90_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define LAPACK90_SIMD_SSE2 1
#include <emmintrin.h>
#if defined(__FMA__)
#include <immintrin.h>  // _mm_fmadd_pd/_ps (e.g. -mfma without -mavx2)
#endif
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define LAPACK90_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !LAPACK90_SIMD_FORCE_SCALAR

namespace la {

// String-literal form of the lowered ISA, for compile-time concatenation
// (the version string). simd_isa_name() below is the typed accessor.
#if defined(LAPACK90_SIMD_AVX512)
#define LAPACK90_SIMD_ISA_NAME "avx512f"
#elif defined(LAPACK90_SIMD_AVX2)
#define LAPACK90_SIMD_ISA_NAME "avx2+fma"
#elif defined(LAPACK90_SIMD_SSE2)
#define LAPACK90_SIMD_ISA_NAME "sse2"
#elif defined(LAPACK90_SIMD_NEON)
#define LAPACK90_SIMD_ISA_NAME "neon"
#else
#define LAPACK90_SIMD_ISA_NAME "scalar"
#endif

/// Name of the instruction set the SIMD layer was compiled for.
[[nodiscard]] constexpr const char* simd_isa_name() noexcept {
  return LAPACK90_SIMD_ISA_NAME;
}

/// True when simd::fma rounds once (a hardware fused multiply-add).
/// On targets without one, fma() falls back to mul-then-add — fine for
/// ordinary kernels, but fatal for error-free transformations: TwoProd's
/// fma(a, b, -a*b) is exactly zero under the two-rounding emulation, which
/// silently drops the compensation. Kernels built on EFTs must gate their
/// vector paths on this and use the scalar std::fma path otherwise.
#if defined(LAPACK90_SIMD_AVX512) || defined(LAPACK90_SIMD_AVX2) || \
    defined(LAPACK90_SIMD_NEON) ||                                  \
    (defined(LAPACK90_SIMD_SSE2) && defined(__FMA__))
inline constexpr bool simd_has_fma_v = true;
#else
inline constexpr bool simd_has_fma_v = false;
#endif

namespace detail {

template <class T>
struct simd_width_impl {
  static constexpr int value = 1;
};
#if defined(LAPACK90_SIMD_AVX512)
template <>
struct simd_width_impl<float> {
  static constexpr int value = 16;
};
template <>
struct simd_width_impl<double> {
  static constexpr int value = 8;
};
#elif defined(LAPACK90_SIMD_AVX2)
template <>
struct simd_width_impl<float> {
  static constexpr int value = 8;
};
template <>
struct simd_width_impl<double> {
  static constexpr int value = 4;
};
#elif defined(LAPACK90_SIMD_SSE2) || defined(LAPACK90_SIMD_NEON)
template <>
struct simd_width_impl<float> {
  static constexpr int value = 4;
};
template <>
struct simd_width_impl<double> {
  static constexpr int value = 2;
};
#endif

}  // namespace detail

/// Native vector width (lanes) for real element type T on this target.
template <class T>
inline constexpr int simd_width_v = detail::simd_width_impl<T>::value;

/// Software prefetch into all cache levels; no-op where unsupported.
inline void simd_prefetch(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Fixed-width SIMD vector: primary template is the scalar-array fallback.
/// The lane count W is a compile-time constant; all member functions are
/// branch-free over full vectors except the *_partial pair, which reads or
/// writes only the first k lanes (the masked-tail scheme the gemm edge
/// kernels use instead of zero-padded packing).
template <class T, int W>
struct simd {
  static_assert(W >= 1, "simd width must be positive");
  static constexpr int width = W;
  T v[W];

  [[nodiscard]] static simd zero() noexcept {
    simd r{};
    return r;
  }
  [[nodiscard]] static simd broadcast(T x) noexcept {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = x;
    return r;
  }
  [[nodiscard]] static simd load(const T* p) noexcept {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = p[i];
    return r;
  }
  /// Load the first k lanes; the rest are zero.
  [[nodiscard]] static simd load_partial(const T* p, int k) noexcept {
    simd r{};
    for (int i = 0; i < k; ++i) r.v[i] = p[i];
    return r;
  }
  void store(T* p) const noexcept {
    for (int i = 0; i < W; ++i) p[i] = v[i];
  }
  /// Store only the first k lanes.
  void store_partial(T* p, int k) const noexcept {
    for (int i = 0; i < k; ++i) p[i] = v[i];
  }
  [[nodiscard]] friend simd operator+(simd a, simd b) noexcept {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  [[nodiscard]] friend simd operator-(simd a, simd b) noexcept {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  [[nodiscard]] friend simd operator*(simd a, simd b) noexcept {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  /// a*b + c in one rounding where the target has FMA.
  [[nodiscard]] static simd fma(simd a, simd b, simd c) noexcept {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
    return r;
  }
  /// Swap adjacent lanes: [x0 x1 x2 x3] -> [x1 x0 x3 x2]. Undefined for
  /// odd W (the complex kernels require W even).
  [[nodiscard]] simd swap_pairs() const noexcept {
    simd r;
    for (int i = 0; i + 1 < W; i += 2) {
      r.v[i] = v[i + 1];
      r.v[i + 1] = v[i];
    }
    if constexpr (W % 2 == 1) {
      r.v[W - 1] = v[W - 1];
    }
    return r;
  }
  /// Negate even lanes: [x0 x1 x2 x3] -> [-x0 x1 -x2 x3].
  [[nodiscard]] simd neg_evens() const noexcept {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = (i % 2 == 0) ? -v[i] : v[i];
    return r;
  }
  /// Horizontal sum of all lanes.
  [[nodiscard]] T reduce() const noexcept {
    T s = v[0];
    for (int i = 1; i < W; ++i) s += v[i];
    return s;
  }
};

#if defined(LAPACK90_SIMD_AVX512)

template <>
struct simd<double, 8> {
  static constexpr int width = 8;
  __m512d v;

  [[nodiscard]] static simd zero() noexcept { return {_mm512_setzero_pd()}; }
  [[nodiscard]] static simd broadcast(double x) noexcept {
    return {_mm512_set1_pd(x)};
  }
  [[nodiscard]] static simd load(const double* p) noexcept {
    return {_mm512_loadu_pd(p)};
  }
  [[nodiscard]] static simd load_partial(const double* p, int k) noexcept {
    const __mmask8 m = static_cast<__mmask8>((1u << k) - 1u);
    return {_mm512_maskz_loadu_pd(m, p)};
  }
  void store(double* p) const noexcept { _mm512_storeu_pd(p, v); }
  void store_partial(double* p, int k) const noexcept {
    const __mmask8 m = static_cast<__mmask8>((1u << k) - 1u);
    _mm512_mask_storeu_pd(p, m, v);
  }
  [[nodiscard]] friend simd operator+(simd a, simd b) noexcept {
    return {_mm512_add_pd(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator-(simd a, simd b) noexcept {
    return {_mm512_sub_pd(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator*(simd a, simd b) noexcept {
    return {_mm512_mul_pd(a.v, b.v)};
  }
  [[nodiscard]] static simd fma(simd a, simd b, simd c) noexcept {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
  [[nodiscard]] simd swap_pairs() const noexcept {
    // Two-operand shuffle rather than _mm512_permute_pd: the masked permute
    // builtin routes an _mm512_undefined_pd() through the intrinsic header,
    // which gcc 12 flags -Wmaybe-uninitialized at every inline site.
    return {_mm512_shuffle_pd(v, v, 0x55)};
  }
  [[nodiscard]] simd neg_evens() const noexcept {
    // Integer xor: _mm512_xor_pd needs AVX-512DQ, this layer only assumes F.
    const __m512i sign = _mm512_set_epi64(0, INT64_MIN, 0, INT64_MIN, 0,
                                          INT64_MIN, 0, INT64_MIN);
    return {_mm512_castsi512_pd(
        _mm512_xor_epi64(_mm512_castpd_si512(v), sign))};
  }
  [[nodiscard]] double reduce() const noexcept {
    // Spill-and-sum: every gcc 12 AVX-512 cross-lane swizzle
    // (_mm512_reduce_add_pd, extract, shuffle_f64x2) routes an
    // _mm512_undefined_*() through the intrinsic header and trips
    // -Wuninitialized at inline sites. The pairwise tree keeps the
    // sequence auto-vectorizable and the epilogue-only cost negligible.
    alignas(64) double t[8];
    _mm512_storeu_pd(t, v);
    return ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]));
  }
};

template <>
struct simd<float, 16> {
  static constexpr int width = 16;
  __m512 v;

  [[nodiscard]] static simd zero() noexcept { return {_mm512_setzero_ps()}; }
  [[nodiscard]] static simd broadcast(float x) noexcept {
    return {_mm512_set1_ps(x)};
  }
  [[nodiscard]] static simd load(const float* p) noexcept {
    return {_mm512_loadu_ps(p)};
  }
  [[nodiscard]] static simd load_partial(const float* p, int k) noexcept {
    const __mmask16 m = static_cast<__mmask16>((1u << k) - 1u);
    return {_mm512_maskz_loadu_ps(m, p)};
  }
  void store(float* p) const noexcept { _mm512_storeu_ps(p, v); }
  void store_partial(float* p, int k) const noexcept {
    const __mmask16 m = static_cast<__mmask16>((1u << k) - 1u);
    _mm512_mask_storeu_ps(p, m, v);
  }
  [[nodiscard]] friend simd operator+(simd a, simd b) noexcept {
    return {_mm512_add_ps(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator-(simd a, simd b) noexcept {
    return {_mm512_sub_ps(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator*(simd a, simd b) noexcept {
    return {_mm512_mul_ps(a.v, b.v)};
  }
  [[nodiscard]] static simd fma(simd a, simd b, simd c) noexcept {
    return {_mm512_fmadd_ps(a.v, b.v, c.v)};
  }
  [[nodiscard]] simd swap_pairs() const noexcept {
    // Same undefined-operand workaround as the double variant above.
    return {_mm512_shuffle_ps(v, v, 0xB1)};  // _MM_SHUFFLE(2,3,0,1)
  }
  [[nodiscard]] simd neg_evens() const noexcept {
    // Integer xor as in the double variant (plain -mavx512f has no xor_ps).
    const __m512i sign =
        _mm512_set1_epi64(static_cast<long long>(0x0000000080000000ULL));
    return {_mm512_castsi512_ps(_mm512_xor_epi32(_mm512_castps_si512(v), sign))};
  }
  [[nodiscard]] float reduce() const noexcept {
    // Spill-and-sum fold as in the double variant above.
    alignas(64) float t[16];
    _mm512_storeu_ps(t, v);
    float s(0);
    for (int i = 0; i < 16; ++i) {
      s += t[i];
    }
    return s;
  }
};

#endif  // LAPACK90_SIMD_AVX512

#if defined(LAPACK90_SIMD_AVX512) || defined(LAPACK90_SIMD_AVX2)

// The 256-bit types serve as the native width on AVX2 targets and remain
// available (unused by default) on AVX-512 targets.
template <>
struct simd<double, 4> {
  static constexpr int width = 4;
  __m256d v;

  [[nodiscard]] static simd zero() noexcept { return {_mm256_setzero_pd()}; }
  [[nodiscard]] static simd broadcast(double x) noexcept {
    return {_mm256_set1_pd(x)};
  }
  [[nodiscard]] static simd load(const double* p) noexcept {
    return {_mm256_loadu_pd(p)};
  }
  [[nodiscard]] static __m256i tail_mask(int k) noexcept {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(k),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  [[nodiscard]] static simd load_partial(const double* p, int k) noexcept {
    return {_mm256_maskload_pd(p, tail_mask(k))};
  }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
  void store_partial(double* p, int k) const noexcept {
    _mm256_maskstore_pd(p, tail_mask(k), v);
  }
  [[nodiscard]] friend simd operator+(simd a, simd b) noexcept {
    return {_mm256_add_pd(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator-(simd a, simd b) noexcept {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator*(simd a, simd b) noexcept {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  [[nodiscard]] static simd fma(simd a, simd b, simd c) noexcept {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  [[nodiscard]] simd swap_pairs() const noexcept {
    return {_mm256_permute_pd(v, 0x5)};
  }
  [[nodiscard]] simd neg_evens() const noexcept {
    const __m256d sign = _mm256_castsi256_pd(
        _mm256_set_epi64x(0, INT64_MIN, 0, INT64_MIN));
    return {_mm256_xor_pd(v, sign)};
  }
  [[nodiscard]] double reduce() const noexcept {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
  }
};

template <>
struct simd<float, 8> {
  static constexpr int width = 8;
  __m256 v;

  [[nodiscard]] static simd zero() noexcept { return {_mm256_setzero_ps()}; }
  [[nodiscard]] static simd broadcast(float x) noexcept {
    return {_mm256_set1_ps(x)};
  }
  [[nodiscard]] static simd load(const float* p) noexcept {
    return {_mm256_loadu_ps(p)};
  }
  [[nodiscard]] static __m256i tail_mask(int k) noexcept {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(k),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  [[nodiscard]] static simd load_partial(const float* p, int k) noexcept {
    return {_mm256_maskload_ps(p, tail_mask(k))};
  }
  void store(float* p) const noexcept { _mm256_storeu_ps(p, v); }
  void store_partial(float* p, int k) const noexcept {
    _mm256_maskstore_ps(p, tail_mask(k), v);
  }
  [[nodiscard]] friend simd operator+(simd a, simd b) noexcept {
    return {_mm256_add_ps(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator-(simd a, simd b) noexcept {
    return {_mm256_sub_ps(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator*(simd a, simd b) noexcept {
    return {_mm256_mul_ps(a.v, b.v)};
  }
  [[nodiscard]] static simd fma(simd a, simd b, simd c) noexcept {
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
  }
  [[nodiscard]] simd swap_pairs() const noexcept {
    return {_mm256_permute_ps(v, 0xB1)};
  }
  [[nodiscard]] simd neg_evens() const noexcept {
    const __m256 sign = _mm256_castsi256_ps(_mm256_set1_epi64x(
        static_cast<long long>(0x0000000080000000ULL)));
    return {_mm256_xor_ps(v, sign)};
  }
  [[nodiscard]] float reduce() const noexcept {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
    return _mm_cvtss_f32(s);
  }
};

#endif  // AVX512 || AVX2

#if defined(LAPACK90_SIMD_AVX512) || defined(LAPACK90_SIMD_AVX2) || \
    defined(LAPACK90_SIMD_SSE2)

template <>
struct simd<double, 2> {
  static constexpr int width = 2;
  __m128d v;

  [[nodiscard]] static simd zero() noexcept { return {_mm_setzero_pd()}; }
  [[nodiscard]] static simd broadcast(double x) noexcept {
    return {_mm_set1_pd(x)};
  }
  [[nodiscard]] static simd load(const double* p) noexcept {
    return {_mm_loadu_pd(p)};
  }
  [[nodiscard]] static simd load_partial(const double* p, int k) noexcept {
    return {k >= 2 ? _mm_loadu_pd(p)
                   : (k == 1 ? _mm_load_sd(p) : _mm_setzero_pd())};
  }
  void store(double* p) const noexcept { _mm_storeu_pd(p, v); }
  void store_partial(double* p, int k) const noexcept {
    if (k >= 2) {
      _mm_storeu_pd(p, v);
    } else if (k == 1) {
      _mm_store_sd(p, v);
    }
  }
  [[nodiscard]] friend simd operator+(simd a, simd b) noexcept {
    return {_mm_add_pd(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator-(simd a, simd b) noexcept {
    return {_mm_sub_pd(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator*(simd a, simd b) noexcept {
    return {_mm_mul_pd(a.v, b.v)};
  }
  [[nodiscard]] static simd fma(simd a, simd b, simd c) noexcept {
#if defined(__FMA__)
    return {_mm_fmadd_pd(a.v, b.v, c.v)};
#else
    return {_mm_add_pd(_mm_mul_pd(a.v, b.v), c.v)};
#endif
  }
  [[nodiscard]] simd swap_pairs() const noexcept {
    return {_mm_shuffle_pd(v, v, 0x1)};
  }
  [[nodiscard]] simd neg_evens() const noexcept {
    const __m128d sign = _mm_castsi128_pd(_mm_set_epi64x(0, INT64_MIN));
    return {_mm_xor_pd(v, sign)};
  }
  [[nodiscard]] double reduce() const noexcept {
    return _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)));
  }
};

template <>
struct simd<float, 4> {
  static constexpr int width = 4;
  __m128 v;

  [[nodiscard]] static simd zero() noexcept { return {_mm_setzero_ps()}; }
  [[nodiscard]] static simd broadcast(float x) noexcept {
    return {_mm_set1_ps(x)};
  }
  [[nodiscard]] static simd load(const float* p) noexcept {
    return {_mm_loadu_ps(p)};
  }
  [[nodiscard]] static simd load_partial(const float* p, int k) noexcept {
    simd r = zero();
    float t[4] = {};
    for (int i = 0; i < k; ++i) t[i] = p[i];
    r.v = _mm_loadu_ps(t);
    return r;
  }
  void store(float* p) const noexcept { _mm_storeu_ps(p, v); }
  void store_partial(float* p, int k) const noexcept {
    float t[4];
    _mm_storeu_ps(t, v);
    for (int i = 0; i < k; ++i) p[i] = t[i];
  }
  [[nodiscard]] friend simd operator+(simd a, simd b) noexcept {
    return {_mm_add_ps(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator-(simd a, simd b) noexcept {
    return {_mm_sub_ps(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator*(simd a, simd b) noexcept {
    return {_mm_mul_ps(a.v, b.v)};
  }
  [[nodiscard]] static simd fma(simd a, simd b, simd c) noexcept {
#if defined(__FMA__)
    return {_mm_fmadd_ps(a.v, b.v, c.v)};
#else
    return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)};
#endif
  }
  [[nodiscard]] simd swap_pairs() const noexcept {
    return {_mm_shuffle_ps(v, v, 0xB1)};
  }
  [[nodiscard]] simd neg_evens() const noexcept {
    const __m128 sign = _mm_castsi128_ps(
        _mm_set_epi32(0, INT32_MIN, 0, INT32_MIN));
    return {_mm_xor_ps(v, sign)};
  }
  [[nodiscard]] float reduce() const noexcept {
    __m128 s = _mm_add_ps(v, _mm_movehl_ps(v, v));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
    return _mm_cvtss_f32(s);
  }
};

#endif  // AVX512 || AVX2 || SSE2

#if defined(LAPACK90_SIMD_NEON)

template <>
struct simd<float, 4> {
  static constexpr int width = 4;
  float32x4_t v;

  [[nodiscard]] static simd zero() noexcept { return {vdupq_n_f32(0.0f)}; }
  [[nodiscard]] static simd broadcast(float x) noexcept {
    return {vdupq_n_f32(x)};
  }
  [[nodiscard]] static simd load(const float* p) noexcept {
    return {vld1q_f32(p)};
  }
  [[nodiscard]] static simd load_partial(const float* p, int k) noexcept {
    float t[4] = {};
    for (int i = 0; i < k; ++i) t[i] = p[i];
    return {vld1q_f32(t)};
  }
  void store(float* p) const noexcept { vst1q_f32(p, v); }
  void store_partial(float* p, int k) const noexcept {
    float t[4];
    vst1q_f32(t, v);
    for (int i = 0; i < k; ++i) p[i] = t[i];
  }
  [[nodiscard]] friend simd operator+(simd a, simd b) noexcept {
    return {vaddq_f32(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator-(simd a, simd b) noexcept {
    return {vsubq_f32(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator*(simd a, simd b) noexcept {
    return {vmulq_f32(a.v, b.v)};
  }
  [[nodiscard]] static simd fma(simd a, simd b, simd c) noexcept {
    return {vfmaq_f32(c.v, a.v, b.v)};
  }
  [[nodiscard]] simd swap_pairs() const noexcept { return {vrev64q_f32(v)}; }
  [[nodiscard]] simd neg_evens() const noexcept {
    const uint32x4_t sign = {0x80000000u, 0u, 0x80000000u, 0u};
    return {vreinterpretq_f32_u32(
        veorq_u32(vreinterpretq_u32_f32(v), sign))};
  }
  [[nodiscard]] float reduce() const noexcept { return vaddvq_f32(v); }
};

template <>
struct simd<double, 2> {
  static constexpr int width = 2;
  float64x2_t v;

  [[nodiscard]] static simd zero() noexcept { return {vdupq_n_f64(0.0)}; }
  [[nodiscard]] static simd broadcast(double x) noexcept {
    return {vdupq_n_f64(x)};
  }
  [[nodiscard]] static simd load(const double* p) noexcept {
    return {vld1q_f64(p)};
  }
  [[nodiscard]] static simd load_partial(const double* p, int k) noexcept {
    double t[2] = {};
    for (int i = 0; i < k; ++i) t[i] = p[i];
    return {vld1q_f64(t)};
  }
  void store(double* p) const noexcept { vst1q_f64(p, v); }
  void store_partial(double* p, int k) const noexcept {
    double t[2];
    vst1q_f64(t, v);
    for (int i = 0; i < k; ++i) p[i] = t[i];
  }
  [[nodiscard]] friend simd operator+(simd a, simd b) noexcept {
    return {vaddq_f64(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator-(simd a, simd b) noexcept {
    return {vsubq_f64(a.v, b.v)};
  }
  [[nodiscard]] friend simd operator*(simd a, simd b) noexcept {
    return {vmulq_f64(a.v, b.v)};
  }
  [[nodiscard]] static simd fma(simd a, simd b, simd c) noexcept {
    return {vfmaq_f64(c.v, a.v, b.v)};
  }
  [[nodiscard]] simd swap_pairs() const noexcept {
    return {vextq_f64(v, v, 1)};
  }
  [[nodiscard]] simd neg_evens() const noexcept {
    const uint64x2_t sign = {0x8000000000000000ull, 0ull};
    return {vreinterpretq_f64_u64(
        veorq_u64(vreinterpretq_u64_f64(v), sign))};
  }
  [[nodiscard]] double reduce() const noexcept { return vaddvq_f64(v); }
};

#endif  // LAPACK90_SIMD_NEON

/// The native-width vector for real type R.
template <class R>
using simd_native = simd<R, simd_width_v<R>>;

}  // namespace la
