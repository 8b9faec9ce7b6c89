// lapack90/core/types.hpp
//
// Fundamental scalar machinery for the LAPACK90 reproduction: the set of
// supported element types, the `Scalar` concept that stands in for the
// four-way S/D/C/Z interface bodies of the original FORTRAN 90 interface
// blocks, and the helpers (real_t, conj_if, abs1) that LAPACK algorithms
// use to stay generic across real and complex data.
#pragma once

#include <complex>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace la {

/// Index type used throughout. LAPACK 77 uses default INTEGER; we mirror
/// that with a 32-bit signed index (documented limitation: dimensions must
/// fit in int, i.e. < 2^31).
using idx = std::int32_t;

/// Offset of element i of a vector with stride (or leading dimension) inc,
/// formed in std::ptrdiff_t. The idx product i * inc is signed overflow,
/// which is undefined, once a strided vector spans 2^31 elements, and the
/// optimizer reshapes loops on that assumption; the wide product is exact
/// for every in-range i and the same value below 2^31.
[[nodiscard]] constexpr std::ptrdiff_t off(idx i, idx inc) noexcept {
  return static_cast<std::ptrdiff_t>(i) * inc;
}

/// One shared codegen for kernels whose results must be bitwise identical
/// across call sites. When a small kernel is inlined into two different
/// callers, the auto-vectorizer may lower its floating-point loops
/// differently per context (e.g. the FMA-based complex-multiply pattern),
/// producing last-ulp divergence between "the same" computation — which
/// breaks the mixed drivers' fallback bit-identity guarantee. Marking the
/// kernel noinline pins a single instantiation that every caller shares.
#if defined(__GNUC__) || defined(__clang__)
#define LAPACK90_NOINLINE __attribute__((noinline))
#else
#define LAPACK90_NOINLINE
#endif

namespace detail {

template <class T>
struct is_complex_impl : std::false_type {};
template <class R>
struct is_complex_impl<std::complex<R>> : std::true_type {};

}  // namespace detail

/// True when T is std::complex<float> or std::complex<double>.
template <class T>
inline constexpr bool is_complex_v = detail::is_complex_impl<T>::value;

/// The four LAPACK element types: S, D, C, Z.
template <class T>
concept Scalar = std::same_as<T, float> || std::same_as<T, double> ||
                 std::same_as<T, std::complex<float>> ||
                 std::same_as<T, std::complex<double>>;

/// Real element types only (S, D).
template <class T>
concept RealScalar = Scalar<T> && !is_complex_v<T>;

/// Complex element types only (C, Z).
template <class T>
concept ComplexScalar = Scalar<T> && is_complex_v<T>;

namespace detail {

template <class T>
struct real_of {
  using type = T;
};
template <class R>
struct real_of<std::complex<R>> {
  using type = R;
};

}  // namespace detail

/// The underlying real type: real_t<std::complex<double>> == double.
template <class T>
using real_t = typename detail::real_of<T>::type;

/// conj for complex, identity for real — lets one template body serve the
/// transposed and conjugate-transposed code paths.
template <Scalar T>
[[nodiscard]] constexpr T conj_if(const T& x) noexcept {
  if constexpr (is_complex_v<T>) {
    return std::conj(x);
  } else {
    return x;
  }
}

/// The |Re| + |Im| "1-absolute-value" LAPACK uses (CABS1); plain abs for real.
template <Scalar T>
[[nodiscard]] real_t<T> abs1(const T& x) noexcept {
  if constexpr (is_complex_v<T>) {
    return std::abs(x.real()) + std::abs(x.imag());
  } else {
    return std::abs(x);
  }
}

/// Real part (identity for real scalars).
template <Scalar T>
[[nodiscard]] constexpr real_t<T> real_part(const T& x) noexcept {
  if constexpr (is_complex_v<T>) {
    return x.real();
  } else {
    return x;
  }
}

/// Imaginary part (zero for real scalars).
template <Scalar T>
[[nodiscard]] constexpr real_t<T> imag_part(const T& x) noexcept {
  if constexpr (is_complex_v<T>) {
    return x.imag();
  } else {
    return real_t<T>(0);
  }
}

/// Build a T from real and imaginary parts (imag must be 0 for real T).
template <Scalar T>
[[nodiscard]] constexpr T make_scalar(real_t<T> re,
                                      real_t<T> im = real_t<T>(0)) noexcept {
  if constexpr (is_complex_v<T>) {
    return T(re, im);
  } else {
    return re;
  }
}

/// Transpose/conjugate-transpose/no-transpose selector (the CHARACTER*1
/// TRANS argument of BLAS/LAPACK).
enum class Trans : char {
  NoTrans = 'N',
  Trans = 'T',
  ConjTrans = 'C',
};

/// Upper/lower triangle selector (UPLO).
enum class Uplo : char {
  Upper = 'U',
  Lower = 'L',
};

/// Unit-diagonal selector (DIAG).
enum class Diag : char {
  NonUnit = 'N',
  Unit = 'U',
};

/// Left/right multiplication side (SIDE).
enum class Side : char {
  Left = 'L',
  Right = 'R',
};

/// Matrix norm selector (the NORM argument of LA_LANGE and friends).
enum class Norm : char {
  One = '1',        ///< max column sum
  Inf = 'I',        ///< max row sum
  Frobenius = 'F',  ///< sqrt of sum of squares
  Max = 'M',        ///< max |a_ij| (not a true norm)
};

/// Eigenvector job (JOBZ).
enum class Job : char {
  NoVec = 'N',
  Vec = 'V',
};

/// Apply-from selector used when TRANS may legally be only N or T/C
/// depending on realness; maps Trans::Trans to ConjTrans for complex types
/// where LAPACK requires 'C'.
template <Scalar T>
[[nodiscard]] constexpr Trans conj_trans_for() noexcept {
  return is_complex_v<T> ? Trans::ConjTrans : Trans::Trans;
}

/// Flip NoTrans <-> (Conj)Trans.
template <Scalar T>
[[nodiscard]] constexpr Trans flip(Trans t) noexcept {
  return t == Trans::NoTrans ? conj_trans_for<T>() : Trans::NoTrans;
}

}  // namespace la
