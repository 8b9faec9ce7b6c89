// lapack90/core/precision.hpp
//
// The C++ analog of the paper's LA_PRECISION module:
//
//   MODULE LA_PRECISION
//     INTEGER, PARAMETER :: SP=KIND(1.0), DP=KIND(1.0D0)
//   END MODULE LA_PRECISION
//
// In FORTRAN 90 the working precision is selected by `USE LA_PRECISION,
// ONLY: WP => SP`; in this reproduction the same selection is a template
// parameter or a type alias (`using WP = la::SP;`). This header also
// provides the machine-parameter queries that LAPACK obtains from xLAMCH.
#pragma once

#include <cmath>
#include <limits>

#include "lapack90/core/types.hpp"

namespace la {

/// Single precision working type (the paper's SP).
using SP = float;
/// Double precision working type (the paper's DP).
using DP = double;

namespace detail {

template <class T>
struct lower_precision_impl {
  using type = T;
};
template <>
struct lower_precision_impl<double> {
  using type = float;
};
template <>
struct lower_precision_impl<std::complex<double>> {
  using type = std::complex<float>;
};

template <class T>
struct higher_precision_impl {
  using type = T;
};
template <>
struct higher_precision_impl<float> {
  using type = double;
};
template <>
struct higher_precision_impl<std::complex<float>> {
  using type = std::complex<double>;
};

}  // namespace detail

/// The next-lower working precision with the same real/complex structure:
/// lower_precision_t<double> = float, lower_precision_t<complex<double>> =
/// complex<float>. Identity when no lower LAPACK precision exists. This is
/// the demotion map of the mixed-precision subsystem (la::mixed): what the
/// paper's compile-time S/D/C/Z dispatch cannot express, a driver crossing
/// from WP to the cheaper kind.
template <Scalar T>
using lower_precision_t = typename detail::lower_precision_impl<T>::type;

/// The next-higher working precision (promotion map): float -> double,
/// complex<float> -> complex<double>; identity for the double kinds.
template <Scalar T>
using higher_precision_t = typename detail::higher_precision_impl<T>::type;

/// True when T has a strictly lower precision to demote into (the double
/// kinds). The mixed-precision drivers are constrained on this.
template <Scalar T>
inline constexpr bool has_lower_precision_v =
    !std::is_same_v<T, lower_precision_t<T>>;

/// Compensated accumulator (two-sum / TwoProd, double-double style): keeps
/// a running sum `hi` plus the rounding error `lo` that plain += discards,
/// so a length-n accumulation carries an error bound independent of n for
/// well-scaled data — effectively twice the working precision. This is the
/// extended-precision residual accumulation of MPLAPACK-style refinement,
/// built from error-free transformations:
///
///   two_sum:  s + v = t + e exactly, with t = fl(s + v);
///   two_prod: a * b = p + e exactly, with p = fl(a * b), e via FMA.
template <RealScalar R>
struct Compensated {
  R hi{};
  R lo{};

  /// Absorb a term exactly (Knuth two-sum; no ordering assumption on
  /// |hi| vs |v|, unlike the cheaper fast-two-sum).
  constexpr void add(R v) noexcept {
    const R t = hi + v;
    const R vv = t - hi;
    lo += (hi - (t - vv)) + (v - vv);
    hi = t;
  }

  /// Absorb the product a * b exactly (TwoProd: the FMA recovers the
  /// rounding error of the multiply, two_sum the error of the add).
  void add_prod(R a, R b) noexcept {
    const R p = a * b;
    add(p);
    lo += std::fma(a, b, -p);
  }

  /// The compensated total, rounded once to working precision.
  [[nodiscard]] constexpr R result() const noexcept { return hi + lo; }
};

/// Machine parameters for a working precision, mirroring xLAMCH queries.
/// All values are for the *real* type underlying T, as in LAPACK (CLAMCH
/// returns REAL values for COMPLEX computations).
template <Scalar T>
struct Machine {
  using R = real_t<T>;

  /// Relative machine epsilon (LAMCH 'E'): ulp/2 in LAPACK's convention is
  /// not used here; we use std::numeric_limits::epsilon()/2 to match
  /// LAPACK's eps = relative machine precision.
  [[nodiscard]] static constexpr R eps() noexcept {
    return std::numeric_limits<R>::epsilon() / R(2);
  }

  /// Machine precision * base (LAMCH 'P'): eps * 2.
  [[nodiscard]] static constexpr R prec() noexcept {
    return std::numeric_limits<R>::epsilon();
  }

  /// Safe minimum (LAMCH 'S'): smallest number whose reciprocal does not
  /// overflow.
  [[nodiscard]] static constexpr R safmin() noexcept {
    constexpr R small = R(1) / std::numeric_limits<R>::max();
    constexpr R tiny = std::numeric_limits<R>::min();
    // If 1/huge rounds to something >= tiny, use it (with a guard digit).
    if constexpr (small >= tiny) {
      return small * (R(1) + std::numeric_limits<R>::epsilon());
    } else {
      return tiny;
    }
  }

  /// Largest finite value (LAMCH 'O').
  [[nodiscard]] static constexpr R huge_val() noexcept {
    return std::numeric_limits<R>::max();
  }

  /// Underflow threshold (LAMCH 'U').
  [[nodiscard]] static constexpr R tiny_val() noexcept {
    return std::numeric_limits<R>::min();
  }

  /// Base of the machine (LAMCH 'B').
  [[nodiscard]] static constexpr R base() noexcept { return R(2); }

  /// Scaling thresholds used by norm/scale-safe kernels (xLASSQ, xLARFG):
  /// values below rmin or above rmax are rescaled before squaring.
  [[nodiscard]] static R rmin() noexcept {
    return std::sqrt(tiny_val()) / prec();
  }
  [[nodiscard]] static R rmax() noexcept {
    return std::sqrt(huge_val()) * prec();
  }
};

/// eps shorthand: la::eps<T>() is LAPACK's xLAMCH('E') for T's precision.
template <Scalar T>
[[nodiscard]] constexpr real_t<T> eps() noexcept {
  return Machine<T>::eps();
}

/// safmin shorthand.
template <Scalar T>
[[nodiscard]] constexpr real_t<T> safmin() noexcept {
  return Machine<T>::safmin();
}

/// sqrt(a^2 + b^2) without unnecessary overflow (xLAPY2).
template <RealScalar R>
[[nodiscard]] R lapy2(R a, R b) noexcept {
  const R xa = std::abs(a);
  const R xb = std::abs(b);
  const R w = xa > xb ? xa : xb;
  const R z = xa > xb ? xb : xa;
  if (z == R(0)) {
    return w;
  }
  const R q = z / w;
  return w * std::sqrt(R(1) + q * q);
}

/// sqrt(a^2 + b^2 + c^2) without unnecessary overflow (xLAPY3).
template <RealScalar R>
[[nodiscard]] R lapy3(R a, R b, R c) noexcept {
  const R xa = std::abs(a);
  const R xb = std::abs(b);
  const R xc = std::abs(c);
  R w = xa > xb ? xa : xb;
  if (xc > w) {
    w = xc;
  }
  if (w == R(0)) {
    return R(0);
  }
  const R qa = xa / w;
  const R qb = xb / w;
  const R qc = xc / w;
  return w * std::sqrt(qa * qa + qb * qb + qc * qc);
}

/// Robust complex division (xLADIV, Smith's algorithm): (a+bi)/(c+di)
/// without intermediate overflow. Used by the nonsymmetric eigensolver.
template <RealScalar R>
void ladiv(R a, R b, R c, R d, R& p, R& q) noexcept {
  if (std::abs(d) < std::abs(c)) {
    const R e = d / c;
    const R f = c + d * e;
    p = (a + b * e) / f;
    q = (b - a * e) / f;
  } else {
    const R e = c / d;
    const R f = d + c * e;
    p = (a * e + b) / f;
    q = (b * e - a) / f;
  }
}

/// Robust complex division returning std::complex.
template <RealScalar R>
[[nodiscard]] std::complex<R> ladiv(std::complex<R> x,
                                    std::complex<R> y) noexcept {
  R p;
  R q;
  ladiv(x.real(), x.imag(), y.real(), y.imag(), p, q);
  return std::complex<R>(p, q);
}

/// Scaled sum of squares update (xLASSQ): maintains (scale, sumsq) with
///   scale^2 * sumsq = scale_in^2 * sumsq_in + sum_i x_i^2
/// avoiding overflow/underflow. `x` strides by incx over n elements.
template <Scalar T>
void lassq(idx n, const T* x, idx incx, real_t<T>& scale,
           real_t<T>& sumsq) noexcept {
  using R = real_t<T>;
  if (n <= 0) {
    return;
  }
  auto absorb = [&](R v) {
    if (v == R(0)) {
      return;
    }
    const R av = std::abs(v);
    if (scale < av) {
      const R r = scale / av;
      sumsq = R(1) + sumsq * r * r;
      scale = av;
    } else {
      // av == scale must not divide: a second Inf would make Inf/Inf = NaN.
      const R r = av == scale ? R(1) : av / scale;
      sumsq += r * r;
    }
  };
  for (idx i = 0; i < n; ++i) {
    const T& xi = x[off(i, incx)];
    if constexpr (is_complex_v<T>) {
      absorb(xi.real());
      absorb(xi.imag());
    } else {
      absorb(xi);
    }
  }
}

}  // namespace la
