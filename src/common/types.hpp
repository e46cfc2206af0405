// Scalar abstraction shared by every module.
//
// The library is templated on the scalar type of the linear systems it
// manipulates; the two instantiated types are `double` (Poisson,
// elasticity) and `std::complex<double>` (time-harmonic Maxwell). The
// traits below give every algorithm a uniform way to take conjugates,
// magnitudes, and to reason about the associated real type.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <type_traits>

namespace bkr {

using index_t = std::ptrdiff_t;

template <class T>
struct scalar_traits {
  using real_type = T;
  static constexpr bool is_complex = false;
  static T conj(T x) noexcept { return x; }
  static T real(T x) noexcept { return x; }
  static T imag(T) noexcept { return T(0); }
  static T abs(T x) noexcept { return std::abs(x); }
  static T from_real(real_type r) noexcept { return r; }
};

template <class R>
struct scalar_traits<std::complex<R>> {
  using real_type = R;
  static constexpr bool is_complex = true;
  static std::complex<R> conj(std::complex<R> x) noexcept { return std::conj(x); }
  static R real(std::complex<R> x) noexcept { return x.real(); }
  static R imag(std::complex<R> x) noexcept { return x.imag(); }
  static R abs(std::complex<R> x) noexcept { return std::abs(x); }
  static std::complex<R> from_real(R r) noexcept { return {r, R(0)}; }
};

template <class T>
using real_t = typename scalar_traits<T>::real_type;

template <class T>
inline constexpr bool is_complex_v = scalar_traits<T>::is_complex;

// conj/abs helpers that work uniformly on real and complex scalars.
template <class T>
inline T conj(T x) noexcept {
  return scalar_traits<T>::conj(x);
}
template <class T>
inline real_t<T> abs_val(T x) noexcept {
  return scalar_traits<T>::abs(x);
}
template <class T>
inline real_t<T> real_part(T x) noexcept {
  return scalar_traits<T>::real(x);
}

// Product of two scalars, for the inner loops of the dense, direct and
// sparse kernels. The real overload is a * b.
//
// For std::complex, GCC (without -ffast-math) compiles a * b as
//   re = ar*br - ai*bi,  im = ar*bi + ai*br
// followed by the C99 Annex G recovery: if re and im are both NaN, it
// calls libgcc's __muldc3 to recompute the product. That test-and-call
// keeps every loop around the product scalar. The complex overload below
// computes the same two expressions on the same operands in the same
// order, and skips the recovery. Its bits therefore equal operator*'s
// except when operator*'s first pass gives NaN in both parts, which needs
// an inf or NaN operand or an overflowing partial product. Then both
// results are non-finite (__muldc3 may return an infinity where mul
// returns NaN), and the solvers' finite_norms guards turn either into
// NonFiniteResidual.
//
// The build sets no -fcx-limited-range or -fcx-fortran-rules. Those flags
// would drop the recovery for every product, but they also replace the
// scaled complex division of libgcc with a cheaper formula that rounds
// differently, and tests/golden_solves.inc pins the bits of that division.
// Division is untouched here.
template <class T>
inline T mul(T a, T b) noexcept {
  return a * b;
}
template <class R>
inline std::complex<R> mul(std::complex<R> a, std::complex<R> b) noexcept {
  const R ar = a.real(), ai = a.imag(), br = b.real(), bi = b.imag();
  return {ar * br - ai * bi, ar * bi + ai * br};
}

}  // namespace bkr
