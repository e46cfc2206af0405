// Complex values in 16-byte registers (GCC/Clang vector extension): one
// std::complex<double> per vector of two doubles, real part in lane 0.
//
// A product mul(a, b) (common/types.hpp) is written
//   (ar, ar) * b + (-ai, ai) * swap(b)
// whose lane 0 is ar*br + (-ai)*bi and lane 1 ar*bi + ai*br. A negation is
// exact and x + (-y) is the same IEEE operation as x - y, and products and
// two-term sums commute, so both lanes have the bits of mul's
// ar*br - ai*bi and ar*bi + ai*br, signed zeros included. Only a NaN may
// come out with another payload or sign. No FMA is involved: the library
// is built without -march, so the multiplies and adds stay separate. The
// broadcast pair of a is built once, outside the loop that reuses it.
// DESIGN.md §11 ("Complex kernels in register form") lists the kernels
// that use this form.
#pragma once

#include <complex>
#include <cstring>

namespace bkr::creg {

using v2d = double __attribute__((vector_size(16)));
using cplx = std::complex<double>;

// std::complex<double> is only 8-byte aligned, so loads and stores go
// through memcpy on its (real, imag) array view. (The names keep clear of
// other load/store functions in the project.)
inline v2d cload(const cplx* p) {
  v2d v{};
  std::memcpy(&v, reinterpret_cast<const double*>(p), sizeof(v));
  return v;
}
inline void cstore(cplx* p, v2d v) { std::memcpy(reinterpret_cast<double*>(p), &v, sizeof(v)); }
inline v2d swap(v2d v) { return v2d{v[1], v[0]}; }

// The broadcast pair of a: (ar, ar) and (-ai, ai).
struct Bcast {
  v2d re, im;
};
inline Bcast bcast(cplx a) { return {v2d{a.real(), a.real()}, v2d{-a.imag(), a.imag()}}; }
// mul(a, b), bitwise.
inline v2d cmul(const Bcast& a, v2d b) { return a.re * b + a.im * swap(b); }
// The same product with swap(b) formed once by the caller, for a b that
// meets several broadcast pairs.
inline v2d cmul(const Bcast& a, v2d b, v2d b_swapped) { return a.re * b + a.im * b_swapped; }

// The pair that makes cmul(bcast_cdot(y), v) equal mul(conj(v), y):
// (yr, -yr) and (yi, yi) give lane 0 yr*vr + yi*vi and lane 1
// (-yr)*vi + yi*vr, the two sums of vr*yr - (-vi)*yi and
// vr*yi + (-vi)*yr with their terms commuted and the negation moved
// between the factors of a product.
inline Bcast bcast_cdot(cplx y) { return {v2d{y.real(), -y.real()}, v2d{y.imag(), y.imag()}}; }

}  // namespace bkr::creg
