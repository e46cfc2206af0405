// Complex values in registers (GCC/Clang vector extension), in two
// widths: one std::complex<double> per 16-byte vector of two doubles, real
// part in lane 0 (W16), or two per 32-byte vector of four, value k in
// lanes 2k and 2k + 1 (W32).
//
// A product mul(a, b) (common/types.hpp) is written
//   (ar, ar) * b + (-ai, ai) * swap(b)
// whose lane 0 is ar*br + (-ai)*bi and lane 1 ar*bi + ai*br. A negation is
// exact and x + (-y) is the same IEEE operation as x - y, and products and
// two-term sums commute, so both lanes have the bits of mul's
// ar*br - ai*bi and ar*bi + ai*br, signed zeros included. Only a NaN may
// come out with another payload or sign. W32 repeats the pair in its upper
// half, so each of its two values sees the operations W16 would apply to
// it. No FMA is involved: the library is built without -march, and the
// 32-byte code is compiled for AVX2 alone, which does not include FMA, so
// the multiplies and adds stay separate (scripts/tier1.sh checks libbkr.a
// for fused multiply-add instructions). The broadcast pair of a is built
// once, outside the loop that reuses it. DESIGN.md §11 ("Complex kernels
// in register form") lists the kernels that use this form.
//
// Widths. Every x86-64 CPU runs W16 (SSE2). W32 needs AVX, and the
// kernels take it only where host_width(), one cached
// __builtin_cpu_supports("avx2") test, says the CPU runs AVX2. No
// translation unit is compiled with -mavx2: the 32-byte code is compiled
// for AVX2 only inside entry functions marked BKR_TARGET_AVX2, into which
// the kernel templates over the register form and the helpers below are
// inlined (BKR_ALWAYS_INLINE). The helpers carry no target of their own,
// because GCC does not inline a target("avx2") function into a template
// compiled for the default target. A W32 register travels in a struct
// (Pair) passed by const reference: a bare 32-byte vector argument or
// return is what -Wpsabi warns about outside AVX code. Compiled without
// AVX, W32 code still computes the same bits, 16 bytes at a time.
#pragma once

#include <complex>
#include <cstring>

#define BKR_ALWAYS_INLINE __attribute__((always_inline)) inline
#if defined(__x86_64__) || defined(__i386__)
#define BKR_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define BKR_TARGET_AVX2
#endif
// W32::cload2 and W32::swap use __builtin_shufflevector where the
// compiler has it (GCC >= 12, Clang), and build the vector from its
// elements elsewhere, with the same bits. Built from elements, GCC 12
// folds the swap of a cload2 pair into scalar loads and lane inserts:
// six shuffles per step of the C/N tile where the builtin takes two.
#if defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector)
#define BKR_HAS_SHUFFLEVECTOR 1
#endif
#endif
#ifndef BKR_HAS_SHUFFLEVECTOR
#define BKR_HAS_SHUFFLEVECTOR 0
#endif

namespace bkr::creg {

using v2d = double __attribute__((vector_size(16)));
using v4d = double __attribute__((vector_size(32)));
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

// The register forms the kernel templates take (la/blas.hpp). Each has
// a register type `reg` holding `lanes` complex values, cload/cstore of
// `lanes` consecutive values, swap of the two parts of every value, and
// bcast/cmul as above. W16 wraps the one-value helpers above.
struct W16 {
  using reg = v2d;
  using Bcast = creg::Bcast;
  static constexpr int lanes = 1;
  BKR_ALWAYS_INLINE static reg cload(const cplx* p) { return creg::cload(p); }
  BKR_ALWAYS_INLINE static void cstore(cplx* p, reg v) { creg::cstore(p, v); }
  BKR_ALWAYS_INLINE static reg swap(reg v) { return creg::swap(v); }
  BKR_ALWAYS_INLINE static Bcast bcast(cplx a) { return creg::bcast(a); }
  BKR_ALWAYS_INLINE static reg cmul(const Bcast& a, reg b) { return creg::cmul(a, b); }
  BKR_ALWAYS_INLINE static reg cmul(const Bcast& a, reg b, reg b_swapped) {
    return creg::cmul(a, b, b_swapped);
  }
};

// Two values per 32-byte register.
struct Pair {
  v4d v;
  BKR_ALWAYS_INLINE friend Pair operator+(const Pair& x, const Pair& y) { return {x.v + y.v}; }
  BKR_ALWAYS_INLINE friend Pair operator-(const Pair& x, const Pair& y) { return {x.v - y.v}; }
  BKR_ALWAYS_INLINE friend Pair operator*(const Pair& x, const Pair& y) { return {x.v * y.v}; }
  BKR_ALWAYS_INLINE Pair& operator+=(const Pair& y) {
    v += y.v;
    return *this;
  }
};

struct W32 {
  using reg = Pair;
  struct Bcast {
    Pair re, im;
  };
  static constexpr int lanes = 2;
  BKR_ALWAYS_INLINE static reg cload(const cplx* p) {
    Pair r{};
    std::memcpy(&r.v, reinterpret_cast<const double*>(p), sizeof(r.v));
    return r;
  }
  BKR_ALWAYS_INLINE static void cstore(cplx* p, const reg& r) {
    std::memcpy(reinterpret_cast<double*>(p), &r.v, sizeof(r.v));
  }
  // (p[0], q[0]): one value from each of two columns, and back.
  BKR_ALWAYS_INLINE static reg cload2(const cplx* p, const cplx* q) {
    const v2d lo = creg::cload(p), hi = creg::cload(q);
#if BKR_HAS_SHUFFLEVECTOR
    return {__builtin_shufflevector(lo, hi, 0, 1, 2, 3)};
#else
    return {v4d{lo[0], lo[1], hi[0], hi[1]}};
#endif
  }
  BKR_ALWAYS_INLINE static void cstore2(cplx* p, cplx* q, const reg& r) {
    creg::cstore(p, v2d{r.v[0], r.v[1]});
    creg::cstore(q, v2d{r.v[2], r.v[3]});
  }
  BKR_ALWAYS_INLINE static reg swap(const reg& r) {
#if BKR_HAS_SHUFFLEVECTOR
    return {__builtin_shufflevector(r.v, r.v, 1, 0, 3, 2)};
#else
    return {v4d{r.v[1], r.v[0], r.v[3], r.v[2]}};
#endif
  }
  // The broadcast pair of a: (ar, ar, ar, ar) and (-ai, ai, -ai, ai). The
  // negation flips the sign bit, as unary minus does.
  BKR_ALWAYS_INLINE static Bcast bcast(const cplx& a) {
    return {splat(a.real()), imag_flip(a, /*odd_lanes=*/false)};
  }
  BKR_ALWAYS_INLINE static reg cmul(const Bcast& a, const reg& b) {
    return a.re * b + a.im * swap(b);
  }
  BKR_ALWAYS_INLINE static reg cmul(const Bcast& a, const reg& b, const reg& b_swapped) {
    return a.re * b + a.im * b_swapped;
  }
  // The pair that makes cmul(bcast_conj(a), y) equal mul(conj(a), y) in
  // both values of y: (ar, ar) and (ai, -ai) give ar*yr + ai*yi and
  // ar*yi + (-ai)*yr, the two sums of ar*yr - (-ai)*yi and
  // ar*yi + (-ai)*yr with the negation moved between the factors.
  BKR_ALWAYS_INLINE static Bcast bcast_conj(const cplx& a) {
    return {splat(a.real()), imag_flip(a, /*odd_lanes=*/true)};
  }

 private:
  using v4u = unsigned long long __attribute__((vector_size(32)));
  BKR_ALWAYS_INLINE static reg splat(double x) { return {v4d{x, x, x, x}}; }
  // ai in all four lanes, its sign bit flipped in the odd lanes or the
  // even ones. ai is splat as bits: read as a double, GCC merges its splat
  // with ar's into one 16-byte load and two lane shuffles, which made the
  // C/N tile bound by its shuffles.
  BKR_ALWAYS_INLINE static reg imag_flip(const cplx& a, bool odd_lanes) {
    unsigned long long bits = 0;
    std::memcpy(&bits, reinterpret_cast<const double*>(&a) + 1, sizeof(bits));
    constexpr unsigned long long s = 1ULL << 63;
    const v4u mask = odd_lanes ? v4u{0, s, 0, s} : v4u{s, 0, s, 0};
    const v4u r = v4u{bits, bits, bits, bits} ^ mask;
    Pair out{};
    std::memcpy(&out.v, &r, sizeof(r));
    return out;
  }
};

// The register widths, in bytes.
enum class Width { Bytes16 = 16, Bytes32 = 32 };

// The widest form this CPU runs: Bytes32 where it reports AVX2 (libgcc
// reports it only when the OS also saves the 32-byte registers), else
// Bytes16. Tested once per process.
inline Width host_width() {
#if defined(__x86_64__) || defined(__i386__)
  static const Width width = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? Width::Bytes32 : Width::Bytes16;
  }();
  return width;
#else
  return Width::Bytes16;
#endif
}

}  // namespace bkr::creg
