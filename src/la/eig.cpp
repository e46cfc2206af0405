#include "la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/contracts.hpp"
#include "la/blas.hpp"
#include "la/complex_reg.hpp"
#include "la/factor.hpp"

namespace bkr {

// The sweeps below keep one complex value per 16-byte register
// (la/complex_reg.hpp); cmul there is mul bit for bit.
using creg::Bcast;
using creg::bcast;
using creg::cload;
using creg::cmul;
using creg::cstore;
using creg::v2d;

// The rotation kernels below write each output of the sweep as
//   c t1 + (s-product)       instead of   mul(conj(c), t1) + mul(conj(s), t2)
// with c held as a real double, the form of LAPACK's zrot. mul(cplx(c, 0), t)
// computes c*tr - 0*ti and c*ti + 0*tr; the 0*t terms are signed zeros, and
// adding a signed zero to a nonzero value returns that value. So for finite
// data every output has the bits of the complex-product form, except that
// the sign of an exactly-zero output may differ (here it is the sign of
// c*t plus the s-product; the product form also folds in the sign of 0*t).
// With an inf or NaN operand the product form gets NaN from 0*inf where
// these kernels may keep an infinity; the result is non-finite either way.
// The s-products are cmul's with the conjugate or negation of s folded
// into the broadcast pair.
namespace detail {

Rotation make_rotation(cplx a, cplx b) {
  const double na = std::abs(a), nb = std::abs(b);
  if (nb == 0.0) return {1.0, 0.0};
  const double r = std::hypot(na, nb);
  if (na == 0.0) return {0.0, b / r};
  const cplx s = mul(a / na, std::conj(b)) / r;
  return {na / r, std::conj(s)};
}

void rotate_rows(cplx* x, cplx* y, index_t len, index_t ld, const Rotation& g) {
  // x := c x + conj(s) y and y := -s x + c y.
  const v2d c{g.c, g.c};
  const Bcast cs = bcast(std::conj(g.s)), ns = bcast(-g.s);
  for (index_t i = 0; i < len; ++i) {
    const v2d a = cload(x + i * ld), b = cload(y + i * ld);
    cstore(x + i * ld, c * a + cmul(cs, b));
    cstore(y + i * ld, cmul(ns, a) + c * b);
  }
}

void rotate_cols(cplx* x, cplx* y, index_t len, const Rotation& g) {
  // x := c x + s y and y := -conj(s) x + c y.
  const v2d c{g.c, g.c};
  const Bcast s = bcast(g.s), ncs = bcast(-std::conj(g.s));
  for (index_t i = 0; i < len; ++i) {
    const v2d a = cload(x + i), b = cload(y + i);
    cstore(x + i, c * a + cmul(s, b));
    cstore(y + i, cmul(ncs, a) + c * b);
  }
}

}  // namespace detail

namespace {

// M := M (I - v tau v^H) on columns j0 .. j0+len-1, all rows: one sweep
// down the columns accumulates every row's s_r = sum_i m(r, j0+i) v_i (in
// ascending i, as a row-by-row dot would), then a second sweep applies
// the rank-one update. acc holds m.rows() entries.
void reflect_right(DenseMatrix<cplx>& m, index_t j0, index_t len, const std::vector<cplx>& v,
                   cplx tau, std::vector<cplx>& acc) {
  const index_t n = m.rows();
  cplx* s = acc.data();
  std::fill(s, s + n, cplx(0));
  for (index_t i = 0; i < len; ++i) {
    const cplx* col = m.col(j0 + i);
    const Bcast vi = bcast(v[size_t(i)]);
    for (index_t r = 0; r < n; ++r) cstore(s + r, cload(s + r) + cmul(vi, cload(col + r)));
  }
  const Bcast t = bcast(tau);
  for (index_t r = 0; r < n; ++r) cstore(s + r, cmul(t, cload(s + r)));
  for (index_t i = 0; i < len; ++i) {
    cplx* col = m.col(j0 + i);
    const Bcast ci = bcast(std::conj(v[size_t(i)]));
    for (index_t r = 0; r < n; ++r) cstore(col + r, cload(col + r) - cmul(ci, cload(s + r)));
  }
}

// Householder similarity reduction A -> Q^H A Q = H (upper Hessenberg),
// accumulating Q.
void hessenberg_reduce(DenseMatrix<cplx>& a, DenseMatrix<cplx>& q) {
  const index_t n = a.rows();
  q = DenseMatrix<cplx>::identity(n);
  std::vector<cplx> v(static_cast<size_t>(n)), acc(static_cast<size_t>(n));
  std::vector<Bcast> vc(static_cast<size_t>(n));  // broadcast pairs of conj(v_i)
  for (index_t j = 0; j + 2 < n; ++j) {
    // Reflector annihilating a(j+2 .. n-1, j).
    const index_t len = n - j - 1;
    for (index_t i = 0; i < len; ++i) v[size_t(i)] = a(j + 1 + i, j);
    cplx alpha = v[0];
    double xnorm = 0;
    for (index_t i = 1; i < len; ++i) xnorm += std::norm(v[size_t(i)]);
    if (xnorm == 0.0 && alpha.imag() == 0.0) continue;
    const double anorm = std::sqrt(std::norm(alpha) + xnorm);
    const double beta = -std::copysign(anorm, alpha.real() == 0.0 ? 1.0 : alpha.real());
    // beta = -copysign(anorm, ...) with anorm > 0 (the xnorm == 0 &&
    // imag == 0 case continued above), and alpha - beta cannot cancel:
    // copysign gives beta the sign opposite to alpha's real part.
    BKR_GUARDED_DIV const cplx tau = (cplx(beta) - alpha) / beta;
    BKR_GUARDED_DIV const cplx scale = 1.0 / (alpha - cplx(beta));
    v[0] = 1.0;
    for (index_t i = 1; i < len; ++i) v[size_t(i)] = mul(v[size_t(i)], scale);
    for (index_t i = 0; i < len; ++i) vc[size_t(i)] = bcast(std::conj(v[size_t(i)]));
    a(j + 1, j) = beta;
    for (index_t i = j + 2; i < n; ++i) a(i, j) = 0.0;
    // A := H^H A on rows j+1..n-1, columns j+1..n-1.
    const cplx ctau = std::conj(tau);
    for (index_t c = j + 1; c < n; ++c) {
      cplx* col = a.col(c) + j + 1;
      v2d acc_s{0.0, 0.0};
      for (index_t i = 0; i < len; ++i) acc_s += cmul(vc[size_t(i)], cload(col + i));
      const Bcast s = bcast(mul(cplx(acc_s[0], acc_s[1]), ctau));
      for (index_t i = 0; i < len; ++i)
        cstore(col + i, cload(col + i) - cmul(s, cload(v.data() + i)));
    }
    // A := A H on all rows, and Q := Q H.
    reflect_right(a, j + 1, len, v, tau, acc);
    reflect_right(q, j + 1, len, v, tau, acc);
  }
}

// Single-shift (Wilkinson) QR iteration bringing an upper Hessenberg
// complex matrix to upper triangular (Schur) form, accumulating into q.
void hessenberg_schur(DenseMatrix<cplx>& h, DenseMatrix<cplx>& q) {
  const index_t n = h.rows();
  const double eps = std::numeric_limits<double>::epsilon();
  index_t hi = n - 1;
  index_t iterations_left = 60 * std::max<index_t>(n, 1);
  while (hi > 0) {
    if (iterations_left-- <= 0)
      throw EigFailure("eig: Hessenberg QR iteration failed to converge");
    // Deflate small subdiagonals. |h(lo, lo)| carries down from the row
    // below, so each scanned row takes two magnitudes.
    index_t lo = hi;
    double dlo = std::abs(h(hi, hi));
    while (lo > 0) {
      const double sub = std::abs(h(lo, lo - 1));
      const double dup = std::abs(h(lo - 1, lo - 1));
      const double scale = dup + dlo;
      if (sub <= eps * std::max(scale, 1e-300)) {
        h(lo, lo - 1) = 0.0;
        break;
      }
      dlo = dup;
      --lo;
    }
    if (lo == hi) {
      --hi;
      continue;
    }
    // Wilkinson shift from the trailing 2x2 of the active block.
    const cplx a = h(hi - 1, hi - 1), b = h(hi - 1, hi), c = h(hi, hi - 1), d = h(hi, hi);
    const cplx tr = a + d;
    const cplx det = a * d - b * c;
    const cplx disc = std::sqrt(tr * tr - 4.0 * det);
    const cplx l1 = 0.5 * (tr + disc), l2 = 0.5 * (tr - disc);
    const cplx shift = (std::abs(l1 - d) < std::abs(l2 - d)) ? l1 : l2;
    // Implicit single-shift sweep: chase the bulge with Givens rotations.
    cplx x = h(lo, lo) - shift;
    cplx y = h(lo + 1, lo);
    for (index_t k = lo; k < hi; ++k) {
      const detail::Rotation g = detail::make_rotation(x, y);
      // G^H from the left to rows k, k+1; G from the right to columns
      // k, k+1 of H (rows up to the bulge) and of Q.
      const index_t c0 = (k > lo) ? k - 1 : lo;
      detail::rotate_rows(&h(k, c0), &h(k + 1, c0), n - c0, h.ld(), g);
      const index_t rmax = std::min(hi, k + 2);
      detail::rotate_cols(h.col(k), h.col(k + 1), rmax + 1, g);
      detail::rotate_cols(q.col(k), q.col(k + 1), n, g);
      if (k + 1 < hi) {
        x = h(k + 1, k);
        y = h(k + 2, k);
      }
    }
  }
}

// Schur form A = Q T Q^H: a is overwritten with T, q receives Q.
void schur(DenseMatrix<cplx>& a, DenseMatrix<cplx>& q) {
  if (a.rows() != a.cols()) throw std::invalid_argument("eig_general: matrix must be square");
  hessenberg_reduce(a, q);
  hessenberg_schur(a, q);
}

std::vector<cplx> diagonal(const DenseMatrix<cplx>& t) {
  std::vector<cplx> d(size_t(t.rows()));
  for (index_t i = 0; i < t.rows(); ++i) d[size_t(i)] = t(i, i);
  return d;
}

// Unit-norm right eigenvectors Q y_j of the Schur form (t, q), one output
// column per index j in cols: y_j by back substitution on T(0..j, 0..j),
// then Q(:, 0..j) y_j. Each column is computed alone, so a column has the
// same bits whichever other columns are asked for (y_j is zero below j,
// and gemm skips zero coefficients, so the product over 0..j is the
// product over all of Q).
DenseMatrix<cplx> schur_eigenvectors(const DenseMatrix<cplx>& t, const DenseMatrix<cplx>& q,
                                     const std::vector<index_t>& cols) {
  const index_t n = t.rows();
  double tnorm = 0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) tnorm = std::max(tnorm, std::abs(t(i, j)));
  const double smin = std::numeric_limits<double>::epsilon() * std::max(tnorm, 1e-300);
  DenseMatrix<cplx> out(n, index_t(cols.size()));
  std::vector<cplx> y(static_cast<size_t>(n));
  for (index_t c = 0; c < out.cols(); ++c) {
    const index_t j = cols[size_t(c)];
    const cplx lambda = t(j, j);
    y[size_t(j)] = 1.0;
    for (index_t i = j - 1; i >= 0; --i) {
      cplx s = 0;
      for (index_t l = i + 1; l <= j; ++l) s += mul(t(i, l), y[size_t(l)]);
      cplx diag = t(i, i) - lambda;
      if (std::abs(diag) < smin) diag = cplx(smin);  // perturb repeated eigenvalues
      y[size_t(i)] = -s / diag;
    }
    double nrm = 0;
    for (index_t i = 0; i <= j; ++i) nrm += std::norm(y[size_t(i)]);
    nrm = std::sqrt(nrm);
    for (index_t i = 0; i <= j; ++i) y[size_t(i)] /= nrm;
    gemm<cplx>(Trans::N, Trans::N, 1.0, q.block(0, 0, n, j + 1),
               MatrixView<const cplx>(y.data(), j + 1, 1, j + 1), 0.0, out.block(0, c, n, 1));
    const double vn = norm2(n, out.col(c));
    if (vn > 0)
      for (index_t i = 0; i < n; ++i) out(i, c) /= vn;
  }
  return out;
}

// Order of eigenvalue indices by ascending magnitude.
std::vector<index_t> sort_by_magnitude(const std::vector<cplx>& values) {
  std::vector<index_t> order(values.size());
  std::iota(order.begin(), order.end(), index_t(0));
  std::sort(order.begin(), order.end(), [&](index_t i, index_t j) {
    return std::abs(values[size_t(i)]) < std::abs(values[size_t(j)]);
  });
  return order;
}

DenseMatrix<cplx> to_complex(const DenseMatrix<double>& a) {
  DenseMatrix<cplx> out(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) out(i, j) = a(i, j);
  return out;
}

template <class T>
void check_pencil(const DenseMatrix<T>& t, const DenseMatrix<T>& w) {
  if (t.rows() != w.rows() || t.cols() != w.cols() || t.rows() != t.cols())
    throw std::invalid_argument("eig_generalized: dimension mismatch");
}

// T := W^-1 T, the standard form of the pencil (T, W); both arrive as
// owned copies, W is factored in place.
DenseMatrix<cplx> standard_form(DenseMatrix<cplx> t, DenseMatrix<cplx> w) {
  DenseLU<cplx> lu(std::move(w));
  if (lu.singular())
    throw EigFailure("eig_generalized: W is singular; use the other recycle strategy");
  lu.solve(t.view());
  return t;
}

// The k eigenvectors of smallest |theta| of a, as columns; a is consumed.
// The eigenvalues are ordered from diag(T) before any vector is formed,
// and only the selected columns are back-substituted.
DenseMatrix<cplx> smallest_complex(DenseMatrix<cplx> a, index_t k) {
  DenseMatrix<cplx> q;
  schur(a, q);
  const auto order = sort_by_magnitude(diagonal(a));
  return schur_eigenvectors(a, q, std::vector<index_t>(order.begin(), order.begin() + k));
}

// Real span of the smallest-|theta| eigenvectors of a real matrix promoted
// to complex: conjugate pairs become [Re z, Im z]; the pair's mirror
// eigenvalue is consumed.
DenseMatrix<double> smallest_real(DenseMatrix<cplx> a, index_t k) {
  DenseMatrix<cplx> q;
  schur(a, q);
  const std::vector<cplx> values = diagonal(a);
  const auto order = sort_by_magnitude(values);
  const index_t n = a.rows();
  // Pick the eigenvalues from the values alone; pair[c] marks a complex one.
  std::vector<index_t> picks;
  std::vector<bool> pair;
  std::vector<bool> used(values.size(), false);
  index_t filled = 0;
  for (index_t oi = 0; oi < index_t(order.size()) && filled < k; ++oi) {
    const index_t idx = order[size_t(oi)];
    if (used[size_t(idx)]) continue;
    used[size_t(idx)] = true;
    const cplx lambda = values[size_t(idx)];
    const double scale = std::max(std::abs(lambda), 1e-300);
    picks.push_back(idx);
    if (std::abs(lambda.imag()) <= 1e-10 * scale) {
      pair.push_back(false);
      ++filled;
      continue;
    }
    // Conjugate pair: mark the mirror as used.
    index_t mirror = -1;
    double best = std::numeric_limits<double>::max();
    for (index_t l = 0; l < index_t(values.size()); ++l) {
      if (used[size_t(l)]) continue;
      const double d = std::abs(values[size_t(l)] - std::conj(lambda));
      if (d < best) {
        best = d;
        mirror = l;
      }
    }
    if (mirror >= 0 && best <= 1e-6 * scale) used[size_t(mirror)] = true;
    pair.push_back(true);
    filled += filled + 1 < k ? 2 : 1;
  }
  const DenseMatrix<cplx> z = schur_eigenvectors(a, q, picks);
  DenseMatrix<double> out(n, k);
  filled = 0;
  for (index_t c = 0; c < z.cols(); ++c) {
    double re2 = 0, im2 = 0;
    for (index_t i = 0; i < n; ++i) {
      re2 += z(i, c).real() * z(i, c).real();
      im2 += z(i, c).imag() * z(i, c).imag();
    }
    if (!pair[size_t(c)]) {
      // Real eigenvalue: take the real part of the eigenvector (for a real
      // matrix it is real up to a unit phase; pick the dominant part).
      const bool use_im = im2 > re2;
      double nrm = std::sqrt(std::max(use_im ? im2 : re2, 1e-300));
      for (index_t i = 0; i < n; ++i)
        out(i, filled) = (use_im ? z(i, c).imag() : z(i, c).real()) / nrm;
      ++filled;
      continue;
    }
    // Conjugate pair: keep [Re z, Im z].
    const double nr = std::sqrt(std::max(re2, 1e-300));
    const double ni = std::sqrt(std::max(im2, 1e-300));
    for (index_t i = 0; i < n; ++i) out(i, filled) = z(i, c).real() / nr;
    ++filled;
    if (filled < k) {
      for (index_t i = 0; i < n; ++i) out(i, filled) = z(i, c).imag() / ni;
      ++filled;
    }
  }
  return out;
}

}  // namespace

EigDecomposition eig_general(DenseMatrix<cplx> a) {
  DenseMatrix<cplx> q;
  schur(a, q);
  EigDecomposition out;
  out.values = diagonal(a);
  std::vector<index_t> all(out.values.size());
  std::iota(all.begin(), all.end(), index_t(0));
  out.vectors = schur_eigenvectors(a, q, all);
  return out;
}

EigDecomposition eig_generalized(const DenseMatrix<cplx>& t, const DenseMatrix<cplx>& w) {
  check_pencil(t, w);
  return eig_general(standard_form(copy_of(t), copy_of(w)));
}

template <>
DenseMatrix<double> smallest_eig_vectors<double>(const DenseMatrix<double>& a, index_t k) {
  BKR_REQUIRE(k >= 0 && k <= a.rows(), "k", k, "a.rows", a.rows());
  return smallest_real(to_complex(a), k);
}

template <>
DenseMatrix<cplx> smallest_eig_vectors<cplx>(const DenseMatrix<cplx>& a, index_t k) {
  BKR_REQUIRE(k >= 0 && k <= a.rows(), "k", k, "a.rows", a.rows());
  return smallest_complex(copy_of(a), k);
}

template <>
DenseMatrix<double> smallest_gen_eig_vectors<double>(const DenseMatrix<double>& t,
                                                     const DenseMatrix<double>& w, index_t k) {
  BKR_REQUIRE(k >= 0 && k <= t.rows(), "k", k, "t.rows", t.rows());
  check_pencil(t, w);
  return smallest_real(standard_form(to_complex(t), to_complex(w)), k);
}

template <>
DenseMatrix<cplx> smallest_gen_eig_vectors<cplx>(const DenseMatrix<cplx>& t,
                                                 const DenseMatrix<cplx>& w, index_t k) {
  BKR_REQUIRE(k >= 0 && k <= t.rows(), "k", k, "t.rows", t.rows());
  check_pencil(t, w);
  return smallest_complex(standard_form(copy_of(t), copy_of(w)), k);
}

}  // namespace bkr
