#include "la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/contracts.hpp"
#include "la/blas.hpp"
#include "la/factor.hpp"

namespace bkr {
namespace {

// Householder similarity reduction A -> Q^H A Q = H (upper Hessenberg),
// accumulating Q.
void hessenberg_reduce(DenseMatrix<cplx>& a, DenseMatrix<cplx>& q) {
  const index_t n = a.rows();
  q = DenseMatrix<cplx>::identity(n);
  std::vector<cplx> v(static_cast<size_t>(n));
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
    a(j + 1, j) = beta;
    for (index_t i = j + 2; i < n; ++i) a(i, j) = 0.0;
    // A := H^H A on rows j+1..n-1, columns j+1..n-1.
    for (index_t c = j + 1; c < n; ++c) {
      cplx s = 0;
      for (index_t i = 0; i < len; ++i) s += mul(std::conj(v[size_t(i)]), a(j + 1 + i, c));
      s = mul(s, std::conj(tau));
      for (index_t i = 0; i < len; ++i) a(j + 1 + i, c) -= mul(v[size_t(i)], s);
    }
    // A := A H on all rows, columns j+1..n-1.
    for (index_t r = 0; r < n; ++r) {
      cplx s = 0;
      for (index_t i = 0; i < len; ++i) s += mul(a(r, j + 1 + i), v[size_t(i)]);
      s = mul(s, tau);
      for (index_t i = 0; i < len; ++i) a(r, j + 1 + i) -= mul(s, std::conj(v[size_t(i)]));
    }
    // Q := Q H.
    for (index_t r = 0; r < n; ++r) {
      cplx s = 0;
      for (index_t i = 0; i < len; ++i) s += mul(q(r, j + 1 + i), v[size_t(i)]);
      s = mul(s, tau);
      for (index_t i = 0; i < len; ++i) q(r, j + 1 + i) -= mul(s, std::conj(v[size_t(i)]));
    }
  }
}

struct Rotation {
  cplx c;  // |c|^2 + |s|^2 = 1, c real in the LAPACK convention we use
  cplx s;
};

// Complex Givens rotation zeroing b: [c conj(s); -s c]^H? We use the
// convention G = [c s; -conj(s) c], c real >= 0, so that
// G^H [a; b] = [r; 0].
Rotation make_rotation(cplx a, cplx b) {
  const double na = std::abs(a), nb = std::abs(b);
  if (nb == 0.0) return {1.0, 0.0};
  const double r = std::hypot(na, nb);
  if (na == 0.0) return {0.0, b / r};
  const cplx c = na / r;
  const cplx s = (a / na) * std::conj(b) / r;
  return {c, std::conj(s)};
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
    // Deflate small subdiagonals.
    index_t lo = hi;
    while (lo > 0) {
      const double sub = std::abs(h(lo, lo - 1));
      const double scale = std::abs(h(lo - 1, lo - 1)) + std::abs(h(lo, lo));
      if (sub <= eps * std::max(scale, 1e-300)) {
        h(lo, lo - 1) = 0.0;
        break;
      }
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
      const Rotation g = make_rotation(x, y);
      // Apply G^H from the left to rows k, k+1.
      const index_t c0 = (k > lo) ? k - 1 : lo;
      for (index_t col = c0; col < n; ++col) {
        const cplx t1 = h(k, col), t2 = h(k + 1, col);
        h(k, col) = mul(std::conj(g.c), t1) + mul(std::conj(g.s), t2);
        h(k + 1, col) = mul(-g.s, t1) + mul(g.c, t2);
      }
      // Apply G from the right to columns k, k+1.
      const index_t rmax = std::min(hi, k + 2);
      for (index_t row = 0; row <= rmax; ++row) {
        const cplx t1 = h(row, k), t2 = h(row, k + 1);
        h(row, k) = mul(t1, g.c) + mul(t2, g.s);
        h(row, k + 1) = mul(-t1, std::conj(g.s)) + mul(t2, std::conj(g.c));
      }
      for (index_t row = 0; row < n; ++row) {
        const cplx t1 = q(row, k), t2 = q(row, k + 1);
        q(row, k) = mul(t1, g.c) + mul(t2, g.s);
        q(row, k + 1) = mul(-t1, std::conj(g.s)) + mul(t2, std::conj(g.c));
      }
      if (k + 1 < hi) {
        x = h(k + 1, k);
        y = h(k + 2, k);
      }
    }
  }
}

// Right eigenvectors of an upper triangular matrix by back substitution.
DenseMatrix<cplx> triangular_eigenvectors(const DenseMatrix<cplx>& t) {
  const index_t n = t.rows();
  DenseMatrix<cplx> y(n, n);
  double tnorm = 0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) tnorm = std::max(tnorm, std::abs(t(i, j)));
  const double smin = std::numeric_limits<double>::epsilon() * std::max(tnorm, 1e-300);
  for (index_t j = n - 1; j >= 0; --j) {
    const cplx lambda = t(j, j);
    y(j, j) = 1.0;
    for (index_t i = j - 1; i >= 0; --i) {
      cplx s = 0;
      for (index_t l = i + 1; l <= j; ++l) s += mul(t(i, l), y(l, j));
      cplx diag = t(i, i) - lambda;
      if (std::abs(diag) < smin) diag = cplx(smin);  // perturb repeated eigenvalues
      y(i, j) = -s / diag;
    }
    // Normalize.
    double nrm = 0;
    for (index_t i = 0; i <= j; ++i) nrm += std::norm(y(i, j));
    nrm = std::sqrt(nrm);
    for (index_t i = 0; i <= j; ++i) y(i, j) /= nrm;
  }
  return y;
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

// Select k columns spanning the smallest-|theta| invariant subspace.
DenseMatrix<cplx> select_complex(const EigDecomposition& e, index_t k) {
  const auto order = sort_by_magnitude(e.values);
  const index_t n = e.vectors.rows();
  DenseMatrix<cplx> out(n, k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < n; ++i) out(i, j) = e.vectors(i, order[size_t(j)]);
  return out;
}

// Real span of the smallest-|theta| eigenvectors: conjugate pairs become
// [Re z, Im z]; the pair's mirror eigenvalue is consumed.
DenseMatrix<double> select_real(const EigDecomposition& e, index_t k) {
  const auto order = sort_by_magnitude(e.values);
  const index_t n = e.vectors.rows();
  DenseMatrix<double> out(n, k);
  std::vector<bool> used(e.values.size(), false);
  index_t filled = 0;
  for (index_t oi = 0; oi < index_t(order.size()) && filled < k; ++oi) {
    const index_t idx = order[size_t(oi)];
    if (used[size_t(idx)]) continue;
    used[size_t(idx)] = true;
    const cplx lambda = e.values[size_t(idx)];
    const double scale = std::max(std::abs(lambda), 1e-300);
    if (std::abs(lambda.imag()) <= 1e-10 * scale) {
      // Real eigenvalue: take the real part of the eigenvector (for a real
      // matrix it is real up to a unit phase; pick the dominant part).
      double re2 = 0, im2 = 0;
      for (index_t i = 0; i < n; ++i) {
        re2 += e.vectors(i, idx).real() * e.vectors(i, idx).real();
        im2 += e.vectors(i, idx).imag() * e.vectors(i, idx).imag();
      }
      const bool use_im = im2 > re2;
      double nrm = std::sqrt(std::max(use_im ? im2 : re2, 1e-300));
      for (index_t i = 0; i < n; ++i)
        out(i, filled) = (use_im ? e.vectors(i, idx).imag() : e.vectors(i, idx).real()) / nrm;
      ++filled;
    } else {
      // Conjugate pair: mark the mirror as used, keep [Re z, Im z].
      index_t mirror = -1;
      double best = std::numeric_limits<double>::max();
      for (index_t l = 0; l < index_t(e.values.size()); ++l) {
        if (used[size_t(l)]) continue;
        const double d = std::abs(e.values[size_t(l)] - std::conj(lambda));
        if (d < best) {
          best = d;
          mirror = l;
        }
      }
      if (mirror >= 0 && best <= 1e-6 * scale) used[size_t(mirror)] = true;
      double re2 = 0, im2 = 0;
      for (index_t i = 0; i < n; ++i) {
        re2 += e.vectors(i, idx).real() * e.vectors(i, idx).real();
        im2 += e.vectors(i, idx).imag() * e.vectors(i, idx).imag();
      }
      const double nr = std::sqrt(std::max(re2, 1e-300));
      const double ni = std::sqrt(std::max(im2, 1e-300));
      for (index_t i = 0; i < n; ++i) out(i, filled) = e.vectors(i, idx).real() / nr;
      ++filled;
      if (filled < k) {
        for (index_t i = 0; i < n; ++i) out(i, filled) = e.vectors(i, idx).imag() / ni;
        ++filled;
      }
    }
  }
  return out;
}

}  // namespace

EigDecomposition eig_general(DenseMatrix<cplx> a) {
  const index_t n = a.rows();
  if (n != a.cols()) throw std::invalid_argument("eig_general: matrix must be square");
  DenseMatrix<cplx> q;
  hessenberg_reduce(a, q);
  hessenberg_schur(a, q);
  EigDecomposition out;
  out.values.resize(size_t(n));
  for (index_t i = 0; i < n; ++i) out.values[size_t(i)] = a(i, i);
  const DenseMatrix<cplx> y = triangular_eigenvectors(a);
  out.vectors.resize(n, n);
  gemm<cplx>(Trans::N, Trans::N, 1.0, q.view(), y.view(), 0.0, out.vectors.view());
  // Normalize columns.
  for (index_t j = 0; j < n; ++j) {
    const double nrm = norm2(n, out.vectors.col(j));
    if (nrm > 0)
      for (index_t i = 0; i < n; ++i) out.vectors(i, j) /= nrm;
  }
  return out;
}

EigDecomposition eig_generalized(const DenseMatrix<cplx>& t, const DenseMatrix<cplx>& w) {
  if (t.rows() != w.rows() || t.cols() != w.cols() || t.rows() != t.cols())
    throw std::invalid_argument("eig_generalized: dimension mismatch");
  DenseLU<cplx> lu(copy_of(w));
  if (lu.singular())
    throw EigFailure("eig_generalized: W is singular; use the other recycle strategy");
  DenseMatrix<cplx> c = copy_of(t);
  lu.solve(c.view());
  return eig_general(std::move(c));
}

template <>
DenseMatrix<double> smallest_eig_vectors<double>(const DenseMatrix<double>& a, index_t k) {
  BKR_REQUIRE(k >= 0 && k <= a.rows(), "k", k, "a.rows", a.rows());
  return select_real(eig_general(to_complex(a)), k);
}

template <>
DenseMatrix<cplx> smallest_eig_vectors<cplx>(const DenseMatrix<cplx>& a, index_t k) {
  BKR_REQUIRE(k >= 0 && k <= a.rows(), "k", k, "a.rows", a.rows());
  return select_complex(eig_general(copy_of(a)), k);
}

template <>
DenseMatrix<double> smallest_gen_eig_vectors<double>(const DenseMatrix<double>& t,
                                                     const DenseMatrix<double>& w, index_t k) {
  BKR_REQUIRE(k >= 0 && k <= t.rows(), "k", k, "t.rows", t.rows());
  return select_real(eig_generalized(to_complex(t), to_complex(w)), k);
}

template <>
DenseMatrix<cplx> smallest_gen_eig_vectors<cplx>(const DenseMatrix<cplx>& t,
                                                 const DenseMatrix<cplx>& w, index_t k) {
  BKR_REQUIRE(k >= 0 && k <= t.rows(), "k", k, "t.rows", t.rows());
  return select_complex(eig_generalized(t, w), k);
}

}  // namespace bkr
