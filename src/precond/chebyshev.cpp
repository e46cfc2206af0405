#include "precond/chebyshev.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "la/blas.hpp"

namespace bkr {

ChebyshevSmoother::ChebyshevSmoother(const CsrMatrix<double>& a, index_t degree,
                                     double eig_fraction, double eig_upper,
                                     index_t power_iterations)
    : a_(&a), inv_diag_(a.diagonal()), degree_(degree) {
  const index_t n = a.rows();
  for (auto& d : inv_diag_) d = 1.0 / d;
  // Power iteration on D^{-1} A for the largest eigenvalue.
  Rng rng(0xc4eb);
  std::vector<double> v(static_cast<size_t>(n)), w(static_cast<size_t>(n));
  for (auto& x : v) x = rng.scalar<double>();
  double lambda = 1.0;
  for (index_t it = 0; it < power_iterations; ++it) {
    a.spmv(v.data(), w.data());
    for (index_t i = 0; i < n; ++i) w[size_t(i)] *= inv_diag_[size_t(i)];
    double nrm = norm2<double>(n, w.data());
    if (nrm == 0.0) break;
    lambda = nrm;
    for (index_t i = 0; i < n; ++i) v[size_t(i)] = w[size_t(i)] / nrm;
  }
  lambda_max_ = lambda;
  lo_ = eig_fraction * lambda_max_;
  hi_ = eig_upper * lambda_max_;
}

void ChebyshevSmoother::apply(MatrixView<const double> r, MatrixView<double> z) {
  BKR_REQUIRE(r.rows() == a_->rows(), "r.rows", r.rows(), "n", a_->rows());
  BKR_ASSERT_SHAPE(z, r.rows(), r.cols());
  // Standard Chebyshev iteration (Saad, "Iterative Methods", alg. 12.1)
  // on the Jacobi-preconditioned operator, z0 = 0.
  const index_t n = a_->rows(), p = r.cols();
  const double theta = 0.5 * (hi_ + lo_);
  const double delta = 0.5 * (hi_ - lo_);
  const double sigma1 = theta / delta;
  if (res_.rows() != n || res_.cols() != p) {
    res_.resize(n, p);
    dir_.resize(n, p);
    tmp_.resize(n, p);
  }
  DenseMatrix<double>& res = res_;
  DenseMatrix<double>& d = dir_;
  DenseMatrix<double>& tmp = tmp_;
  copy_into<double>(r, res.view());
  z.set_zero();
  double rho_old = 1.0 / sigma1;
  for (index_t c = 0; c < p; ++c)
    for (index_t i = 0; i < n; ++i) d(i, c) = inv_diag_[size_t(i)] * res(i, c) / theta;
  for (index_t it = 0;; ++it) {
    for (index_t c = 0; c < p; ++c)
      for (index_t i = 0; i < n; ++i) z(i, c) += d(i, c);
    if (it + 1 >= degree_) break;
    a_->spmm(MatrixView<const double>(d.data(), n, p, d.ld()), tmp.view());
    for (index_t c = 0; c < p; ++c)
      for (index_t i = 0; i < n; ++i) res(i, c) -= tmp(i, c);
    const double rho = 1.0 / (2.0 * sigma1 - rho_old);
    for (index_t c = 0; c < p; ++c)
      for (index_t i = 0; i < n; ++i)
        d(i, c) = rho * rho_old * d(i, c) +
                  (2.0 * rho / delta) * inv_diag_[size_t(i)] * res(i, c);
    rho_old = rho;
  }
}

}  // namespace bkr
