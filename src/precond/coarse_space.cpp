#include "precond/coarse_space.hpp"

#include <utility>

#include "sparse/graph.hpp"

namespace bkr {

namespace {

// Assemble the coarse basis Z (n x nsub) from the k-way partition.
template <class T>
CsrMatrix<T> build_basis(const CsrMatrix<T>& a, const CoarseSpaceOptions& opts) {
  const index_t n = a.rows();
  const Graph g = adjacency_of(a);
  CooBuilder<T> z(n, opts.subdomains);
  if (opts.basis == CoarseBasis::SubdomainConstant) {
    const Partition part = partition_greedy(g, opts.subdomains);
    z.reserve(size_t(n));
    for (index_t i = 0; i < n; ++i) z.add(i, part.owner[size_t(i)], T(1));
  } else {
    const OverlappingDecomposition d =
        make_decomposition(g, opts.subdomains, opts.overlap, PouKind::Multiplicity);
    for (index_t s = 0; s < opts.subdomains; ++s)
      for (size_t l = 0; l < d.rows[size_t(s)].size(); ++l)
        z.add(d.rows[size_t(s)][l], s, T(d.pou[size_t(s)][l]));
  }
  return z.build();
}

}  // namespace

template <class T>
CoarseSpaceCorrection<T>::CoarseSpaceCorrection(const CsrMatrix<T>& a, CoarseSpaceOptions opts)
    : n_(a.rows()), opts_(opts) {
  BKR_REQUIRE(a.rows() == a.cols(), "a.rows", a.rows(), "a.cols", a.cols());
  BKR_REQUIRE(opts_.subdomains >= 1 && opts_.subdomains <= a.rows(), "subdomains",
              opts_.subdomains, "n", a.rows());
  z_ = build_basis(a, opts_);
  zt_ = transpose(z_);
  e_ = triple_product(z_, a);
  try {
    factor_ = std::make_unique<SparseLDLT<T>>(e_, FactorOrdering::NestedDissection);
  } catch (const std::runtime_error&) {
    // Singular coarse matrix (e.g. subdomain constants spanning a Neumann
    // null space): degrade to the identity correction instead of failing
    // the enclosing solve, and leave an auditable trail.
    factor_.reset();
    if (opts_.trace != nullptr)
      opts_.trace->recovery(obs::RecoveryEvent{0, "coarse-space", "identity-fallback", dim()});
  }
}

template <class T>
void CoarseSpaceCorrection<T>::apply(MatrixView<const T> r, MatrixView<T> z) {
  const index_t p = r.cols();
  BKR_REQUIRE(r.rows() == n_, "r.rows", r.rows(), "n", n_);
  BKR_ASSERT_SHAPE(z, n_, p);
  if (degraded()) {
    copy_into<T>(r, z);
    return;
  }
  if (rc_.rows() != dim() || rc_.cols() < p) rc_.resize(dim(), p);
  MatrixView<T> rc = rc_.block(0, 0, dim(), p);
  zt_.spmm(r, rc);                                      // restrict: rc = Z^T r
  factor_->solve(rc);                                   // coarse solve: rc = E^{-1} rc
  z_.spmm(MatrixView<const T>(rc.data(), dim(), p, rc.ld()), z);  // prolong: z = Z rc
}

template <class T>
TwoLevelPreconditioner<T>::TwoLevelPreconditioner(const CsrMatrix<T>& a, Preconditioner<T>* inner,
                                                  CoarseSpaceOptions copts, CoarseCorrection mode)
    : a_(&a), inner_(inner), mode_(mode), coarse_(a, copts) {
  BKR_REQUIRE(inner == nullptr || inner->n() == a.rows(), "inner.n",
              inner == nullptr ? index_t(0) : inner->n(), "a.rows", a.rows());
}

template <class T>
void TwoLevelPreconditioner<T>::apply(MatrixView<const T> r, MatrixView<T> z) {
  const index_t n = coarse_.n(), p = r.cols();
  BKR_REQUIRE(r.rows() == n, "r.rows", r.rows(), "n", n);
  BKR_ASSERT_SHAPE(z, n, p);
  // A degraded coarse space contributes nothing: the two-level method
  // reduces exactly to its inner one-level preconditioner.
  if (coarse_.degraded()) {
    if (inner_ != nullptr) {
      inner_->apply(r, z);
    } else {
      copy_into<T>(r, z);
    }
    return;
  }
  if (zc_.rows() != n || zc_.cols() < p) zc_.resize(n, p);
  MatrixView<T> zc = zc_.block(0, 0, n, p);
  coarse_.apply(r, zc);
  if (mode_ == CoarseCorrection::Additive) {
    if (inner_ != nullptr) {
      inner_->apply(r, z);
    } else {
      copy_into<T>(r, z);
    }
    for (index_t j = 0; j < p; ++j)
      for (index_t i = 0; i < n; ++i) z(i, j) += zc(i, j);
    return;
  }
  // Multiplicative: inner method sees the residual after the coarse
  // correction, r' = r - A z_c, and its update adds onto z_c.
  if (rr_.rows() != n || rr_.cols() < p) rr_.resize(n, p);
  MatrixView<T> rr = rr_.block(0, 0, n, p);
  a_->spmm(MatrixView<const T>(zc.data(), n, p, zc.ld()), rr);
  for (index_t j = 0; j < p; ++j)
    for (index_t i = 0; i < n; ++i) rr(i, j) = r(i, j) - rr(i, j);
  if (inner_ != nullptr) {
    inner_->apply(MatrixView<const T>(rr.data(), n, p, rr.ld()), z);
  } else {
    copy_into<T>(MatrixView<const T>(rr.data(), n, p, rr.ld()), z);
  }
  for (index_t j = 0; j < p; ++j)
    for (index_t i = 0; i < n; ++i) z(i, j) += zc(i, j);
}

template class CoarseSpaceCorrection<double>;
template class CoarseSpaceCorrection<std::complex<double>>;
template class TwoLevelPreconditioner<double>;
template class TwoLevelPreconditioner<std::complex<double>>;

}  // namespace bkr
