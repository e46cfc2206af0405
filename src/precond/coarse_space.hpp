// Subdomain deflation as a modular coarse space (paper section V-A's
// two-level extension; cf. the amgcl "deflated subdomain" construction).
//
// One-level Schwarz degrades with the subdomain count: low-frequency error
// components travel one subdomain per iteration. A coarse space removes
// them globally: a tall-skinny basis Z (one column per subdomain — the
// subdomain-constant indicator, or its partition-of-unity smoothing over
// the overlap) defines the explicit Galerkin coarse problem E = Zᵀ A Z,
// factored once with the sparse direct solver, and the correction
//   z = Z E⁻¹ Zᵀ r
// is composable with ANY inner preconditioner — additively
// (z = M⁻¹r + ZE⁻¹Zᵀr) or multiplicatively (coarse first, then the inner
// preconditioner on the updated residual) — through TwoLevelPreconditioner.
//
// Resilience: a singular coarse matrix (e.g. a pure-Neumann operator where
// the subdomain constants span the null space) must not kill the outer
// solve. The factorization failure is caught, the correction degrades to
// the identity (so a two-level preconditioner falls back to its inner
// one-level method), and an obs::RecoveryEvent records the degradation.
#pragma once

#include <memory>

#include "common/contracts.hpp"
#include "core/operator.hpp"
#include "direct/factor.hpp"
#include "sparse/partition.hpp"

namespace bkr {

// How the coarse basis Z is built from the k-way partition.
enum class CoarseBasis {
  SubdomainConstant,  // Z(i,s) = 1 when the partitioner owns row i to s
  PartitionOfUnity,   // Z(i,s) = PoU weight of subdomain s at row i
                      // (multiplicity weights over `overlap` grown layers)
};

struct CoarseSpaceOptions {
  index_t subdomains = 4;
  index_t overlap = 1;  // PoU basis only: layers grown past the interior
  CoarseBasis basis = CoarseBasis::SubdomainConstant;
  // Optional observability sink (not owned): receives the RecoveryEvent
  // when a singular coarse matrix degrades the correction to identity.
  obs::TraceSink* trace = nullptr;
};

// The deflation operator z = Z E^{-1} Z^T r with E = Z^T A Z. Usable
// standalone (as a Preconditioner: pure coarse correction) or inside
// TwoLevelPreconditioner.
template <class T>
class CoarseSpaceCorrection final : public Preconditioner<T> {
 public:
  CoarseSpaceCorrection(const CsrMatrix<T>& a, CoarseSpaceOptions opts);

  [[nodiscard]] index_t n() const override { return n_; }
  void apply(MatrixView<const T> r, MatrixView<T> z) override;

  // Coarse dimension (== subdomains).
  [[nodiscard]] index_t dim() const { return z_.cols(); }
  // True when the coarse factorization failed and applies pass r through.
  [[nodiscard]] bool degraded() const { return factor_ == nullptr; }
  // The Galerkin coarse matrix E = Z^T A Z (the P^T A P contract surface:
  // symmetric whenever A is, definite whenever A is on range(Z)).
  [[nodiscard]] const CsrMatrix<T>& coarse_matrix() const { return e_; }
  // The coarse basis Z (n x subdomains, CSR).
  [[nodiscard]] const CsrMatrix<T>& basis() const { return z_; }

 private:
  index_t n_ = 0;
  CoarseSpaceOptions opts_;
  CsrMatrix<T> z_;   // n x nsub
  CsrMatrix<T> zt_;  // nsub x n (explicit transpose for the restriction)
  CsrMatrix<T> e_;   // nsub x nsub Galerkin coarse matrix
  std::unique_ptr<SparseLDLT<T>> factor_;  // null => degraded
  DenseMatrix<T> rc_;  // dim x p coarse residual workspace (grow-once)
};

// Composition order of the coarse correction around the inner method.
enum class CoarseCorrection {
  Additive,        // z = M^{-1} r + Z E^{-1} Z^T r (fully parallel)
  Multiplicative,  // coarse first, inner on the updated residual r - A z_c
};

// Inner-preconditioner-agnostic two-level method: wraps ANY inner
// Preconditioner (Schwarz, AMG, Jacobi, ...) with the subdomain coarse
// correction. A degraded coarse space reduces exactly to the inner method.
template <class T>
class TwoLevelPreconditioner final : public Preconditioner<T> {
 public:
  // `inner` is not owned and must outlive the preconditioner; null inner
  // composes the coarse correction with the identity.
  TwoLevelPreconditioner(const CsrMatrix<T>& a, Preconditioner<T>* inner,
                         CoarseSpaceOptions copts,
                         CoarseCorrection mode = CoarseCorrection::Additive);

  [[nodiscard]] index_t n() const override { return coarse_.n(); }
  void apply(MatrixView<const T> r, MatrixView<T> z) override;
  [[nodiscard]] bool is_variable() const override {
    return inner_ != nullptr && inner_->is_variable();
  }

  [[nodiscard]] const CoarseSpaceCorrection<T>& coarse() const { return coarse_; }

 private:
  const CsrMatrix<T>* a_;  // multiplicative residual update needs A
  Preconditioner<T>* inner_;
  CoarseCorrection mode_;
  CoarseSpaceCorrection<T> coarse_;
  DenseMatrix<T> zc_;  // n x p coarse-correction workspace (grow-once)
  DenseMatrix<T> rr_;  // n x p updated-residual workspace (multiplicative)
};

extern template class CoarseSpaceCorrection<double>;
extern template class CoarseSpaceCorrection<std::complex<double>>;
extern template class TwoLevelPreconditioner<double>;
extern template class TwoLevelPreconditioner<std::complex<double>>;

}  // namespace bkr
