// Chebyshev polynomial smoother (the PETSc default for GAMG levels,
// used in the section IV-C "right preconditioning" experiment: a *linear*
// smoother, so plain GCRO-DR / LGMRES apply without flexible variants).
#pragma once

#include "core/operator.hpp"
#include "sparse/csr.hpp"

namespace bkr {

// Jacobi-preconditioned Chebyshev iteration on an SPD matrix, targeting
// the interval [eig_fraction * lambda_max, eig_upper * lambda_max] like
// PETSc's "-mg_levels_esteig" defaults. A fixed polynomial in A: linear,
// deterministic, is_variable() == false.
class ChebyshevSmoother final : public Preconditioner<double> {
 public:
  ChebyshevSmoother(const CsrMatrix<double>& a, index_t degree = 3,
                    double eig_fraction = 0.1, double eig_upper = 1.1,
                    index_t power_iterations = 12);

  [[nodiscard]] index_t n() const override { return a_->rows(); }
  void apply(MatrixView<const double> r, MatrixView<double> z) override;

  [[nodiscard]] double lambda_max_estimate() const { return lambda_max_; }

 private:
  const CsrMatrix<double>* a_;
  std::vector<double> inv_diag_;
  index_t degree_;
  double lambda_max_ = 0, lo_ = 0, hi_ = 0;
  // Apply buffers (residual, search direction, A times the direction):
  // every entry is written before it is read, so they are reshaped only
  // when the block width changes and a steady apply does not allocate.
  DenseMatrix<double> res_, dir_, tmp_;
};

}  // namespace bkr
