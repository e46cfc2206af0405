// Smoothed-aggregation algebraic multigrid (the GAMG analogue).
//
// This is the preconditioner dial of the paper's section IV: the
// `threshold` knob (strength-of-connection drop tolerance, PETSc's
// -pc_gamg_threshold) trades setup cost against iteration counts, the
// smoother choice reproduces the paper's three configurations —
// GMRES(s) smoother (nonlinear -> FGMRES/FGCRO-DR), CG(s) smoother
// (nonlinear), Chebyshev (linear -> plain GCRO-DR/LGMRES) — and the
// near-nullspace hook takes the six rigid-body modes for elasticity.
#pragma once

#include <memory>
#include <vector>

#include "core/operator.hpp"
#include "sparse/csr.hpp"

namespace bkr {

enum class AmgSmoother { Jacobi, Chebyshev, Gmres, Cg };

struct AmgOptions {
  double threshold = 0.0;   // drop |a_ij| <= threshold * sqrt(|a_ii a_jj|)
  index_t block_size = 1;   // dofs per grid node (3 for 3-D elasticity)
  index_t max_levels = 12;
  index_t coarse_size = 400;  // direct solve below this many rows
  AmgSmoother smoother = AmgSmoother::Chebyshev;
  index_t smoother_iterations = 3;
  // Aggregate on the squared strength graph (PETSc's -pc_gamg_square_graph):
  // bigger aggregates, faster coarsening, cheaper setup, weaker cycles.
  bool square_graph = false;
};

template <class T>
class AmgPreconditioner final : public Preconditioner<T> {
 public:
  // `near_nullspace` is n x nb (defaults to the constant vector).
  AmgPreconditioner(const CsrMatrix<T>& a, AmgOptions opts,
                    MatrixView<const T> near_nullspace = MatrixView<const T>());
  ~AmgPreconditioner() override;

  [[nodiscard]] index_t n() const override;
  [[nodiscard]] bool is_variable() const override {
    return opts_.smoother == AmgSmoother::Gmres || opts_.smoother == AmgSmoother::Cg;
  }
  void apply(MatrixView<const T> r, MatrixView<T> z) override;  // one V-cycle

  [[nodiscard]] index_t levels() const;
  [[nodiscard]] index_t level_rows(index_t level) const;
  // Smoothed prolongator leaving `level` (diagnostics/tests; defined for
  // non-coarsest levels only).
  [[nodiscard]] const CsrMatrix<T>& prolongator(index_t level) const;
  [[nodiscard]] double setup_seconds() const { return setup_seconds_; }
  [[nodiscard]] double operator_complexity() const;  // sum nnz(A_l) / nnz(A_0)

 private:
  struct Level;
  void vcycle(index_t level, MatrixView<const T> r, MatrixView<T> z);

  AmgOptions opts_;
  std::vector<std::unique_ptr<Level>> levels_;
  double setup_seconds_ = 0;
};

extern template class AmgPreconditioner<double>;
extern template class AmgPreconditioner<std::complex<double>>;

}  // namespace bkr
