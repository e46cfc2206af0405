// Overlapping Schwarz preconditioners: ASM, RAS, and the paper's
// one-level ORAS (eq. 6).
//
// The matrix graph is partitioned into N subdomains (SCOTCH stand-in),
// grown by `overlap` layers (the T_i^delta construction of section V-A).
// Each subdomain's local matrix is factored with the sparse direct solver;
// one application performs N independent local multi-RHS solves — a block
// of p RHS is one forward elimination + backward substitution per
// subdomain (the property fig. 6 quantifies) — combined as:
//   ASM :  z = sum_i R_i^T        B_i^{-1} R_i r
//   RAS :  z = sum_i R_i^T D_i    B_i^{-1} R_i r     (D_i Boolean PoU)
//   ORAS:  RAS with the local Dirichlet matrices replaced by matrices
//          with an impedance (optimized Robin) term on interface rows —
//          algebraically, B_i = A|_i + i*beta*|diag| (complex problems)
//          or + beta*|diag| (real) on rows cut by the decomposition.
//
// Per-subdomain setup/apply times are recorded and reduced as both a sum
// (the single-node cost) and a max (the critical path of an ideal
// distributed run) — the basis of the fig. 7 scaling reproduction.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "common/contracts.hpp"
#include "core/operator.hpp"
#include "direct/factor.hpp"
#include "sparse/partition.hpp"

namespace bkr {

enum class SchwarzKind { Asm, Ras, Oras };

struct SchwarzOptions {
  index_t subdomains = 4;
  index_t overlap = 1;         // delta
  SchwarzKind kind = SchwarzKind::Ras;
  double impedance = 0.0;      // beta of the ORAS transmission condition
  FactorOrdering ordering = FactorOrdering::NestedDissection;
  bool parallel = true;        // run local solves on the thread pool
};

struct SchwarzStats {
  double setup_seconds_sum = 0;   // total local factorization work
  double setup_seconds_max = 0;   // critical path across subdomains
  double apply_seconds_sum = 0;   // accumulated over all apply() calls
  double apply_seconds_max = 0;   // accumulated critical path
  index_t applications = 0;
  index_t factor_nnz_total = 0;
  index_t largest_subdomain = 0;
};

template <class T>
class SchwarzPreconditioner final : public Preconditioner<T> {
 public:
  SchwarzPreconditioner(const CsrMatrix<T>& a, SchwarzOptions opts);

  [[nodiscard]] index_t n() const override { return n_; }
  void apply(MatrixView<const T> r, MatrixView<T> z) override;

  // Snapshot of the accumulated counters (thread-safe; apply() may be
  // running concurrently on other threads).
  [[nodiscard]] SchwarzStats stats() const;
  [[nodiscard]] index_t subdomains() const { return index_t(locals_.size()); }

 private:
  struct Local {
    std::vector<index_t> rows;    // global indices of the overlapping set
    std::vector<double> weights;  // partition of unity
    std::unique_ptr<SparseLDLT<T>> factor;
  };
  // Per-subdomain apply buffers: the gathered right-hand sides (solved in
  // place), the LDL^T permutation scratch and the solve times. Each is
  // reshaped only when the block width changes, so a steady apply does
  // not allocate.
  struct ApplyBuffers {
    std::vector<DenseMatrix<T>> rhs;
    std::vector<DenseMatrix<T>> scratch;
    std::vector<double> times;
  };

  void apply_with(ApplyBuffers& buf, MatrixView<const T> r, MatrixView<T> z);

  index_t n_ = 0;
  SchwarzOptions opts_;
  std::vector<Local> locals_;
  // apply() may run on several solver threads at once: the caller that
  // holds buffers_mutex_ reuses buffers_, any other uses its own.
  std::mutex buffers_mutex_;
  ApplyBuffers buffers_ BKR_GUARDED_BY(buffers_mutex_);
  mutable std::mutex stats_mutex_;
  SchwarzStats stats_ BKR_GUARDED_BY(stats_mutex_);
};

extern template class SchwarzPreconditioner<double>;
extern template class SchwarzPreconditioner<std::complex<double>>;

}  // namespace bkr
