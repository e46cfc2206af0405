// (Block / pseudo-block / flexible) GCRO-DR — the paper's fig. 1.
//
// GCRO-DR (Parks et al. 2006) solves sequences A_i X_i = B_i while
// recycling a k-dimensional (k blocks of p columns in block mode) subspace
// between cycles and between systems:
//  * first cycle of the first system: m steps of (block) GMRES, then the
//    harmonic Ritz vectors of the Hessenberg matrix seed U_k, C_k
//    (fig. 1 lines 11-20). The harmonic problem is solved in the
//    equivalent generalized form R^H R z = theta H_m^H z built from the
//    incrementally computed QR of the block Hessenberg (the spirit of the
//    paper's eq. 2: Q and R are free by the time the cycle ends);
//  * subsequent cycles: m - k steps of (block) GMRES on the projected
//    operator (I - C_k C_k^H) A (lines 23-30), then the generalized
//    eigenproblem T z = theta W z with W from strategy A (eq. 3a, one
//    extra reduction) or B (eq. 3b, communication-free) refreshes U_k
//    (lines 31-38);
//  * next system in the sequence: if the matrix changed, U_k is
//    re-orthonormalized through a distributed QR of A U_k (lines 3-7);
//    with `same_system` both that QR and the per-cycle eigenproblem are
//    skipped (the paper's non-variable optimization, section III-B);
//  * the initial guess is improved with the recycled space before any
//    iteration (lines 8-9).
//
// The m and m - k step cycles are the Arnoldi cycles of core/arnoldi.hpp:
// BlockCycle for GcroDr, LaneCycle (one C_k per lane) for PseudoGcroDr —
// the same cycles block and pseudo-block GMRES run without a C_k.
//
// U_k is stored in *solution space* (for right preconditioning U_k holds
// M^{-1} of the Krylov-space vectors), so A U_k = C_k holds with the plain
// operator and variable preconditioning (FGCRO-DR, Carvalho et al.) falls
// out of the same code path.
#pragma once

#include "core/operator.hpp"
#include "core/solver.hpp"
#include "la/dense.hpp"

namespace bkr {

template <class T>
class GcroDr {
 public:
  explicit GcroDr(SolverOptions opts) : opts_(std::move(opts)) {}

  // Solve the next system of the sequence (p = b.cols(); p > 1 is Block
  // GCRO-DR). `new_matrix` marks A_i != A_{i-1}; it is ignored for the
  // first solve and overridden by opts.same_system.
  SolveStats solve(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
                   MatrixView<T> x, CommModel* comm = nullptr, bool new_matrix = true);

  void reset() {
    u_.resize(0, 0);
    c_.resize(0, 0);
    solves_ = 0;
  }

  // Seed the recycled space before the first solve (warm start from a
  // RecycleCache deposit). The pair is treated exactly like the space
  // carried over from a previous system of a sequence: the next solve
  // requalifies it through the distributed QR of A·U (fig. 1 lines 3-7),
  // so a stale pair degrades convergence but never correctness.
  void install_recycled(DenseMatrix<T> u, DenseMatrix<T> c);

  [[nodiscard]] bool has_recycled_space() const { return u_.cols() > 0; }
  [[nodiscard]] index_t recycle_dim() const { return u_.cols(); }
  [[nodiscard]] const DenseMatrix<T>& recycled_u() const { return u_; }
  [[nodiscard]] const DenseMatrix<T>& recycled_c() const { return c_; }
  [[nodiscard]] const SolverOptions& options() const { return opts_; }

  // Re-arm (or clear, with {nullptr, epoch}) cooperative cancellation on a
  // persistent engine: the options snapshot is taken at construction, so
  // per-request tokens/deadlines on a long-lived session go through here.
  void set_cancellation(const std::atomic<bool>* cancel,
                        std::chrono::steady_clock::time_point deadline) {
    opts_.cancel = cancel;
    opts_.deadline = deadline;
  }

 private:
  SolverOptions opts_;
  DenseMatrix<T> u_, c_;  // persistent recycled subspace (n x k*p)
  index_t solves_ = 0;
};

// Pseudo-block GCRO-DR: p fused single-vector GCRO-DR instances — one
// SpMM, one batched reduction per iteration, each RHS with its own
// k-column recycled space (alternatives 5-6 of the paper's fig. 8).
template <class T>
class PseudoGcroDr {
 public:
  explicit PseudoGcroDr(SolverOptions opts) : opts_(std::move(opts)) {}

  SolveStats solve(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
                   MatrixView<T> x, CommModel* comm = nullptr, bool new_matrix = true);

  void reset() {
    u_.resize(0, 0);
    c_.resize(0, 0);
    lanes_ = 0;
    solves_ = 0;
  }

  // Warm-start seed, lane-interleaved layout (column i*lanes + l holds
  // lane l's i-th recycled vector). Consumed only when a solve's RHS
  // count matches `lanes`; requalified like a next-system space.
  void install_recycled(DenseMatrix<T> u, DenseMatrix<T> c, index_t lanes);

  [[nodiscard]] bool has_recycled_space() const { return u_.cols() > 0; }
  [[nodiscard]] const DenseMatrix<T>& recycled_u() const { return u_; }
  [[nodiscard]] const DenseMatrix<T>& recycled_c() const { return c_; }
  [[nodiscard]] index_t recycle_lanes() const { return lanes_; }
  [[nodiscard]] const SolverOptions& options() const { return opts_; }

  // See GcroDr::set_cancellation.
  void set_cancellation(const std::atomic<bool>* cancel,
                        std::chrono::steady_clock::time_point deadline) {
    opts_.cancel = cancel;
    opts_.deadline = deadline;
  }

 private:
  SolverOptions opts_;
  // Lane l's i-th recycled column lives at column i*lanes_ + l.
  DenseMatrix<T> u_, c_;
  index_t lanes_ = 0;
  index_t solves_ = 0;
};

extern template class GcroDr<double>;
extern template class GcroDr<std::complex<double>>;
extern template class PseudoGcroDr<double>;
extern template class PseudoGcroDr<std::complex<double>>;

}  // namespace bkr
