#include "core/lgmres.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "core/krylov_detail.hpp"

namespace bkr {

namespace {

// Workspace slot map (mats_ slot kWsProjectScratch is detail::project's).
enum : int { kWsCycleQr = kWsSolverBase };  // qrs_
enum : int { kWsSmallY = kWsSolverBase };   // vecs_

template <class T>
void lgmres_body(const LinearOperator<T>& a, Preconditioner<T>* m, const std::vector<T>& b,
                 std::vector<T>& x, const SolverOptions& opts, CommModel* comm, SolveStats& st,
                 SolverWorkspace<T>& ws) {
  using Real = real_t<T>;
  const index_t n = a.n();
  obs::TraceSink* const trace = opts.trace;
  const KernelExecutor* const ex = opts.exec;
  PrecondSide side = (m == nullptr) ? PrecondSide::None : opts.side;
  if (side == PrecondSide::Right && m != nullptr && m->is_variable()) side = PrecondSide::Flexible;
  const index_t total = opts.restart;              // total space per cycle
  const index_t aug_max = std::min(opts.recycle, total - 1);
  detail::Resilience<T> rz{opts.recovery, opts.fault};

  Real bnorm;
  DenseMatrix<T> scratch;
  const auto bview = MatrixView<const T>(b.data(), n, 1, n);
  if (side == PrecondSide::Left) {
    scratch.resize(n, 1);
    {
      obs::ScopedPhase sp(trace, obs::Phase::Precond);
      m->apply(bview, scratch.view());
      ++st.precond_applies;
    }
    detail::norms<T>(scratch.view(), &bnorm, st, comm, trace, ex, opts.shards);
  } else {
    detail::norms<T>(bview, &bnorm, st, comm, trace, ex, opts.shards);
  }
  if (bnorm == Real(0)) bnorm = Real(1);
  if (!detail::finite_norms(&bnorm, 1)) {
    st.status = SolveStatus::NonFiniteResidual;
    return;
  }
  st.history.resize(1);
  st.per_rhs_iterations.assign(1, 0);

  DenseMatrix<T> v(n, total + 1);
  DenseMatrix<T> zflex;  // flexible preconditioned vectors
  if (side == PrecondSide::Flexible) zflex.resize(n, total);
  DenseMatrix<T> ztmp(n, 1), w(n, 1), r(n, 1);
  std::deque<std::vector<T>> augmented;  // error approximations, newest first
  auto xview = MatrixView<T>(x.data(), n, 1, n);
  // Cycle-lifetime scratch hoisted out of the restart loop; `dx` is donated
  // into `augmented` each cycle and its storage recycled from the evicted
  // augmentation vector once the deque is full.
  std::vector<T> ghat(static_cast<size_t>(total) + 1);
  std::vector<T> hcol(static_cast<size_t>(total) + 1);
  std::vector<T> dx;
  DenseMatrix<T> t(n, 1);
  obs::IterationEvent ev;
  if (trace != nullptr) ev.residuals.reserve(1);

  while (st.iterations < opts.max_iterations) {
    ++st.cycles;
    detail::residual<T>(a, m, side, bview, xview, r.view(), scratch, st, trace, &rz);
    Real rnorm;
    detail::norms<T>(r.view(), &rnorm, st, comm, trace, ex, opts.shards);
    if (st.cycles == 1 && opts.record_history) st.history[0].push_back(rnorm / bnorm);
    if (!detail::finite_norms(&rnorm, 1)) {
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }
    if (rnorm <= opts.tol * bnorm) {
      st.converged = true;
      break;
    }

    const index_t naug = std::min<index_t>(index_t(augmented.size()), aug_max);
    const index_t mk = total - naug;  // pure Krylov steps this cycle
    IncrementalQR<T>& qr = ws.qr(kWsCycleQr, total + 1, total);
    ghat.assign(static_cast<size_t>(total) + 1, T(0));
    ghat[0] = scalar_traits<T>::from_real(rnorm);
    const T inv = scalar_traits<T>::from_real(Real(1) / rnorm);
    for (index_t i = 0; i < n; ++i) v(i, 0) = r(i, 0) * inv;
    st.reductions += 0;  // the residual norm above doubles as the QR
    if (opts.record_history)
      st.history[0].reserve(st.history[0].size() + static_cast<size_t>(total));

    index_t j = 0;
    bool hit = false;
    bool fatal = false;
    // Single-RHS early-restart tracking: the residual estimate is monotone
    // non-increasing within a cycle, so a long flat run means the space is
    // exhausted and restarting (refreshing the augmentation set) is better.
    Real stag_best = std::numeric_limits<Real>::infinity();
    index_t stag_count = 0;
    BKR_HOT_LOOP while (j < total && st.iterations < opts.max_iterations) {
      detail::poll_cancel(opts);
      const bool is_aug = j >= mk;
      MatrixView<const T> input =
          is_aug ? MatrixView<const T>(augmented[size_t(j - mk)].data(), n, 1, n)
                 : MatrixView<const T>(v.col(j), n, 1, v.ld());
      MatrixView<T> zj = (side == PrecondSide::Flexible) ? zflex.block(0, j, n, 1) : ztmp.view();
      if (is_aug) {
        // Augmentation vectors live in solution space: w = A z directly.
        {
          obs::ScopedPhase sp(trace, obs::Phase::Spmm);
          a.apply(input, w.view());
          ++st.operator_applies;
          detail::fault_hook(&rz, resilience::FaultSite::OperatorApply, w.view());
        }
        if (side == PrecondSide::Left) {
          obs::ScopedPhase sp(trace, obs::Phase::Precond);
          copy_into<T>(MatrixView<const T>(w.data(), n, 1, n), ztmp.view());
          m->apply(ztmp.view(), w.view());
          ++st.precond_applies;
          detail::fault_hook(&rz, resilience::FaultSite::PrecondApply, w.view());
        }
      } else {
        detail::apply_preconditioned<T>(a, m, side, input, zj, w.view(), st, trace, &rz);
      }
      std::fill(hcol.begin(), hcol.end(), T(0));
      detail::project<T>(v.view(), j + 1,
                         MatrixView<T>(w.data(), n, 1, n),
                         MatrixView<T>(hcol.data(), index_t(hcol.size()), 1,
                                       index_t(hcol.size())),
                         opts.ortho, 1, st, comm, ws, trace, ex);
      Real hn;
      {
        obs::ScopedPhase sp(trace, obs::Phase::OrthoNormalization);
        detail::fault_hook(&rz, resilience::FaultSite::Orthogonalization, w.view());
        hn = norm2<T>(n, w.col(0), ex);
        hcol[size_t(j) + 1] = scalar_traits<T>::from_real(hn);
        st.reductions += 1;
        if (comm != nullptr) comm->reduction(8);
        if (trace != nullptr) trace->phase(obs::Phase::Reduction, 0.0, 1);
        if (hn > Real(0)) {
          const T hinv = scalar_traits<T>::from_real(Real(1) / hn);
          for (index_t i = 0; i < n; ++i) v(i, j + 1) = w(i, 0) * hinv;
        }
      }
      {
        obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
        qr.add_column(hcol.data(), j + 2);
        qr.apply_qt_range(MatrixView<T>(ghat.data(), index_t(ghat.size()), 1, index_t(ghat.size())),
                          j);
      }
      ++j;
      ++st.iterations;
      const Real est = abs_val(ghat[size_t(j)]);
      if (opts.record_history) st.history[0].push_back(est / bnorm);
      if (est > opts.tol * bnorm) ++st.per_rhs_iterations[0];
      if (trace != nullptr) {
        ev.cycle = st.cycles;
        ev.iteration = st.iterations;
        ev.basis_size = j + 1;
        ev.recycle_dim = naug;
        ev.residuals.assign(1, est / bnorm);
        trace->iteration(ev);
      }
      if (!std::isfinite(static_cast<double>(est)) ||
          !std::isfinite(static_cast<double>(hn))) {
        fatal = true;
        break;
      }
      if (hn == Real(0)) break;
      if (est <= opts.tol * bnorm) {
        hit = true;
        break;
      }
      if (est / bnorm < stag_best * (Real(1) - Real(1e-12))) {
        stag_best = est / bnorm;
        stag_count = 0;
      } else if (opts.recovery.early_restart && ++stag_count >= opts.recovery.stagnation_window) {
        ++st.recoveries;
        if (trace != nullptr)
          trace->recovery(obs::RecoveryEvent{st.iterations, "cycle", "early-restart", 0});
        break;
      }
    }
    if (fatal) {
      // A poisoned basis would feed NaN into the least squares; stop with
      // the last consistent iterate.
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }
    // Least squares over the j columns.
    if (j == 0) {
      st.status = SolveStatus::Stagnated;
      break;
    }
    std::vector<T>& y = ws.vec(kWsSmallY, j);
    for (index_t i = 0; i < j; ++i) y[size_t(i)] = ghat[size_t(i)];
    t.set_zero();
    const index_t jk = std::min(j, mk);
    {
      obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
      for (index_t i = j - 1; i >= 0; --i) {
        T acc = y[size_t(i)];
        for (index_t c = i + 1; c < j; ++c) acc -= mul(qr.r(i, c), y[size_t(c)]);
        if (abs_val(qr.r(i, i)) == Real(0)) {
          y[size_t(i)] = T(0);
          continue;
        }
        y[size_t(i)] = acc / qr.r(i, i);
      }
      // x update: Krylov part (preconditioned for Right) + augmentation part.
      for (index_t i = 0; i < jk; ++i) {
        const T* col = (side == PrecondSide::Flexible) ? zflex.col(i) : v.col(i);
        axpy<T>(n, y[size_t(i)], col, t.col(0));
      }
    }
    dx.assign(static_cast<size_t>(n), T(0));
    if (side == PrecondSide::Right) {
      obs::ScopedPhase sp(trace, obs::Phase::Precond);
      m->apply(t.view(), ztmp.view());
      ++st.precond_applies;
      for (index_t i = 0; i < n; ++i) dx[size_t(i)] = ztmp(i, 0);
    } else {
      for (index_t i = 0; i < n; ++i) dx[size_t(i)] = t(i, 0);
    }
    for (index_t i = jk; i < j; ++i)
      axpy<T>(n, y[size_t(i)], augmented[size_t(i - jk)].data(), dx.data());
    for (index_t i = 0; i < n; ++i) x[size_t(i)] += dx[size_t(i)];
    // Record the error approximation (normalized), newest first.
    Real dxn;
    {
      obs::ScopedPhase sp(trace, obs::Phase::Reduction);
      dxn = norm2<T>(n, dx.data(), ex);
      st.reductions += 1;
      if (comm != nullptr) comm->reduction(8);
    }
    if (dxn > Real(0)) {
      const T dinv = scalar_traits<T>::from_real(Real(1) / dxn);
      for (auto& val : dx) val *= dinv;
      augmented.push_front(std::move(dx));
      if (index_t(augmented.size()) > aug_max) {
        dx = std::move(augmented.back());  // recycle the evicted storage
        augmented.pop_back();
      }
    } else if (!hit && side != PrecondSide::Flexible) {
      // Exactly null update with a fixed preconditioner: the next cycle
      // replays this one from an identical state, so stop now.
      st.status = SolveStatus::Stagnated;
      break;
    }
  }
}

}  // namespace

template <class T>
SolveStats lgmres(const LinearOperator<T>& a, Preconditioner<T>* m, const std::vector<T>& b,
                  std::vector<T>& x, const SolverOptions& opts, CommModel* comm) {
  detail::check_solve_entry<T>(
      a, m, MatrixView<const T>(b.data(), index_t(b.size()), 1, index_t(b.size())),
      MatrixView<T>(x.data(), index_t(x.size()), 1, index_t(x.size())), opts);
  return detail::run_solver_ws<T>(
      "lgmres", a.n(), 1, opts, [&](SolveStats& st, SolverWorkspace<T>& ws) {
        lgmres_body<T>(a, m, b, x, opts, comm, st, ws);
        detail::final_residual_check<T>(a, MatrixView<const T>(b.data(), a.n(), 1, a.n()),
                                        MatrixView<T>(x.data(), a.n(), 1, a.n()), opts, st, comm);
      });
}

template SolveStats lgmres<double>(const LinearOperator<double>&, Preconditioner<double>*,
                                   const std::vector<double>&, std::vector<double>&,
                                   const SolverOptions&, CommModel*);
template SolveStats lgmres<std::complex<double>>(const LinearOperator<std::complex<double>>&,
                                                 Preconditioner<std::complex<double>>*,
                                                 const std::vector<std::complex<double>>&,
                                                 std::vector<std::complex<double>>&,
                                                 const SolverOptions&, CommModel*);

}  // namespace bkr
