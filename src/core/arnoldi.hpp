// The Arnoldi cycles of the GMRES / GCRO-DR family (DESIGN.md §4).
//
// GMRES is GCRO-DR without a recycled space (k = 0), so the four solvers
// share one restart cycle per lane layout:
//  * BlockCycle: one p-wide block Krylov space with CholQR block
//    normalization (block_gmres, GcroDr; p = 1 is plain GMRES);
//  * LaneCycle: p independent width-1 spaces advanced in lockstep with
//    fused kernels — one SpMM and one batched reduction per iteration for
//    all lanes (pseudo_block_gmres, PseudoGcroDr).
// Either cycle optionally runs on GCRO-DR's projected operator
// (I - C C^H) op: one C_k for the block, or one C_k per lane.
//
// A cycle owns everything between two restarts: the basis, the raw
// Hessenberg and its incremental QR, the least-squares right-hand side
// and its solve, the coupling E = C^H op(V), and the per-iteration
// accounting (reductions, phases, fault hooks, cancellation polls, trace
// events, residual history and per-RHS iteration counts). The solver's
// restart loop owns the rest: cycle counts, true residuals and the
// convergence test, the update of x, the exits, and the recycled space.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "core/krylov_detail.hpp"

namespace bkr::detail {

template <class T>
struct BlockCycle {
  DenseMatrix<T> v;     // n x (max_steps+1)p basis
  DenseMatrix<T> z;     // flexible preconditioned basis (n x max_steps*p)
  DenseMatrix<T> hbar;  // raw block Hessenberg
  DenseMatrix<T> ghat;  // Q^H of the least-squares right-hand side
  DenseMatrix<T> e;     // kp x max_steps*p coupling C^H op(V) (fig. 1 line 26)
  IncrementalQR<T> qr;
  PrecondSide side = PrecondSide::None;
  index_t steps = 0;
  bool hit_tolerance = false;
  bool fatal = false;  // a residual estimate went non-finite mid-cycle
  // Iterate-loop scratch, reset (storage-reusing) at the top of run() so a
  // steady-state cycle touches the allocator nowhere inside the j-loop.
  DenseMatrix<T> ztmp, w, hcol, sblock, ecol;
  std::vector<double> relres;
  obs::IterationEvent ev;

  // Up to max_steps block iterations from the residual block r0, on
  // (I - C C^H) op when c has columns. Returns the usable Krylov
  // dimension (0 on immediate breakdown).
  index_t run(const LinearOperator<T>& a, Preconditioner<T>* m, PrecondSide op_side,
              MatrixView<const T> r0, MatrixView<const T> c, index_t max_steps,
              const SolverOptions& opts, const std::vector<real_t<T>>& bnorm, SolveStats& st,
              CommModel* comm, Resilience<T>& rz, SolverWorkspace<T>& ws) {
    using Real = real_t<T>;
    obs::TraceSink* const trace = opts.trace;
    const KernelExecutor* const ex = opts.exec;
    const index_t n = r0.rows(), p = r0.cols();
    const index_t kp = c.cols();
    side = op_side;
    v.resize(n, (max_steps + 1) * p);
    if (side == PrecondSide::Flexible) z.resize(n, max_steps * p);
    hbar.resize((max_steps + 1) * p, max_steps * p);
    ghat.resize((max_steps + 1) * p, p);
    if (kp > 0) e.resize(kp, max_steps * p);
    qr.reshape((max_steps + 1) * p, max_steps * p);
    steps = 0;
    hit_tolerance = false;
    fatal = false;

    ztmp.resize(n, p);
    w.resize(n, p);
    hcol.resize((max_steps + 2) * p, p);
    sblock.resize(p, p);
    ecol.resize(std::max<index_t>(kp, 1), p);
    relres.reserve(static_cast<size_t>(p));
    ev.residuals.reserve(static_cast<size_t>(p));
    if (opts.record_history)
      for (index_t cc = 0; cc < p; ++cc)
        st.history[size_t(cc)].reserve(st.history[size_t(cc)].size() +
                                       static_cast<size_t>(max_steps));

    copy_into<T>(r0, v.block(0, 0, n, p));
    // Rank-deficient residual blocks are tolerated here: breakdown is
    // detected per-column through usable_columns further down the cycle
    // (or repaired by the recovery ladder when it is enabled).
    rz.prior = MatrixView<const T>();
    rz.iteration = st.iterations;
    qr_block<T>(v.block(0, 0, n, p), sblock.view(),  // bkr-lint: allow(unchecked-factor)
                st, comm, trace, ex, &rz);
    for (index_t cc = 0; cc < p; ++cc)
      for (index_t rr = 0; rr <= cc; ++rr) ghat(rr, cc) = sblock(rr, cc);

    // Stagnation-triggered early restart: within a cycle the worst-column
    // estimate is monotone non-increasing, so a long flat run means the
    // space is wedged and restarting from the true residual is cheaper.
    Real stag_best = std::numeric_limits<Real>::infinity();
    index_t stag_count = 0;
    index_t j = 0;
    BKR_HOT_LOOP while (j < max_steps && st.iterations < opts.max_iterations) {
      poll_cancel(opts);
      const auto vj = MatrixView<const T>(v.col(j * p), n, p, v.ld());
      MatrixView<T> zj = (side == PrecondSide::Flexible) ? z.block(0, j * p, n, p) : ztmp.view();
      apply_preconditioned<T>(a, m, side, vj, zj, w.view(), st, trace, &rz);
      if (kp > 0) {
        // Project against the recycled space: E_j = C^H w, w -= C E_j
        // (one additional reduction per iteration — the 2(m-k) vs m count
        // of section III-D).
        obs::ScopedPhase sp(trace, obs::Phase::OrthoProjection);
        gemm<T>(Trans::C, Trans::N, T(1), c, w.view(), T(0), ecol.block(0, 0, kp, p), ex);
        count_reductions(st, comm, trace, 1, kp * p * 8);
        gemm<T>(Trans::N, Trans::N, T(-1), c, ecol.block(0, 0, kp, p), T(1), w.view(), ex);
        copy_into<T>(ecol.block(0, 0, kp, p), e.block(0, j * p, kp, p));
      }
      hcol.set_zero();
      project<T>(v.view(), (j + 1) * p, w.view(), hcol.view(), opts.ortho, p, st, comm, ws, trace,
                 ex);
      auto vnext = v.block(0, (j + 1) * p, n, p);
      copy_into<T>(w.view(), vnext);
      rz.prior = MatrixView<const T>(v.data(), n, (j + 1) * p, v.ld());
      rz.iteration = st.iterations;
      const bool full_rank = qr_block<T>(vnext, sblock.view(), st, comm, trace, ex, &rz);
      for (index_t cc = 0; cc < p; ++cc)
        for (index_t rr = 0; rr <= cc; ++rr) hcol((j + 1) * p + rr, cc) = sblock(rr, cc);
      // Commit the Hessenberg columns even on a (happy) breakdown — the
      // least squares over them may hold the exact solution; the rank-
      // deficient tail is excluded by usable_columns.
      {
        obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
        for (index_t cc = 0; cc < p; ++cc) {
          for (index_t rr = 0; rr < (j + 2) * p; ++rr) hbar(rr, j * p + cc) = hcol(rr, cc);
          qr.add_column(hcol.col(cc), (j + 2) * p);
        }
        qr.apply_qt_range(ghat.view(), j * p);
      }
      ++j;
      ++st.iterations;
      bool all_small = true;
      Real worst(0);
      relres.assign(static_cast<size_t>(p), 0.0);
      for (index_t cc = 0; cc < p; ++cc) {
        const Real est = norm2<T>(p, &ghat(j * p, cc));
        relres[size_t(cc)] = est / bnorm[size_t(cc)];
        worst = std::max(worst, est / bnorm[size_t(cc)]);
        if (!std::isfinite(static_cast<double>(est))) fatal = true;
        if (opts.record_history) st.history[size_t(cc)].push_back(est / bnorm[size_t(cc)]);
        if (est > opts.tol * bnorm[size_t(cc)]) {
          all_small = false;
          ++st.per_rhs_iterations[size_t(cc)];
        }
      }
      if (trace != nullptr) {
        ev.cycle = st.cycles;
        ev.iteration = st.iterations;
        ev.basis_size = (j + 1) * p;
        ev.recycle_dim = kp;
        ev.residuals.assign(relres.begin(), relres.end());
        trace->iteration(ev);
      }
      steps = j;
      if (fatal) break;
      if (all_small) {
        hit_tolerance = true;
        break;
      }
      if (!full_rank) break;
      if (worst < stag_best * (Real(1) - Real(1e-12))) {
        stag_best = worst;
        stag_count = 0;
      } else if (opts.recovery.early_restart && ++stag_count >= opts.recovery.stagnation_window) {
        ++st.recoveries;
        if (trace != nullptr)
          trace->recovery(obs::RecoveryEvent{st.iterations, "cycle", "early-restart", 0});
        break;
      }
    }
    steps = j;
    return usable_columns(qr, steps * p);
  }

  // Least-squares solution Y over the first s Krylov columns (held in a
  // workspace slot until the next solve) and the Krylov-space update
  // T = basis Y.
  MatrixView<const T> solve(index_t s, MatrixView<T> t, SolverWorkspace<T>& ws,
                            const KernelExecutor* ex) const {
    const index_t p = t.cols();
    DenseMatrix<T>& y = ws.mat(kWsCycleSolution, s, p);
    copy_into<T>(MatrixView<const T>(ghat.data(), s, p, ghat.ld()), y.view());
    trsm_left_upper<T>(qr.r_upper(s), y.view());
    gemm<T>(Trans::N, Trans::N, T(1), update_basis(s), MatrixView<const T>(y.view()), T(0), t, ex);
    return y.view();
  }

  // The first `cols` basis columns (Krylov space).
  [[nodiscard]] MatrixView<const T> basis(index_t cols) const {
    return MatrixView<const T>(v.data(), v.rows(), cols, v.ld());
  }

  // The basis reconstructing solution updates (preconditioned space for
  // flexible, Krylov space otherwise).
  [[nodiscard]] MatrixView<const T> update_basis(index_t cols) const {
    const DenseMatrix<T>& b = (side == PrecondSide::Flexible) ? z : v;
    return MatrixView<const T>(b.data(), v.rows(), cols, b.ld());
  }
};

template <class T>
struct LaneCycle {
  // Lane l's i-th basis vector is column i*p + l of v (and z), its j-th
  // Hessenberg column is column j*p + l of hbar (and of e), so one
  // iteration's p new vectors sit side by side as the operator's block.
  DenseMatrix<T> v;     // n x (max_steps+1)p basis
  DenseMatrix<T> z;     // flexible preconditioned basis (n x max_steps*p)
  DenseMatrix<T> hbar;  // (max_steps+1) x max_steps*p raw Hessenberg columns
  DenseMatrix<T> ghat;  // (max_steps+1) x p; lane l's Q^H g in column l
  DenseMatrix<T> e;     // couplings C_l^H op(v) (projected cycles)
  std::vector<IncrementalQR<T>> qr;  // per lane
  std::vector<index_t> steps;        // per lane: steps taken this cycle
  std::vector<char> active;          // per lane: still iterating
  PrecondSide side = PrecondSide::None;
  bool fatal = false;  // a lane's estimate went non-finite mid-cycle
  DenseMatrix<T> vin, ztmp, w;
  obs::IterationEvent ev;

  // Up to max_steps fused iterations from the residuals r (norms rnorm).
  // Lanes already below tolerance stay locked for the whole cycle; the
  // others lock as their estimates reach it. With a non-empty `c`, lane l
  // runs on (I - C_l C_l^H) op; `k` is the nominal per-lane recycled
  // dimension (communication bytes, trace events). rnorm receives the
  // final estimate of every lane that iterated.
  void run(const LinearOperator<T>& a, Preconditioner<T>* m, PrecondSide op_side,
           MatrixView<const T> r, std::span<const DenseMatrix<T>> c, index_t k, index_t max_steps,
           const SolverOptions& opts, const std::vector<real_t<T>>& bnorm,
           std::vector<real_t<T>>& rnorm, SolveStats& st, CommModel* comm, Resilience<T>& rz) {
    using Real = real_t<T>;
    obs::TraceSink* const trace = opts.trace;
    const KernelExecutor* const ex = opts.exec;
    const index_t n = r.rows(), p = r.cols();
    const bool project = !c.empty();
    side = op_side;
    v.resize(n, (max_steps + 1) * p);
    if (side == PrecondSide::Flexible) z.resize(n, max_steps * p);
    hbar.resize(max_steps + 1, max_steps * p);
    ghat.resize(max_steps + 1, p);
    if (project) {
      index_t kmax = 0;
      for (const auto& cl : c) kmax = std::max(kmax, cl.cols());
      e.resize(kmax, max_steps * p);
    }
    qr.resize(size_t(p));
    for (auto& q : qr) q.reshape(max_steps + 1, max_steps);
    steps.assign(size_t(p), 0);
    active.assign(size_t(p), 0);
    fatal = false;
    vin.resize(n, p);
    ztmp.resize(n, p);
    w.resize(n, p);
    ev.residuals.reserve(static_cast<size_t>(p));
    if (opts.record_history)
      for (index_t l = 0; l < p; ++l)
        st.history[size_t(l)].reserve(st.history[size_t(l)].size() +
                                      static_cast<size_t>(max_steps));

    // v_0 = r / ||r||: the residual norms double as the "QR" of the p
    // separate residual vectors.
    for (index_t l = 0; l < p; ++l) {
      const Real beta = rnorm[size_t(l)];
      if (beta <= opts.tol * bnorm[size_t(l)]) continue;
      active[size_t(l)] = 1;
      const T inv = scalar_traits<T>::from_real(Real(1) / beta);
      for (index_t i = 0; i < n; ++i) v(i, l) = r(i, l) * inv;
      ghat(0, l) = scalar_traits<T>::from_real(beta);
    }

    // A fused batch is ONE comm-model all-reduce carrying `count`
    // paper-count synchronizations (MGS).
    auto fused = [&](std::int64_t count, std::int64_t bytes) {
      st.reductions += count;
      if (comm != nullptr) comm->reduction(bytes);
      if (trace != nullptr) trace->phase(obs::Phase::Reduction, 0.0, count);
    };

    index_t j = 0;
    BKR_HOT_LOOP while (j < max_steps && st.iterations < opts.max_iterations) {
      poll_cancel(opts);
      index_t nactive = 0;
      for (index_t l = 0; l < p; ++l) nactive += active[size_t(l)];
      // Locked lanes enter the operator as zero columns so inner (block)
      // preconditioners never see stale data; their basis stays intact
      // for the recycled-space refresh.
      auto vj = MatrixView<const T>(v.col(j * p), n, p, v.ld());
      if (nactive < p) {
        for (index_t l = 0; l < p; ++l) {
          if (active[size_t(l)])
            std::copy(v.col(j * p + l), v.col(j * p + l) + n, vin.col(l));
          else
            std::fill(vin.col(l), vin.col(l) + n, T(0));
        }
        vj = vin.view();
      }
      MatrixView<T> zj = (side == PrecondSide::Flexible) ? z.block(0, j * p, n, p) : ztmp.view();
      apply_preconditioned<T>(a, m, side, vj, zj, w.view(), st, trace, &rz);
      if (project) {
        // Projection against each lane's C (one fused reduction).
        obs::ScopedPhase sp(trace, obs::Phase::OrthoProjection);
        fused(1, nactive * k * 8);
        for (index_t l = 0; l < p; ++l) {
          if (!active[size_t(l)]) continue;
          const DenseMatrix<T>& cl = c[size_t(l)];
          for (index_t i = 0; i < cl.cols(); ++i) {
            const T ei = dot<T>(n, cl.col(i), w.col(l), ex);
            e(i, j * p + l) = ei;
            axpy<T>(n, -ei, cl.col(i), w.col(l));
          }
        }
      }
      // Fused CGS projection: every lane's dots batch into one reduction.
      {
        obs::ScopedPhase sp(trace, obs::Phase::OrthoProjection);
        for (index_t l = 0; l < p; ++l) {
          if (!active[size_t(l)]) continue;
          for (index_t i = 0; i <= j; ++i)
            hbar(i, j * p + l) = dot<T>(n, v.col(i * p + l), w.col(l), ex);
        }
        fused((opts.ortho == Ortho::Mgs) ? (j + 1) : 1, (j + 1) * nactive * 8);
        for (index_t l = 0; l < p; ++l) {
          if (!active[size_t(l)]) continue;
          T* h = hbar.col(j * p + l);
          for (index_t i = 0; i <= j; ++i) axpy<T>(n, -h[i], v.col(i * p + l), w.col(l));
          if (opts.ortho == Ortho::Cgs2) {
            for (index_t i = 0; i <= j; ++i) {
              const T h2 = dot<T>(n, v.col(i * p + l), w.col(l), ex);
              h[i] += h2;
              axpy<T>(n, -h2, v.col(i * p + l), w.col(l));
            }
          }
        }
        if (opts.ortho == Ortho::Cgs2) fused(1, (j + 1) * nactive * 8);
      }
      // Fused normalization (the per-lane Hessenberg QR updates ride in
      // the same scope; their cost is O(m) per lane).
      fused(1, nactive * 8);
      {
        obs::ScopedPhase sp(trace, obs::Phase::OrthoNormalization);
        fault_hook(&rz, resilience::FaultSite::Orthogonalization, w.view());
        for (index_t l = 0; l < p; ++l) {
          if (!active[size_t(l)]) continue;
          const Real hn = norm2<T>(n, w.col(l), ex);
          hbar(j + 1, j * p + l) = scalar_traits<T>::from_real(hn);
          if (hn > Real(0)) {
            const T inv = scalar_traits<T>::from_real(Real(1) / hn);
            for (index_t i = 0; i < n; ++i) v(i, (j + 1) * p + l) = w(i, l) * inv;
          }
          qr[size_t(l)].add_column(hbar.col(j * p + l), j + 2);
          qr[size_t(l)].apply_qt_range(ghat.block(0, l, max_steps + 1, 1), j);
          steps[size_t(l)] = j + 1;
          const Real est = abs_val(ghat(j + 1, l));
          rnorm[size_t(l)] = est;
          if (!std::isfinite(static_cast<double>(est)) ||
              !std::isfinite(static_cast<double>(hn))) {
            fatal = true;
            active[size_t(l)] = 0;
          }
          if (opts.record_history) st.history[size_t(l)].push_back(est / bnorm[size_t(l)]);
          if (est > opts.tol * bnorm[size_t(l)]) ++st.per_rhs_iterations[size_t(l)];
          if (est <= opts.tol * bnorm[size_t(l)] || hn == Real(0)) active[size_t(l)] = 0;
        }
      }
      ++j;
      ++st.iterations;
      if (trace != nullptr) {
        ev.cycle = st.cycles;
        ev.iteration = st.iterations;
        ev.basis_size = (j + 1) * p;
        ev.recycle_dim = project ? k : 0;
        ev.residuals.resize(size_t(p));
        for (index_t l = 0; l < p; ++l)
          ev.residuals[size_t(l)] = rnorm[size_t(l)] / bnorm[size_t(l)];
        trace->iteration(ev);
      }
      if (fatal) break;
      if (std::none_of(active.begin(), active.end(), [](char on) { return on != 0; })) break;
    }
  }

  // Least squares of lane l over its usable columns, accumulating the
  // Krylov-space update basis_l y into t (a column of length n). Returns
  // y (held in a workspace slot until the next solve), empty when the
  // lane produced no usable direction this cycle.
  std::span<const T> solve(index_t l, T* t, SolverWorkspace<T>& ws) const {
    const IncrementalQR<T>& q = qr[size_t(l)];
    const index_t s = usable_columns(q, steps[size_t(l)]);
    if (s == 0) return {};
    std::vector<T>& y = ws.vec(kWsCycleSolution, s);
    for (index_t i = 0; i < s; ++i) y[size_t(i)] = ghat(i, l);
    for (index_t i = s - 1; i >= 0; --i) {
      T acc = y[size_t(i)];
      for (index_t cc = i + 1; cc < s; ++cc) acc -= mul(q.r(i, cc), y[size_t(cc)]);
      y[size_t(i)] = acc / q.r(i, i);
    }
    const auto basis = update_basis(l, s);
    for (index_t i = 0; i < s; ++i) axpy<T>(basis.rows(), y[size_t(i)], basis.col(i), t);
    return {y.data(), size_t(s)};
  }

  // Lane l's views: the first `cols` Krylov basis vectors, the vectors
  // reconstructing its solution update, its raw Hessenberg (steps + 1
  // rows) and its coupling with the first `k` columns of its C.
  [[nodiscard]] MatrixView<const T> basis(index_t l, index_t cols) const {
    return lane_view(v, l, v.rows(), cols);
  }
  [[nodiscard]] MatrixView<const T> update_basis(index_t l, index_t cols) const {
    return lane_view(side == PrecondSide::Flexible ? z : v, l, v.rows(), cols);
  }
  [[nodiscard]] MatrixView<const T> hessenberg(index_t l) const {
    return lane_view(hbar, l, steps[size_t(l)] + 1, steps[size_t(l)]);
  }
  [[nodiscard]] MatrixView<const T> coupling(index_t l, index_t k) const {
    return lane_view(e, l, k, steps[size_t(l)]);
  }

 private:
  [[nodiscard]] MatrixView<const T> lane_view(const DenseMatrix<T>& mat, index_t l, index_t rows,
                                              index_t cols) const {
    const index_t p = ghat.cols();
    return MatrixView<const T>(mat.data() + l * mat.ld(), rows, cols, mat.ld() * p);
  }
};

}  // namespace bkr::detail
