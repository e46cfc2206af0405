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
// and its solve, the coupling E = C^H op(V), the phase scopes of its
// steps and the per-iteration decisions (breakdown, tolerance, the
// stagnation early restart). The solve's SolveContext (krylov_detail.hpp)
// does the per-iteration bookkeeping the cycle asks for: reduction
// accounting, fault hooks, the cancellation poll, trace events, residual
// history and per-RHS iteration counts. The solver's restart loop owns
// the rest: cycle counts, true residuals and the convergence test, the
// update of x and the exits. GCRO-DR's recycled space is updated from
// either cycle by update_recycled, one lane at a time.
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
  std::vector<real_t<T>> estimate;  // per column: the last iteration's residual estimate

  // Up to max_steps block iterations from the residual block r0, on
  // (I - C C^H) op when c has columns. Returns the usable Krylov
  // dimension (0 on immediate breakdown).
  index_t run(SolveContext<T>& ctx, const LinearOperator<T>& a, Preconditioner<T>* m,
              PrecondSide op_side, MatrixView<const T> r0, MatrixView<const T> c,
              index_t max_steps, const std::vector<real_t<T>>& bnorm) {
    using Real = real_t<T>;
    const SolverOptions& opts = ctx.opts;
    SolveStats& st = ctx.st;
    obs::TraceSink* const trace = ctx.trace;
    const KernelExecutor* const ex = ctx.ex;
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
    estimate.resize(static_cast<size_t>(p));
    ctx.reserve_history(p, max_steps);

    copy_into<T>(r0, v.block(0, 0, n, p));
    // Rank-deficient residual blocks are tolerated here: breakdown is
    // detected per-column through usable_columns further down the cycle
    // (or repaired by the recovery ladder when it is enabled).
    ctx.rz.prior = MatrixView<const T>();
    qr_block<T>(ctx, v.block(0, 0, n, p), sblock.view(),  // bkr-lint: allow(unchecked-factor)
                &ctx.rz);
    for (index_t cc = 0; cc < p; ++cc)
      for (index_t rr = 0; rr <= cc; ++rr) ghat(rr, cc) = sblock(rr, cc);

    // Stagnation-triggered early restart: within a cycle the worst-column
    // estimate is monotone non-increasing, so a long flat run means the
    // space is wedged and restarting from the true residual is cheaper.
    Real stag_best = std::numeric_limits<Real>::infinity();
    index_t stag_count = 0;
    index_t j = 0;
    BKR_HOT_LOOP while (j < max_steps && st.iterations < opts.max_iterations) {
      ctx.poll_cancel();
      const auto vj = MatrixView<const T>(v.col(j * p), n, p, v.ld());
      MatrixView<T> zj = (side == PrecondSide::Flexible) ? z.block(0, j * p, n, p) : ztmp.view();
      apply_preconditioned<T>(ctx, a, m, side, vj, zj, w.view());
      if (kp > 0) {
        // Project against the recycled space: E_j = C^H w, w -= C E_j
        // (one additional reduction per iteration — the 2(m-k) vs m count
        // of section III-D).
        obs::ScopedPhase sp(trace, obs::Phase::OrthoProjection);
        gemm<T>(Trans::C, Trans::N, T(1), c, w.view(), T(0), ecol.block(0, 0, kp, p), ex);
        ctx.count_reductions(1, kp * p * 8);
        gemm<T>(Trans::N, Trans::N, T(-1), c, ecol.block(0, 0, kp, p), T(1), w.view(), ex);
        copy_into<T>(ecol.block(0, 0, kp, p), e.block(0, j * p, kp, p));
      }
      hcol.set_zero();
      project<T>(ctx, v.view(), (j + 1) * p, w.view(), hcol.view(), p);
      auto vnext = v.block(0, (j + 1) * p, n, p);
      copy_into<T>(w.view(), vnext);
      ctx.rz.prior = MatrixView<const T>(v.data(), n, (j + 1) * p, v.ld());
      const bool full_rank = qr_block<T>(ctx, vnext, sblock.view(), &ctx.rz);
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
      for (index_t cc = 0; cc < p; ++cc) {
        const Real est = norm2<T>(p, &ghat(j * p, cc));
        estimate[size_t(cc)] = est;
        worst = std::max(worst, est / bnorm[size_t(cc)]);
        if (!std::isfinite(static_cast<double>(est))) fatal = true;
        if (ctx.record(cc, est, bnorm[size_t(cc)])) all_small = false;
      }
      ctx.iteration_event(st.cycles, (j + 1) * p, kp, estimate.data(), bnorm.data(), p);
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
      } else if (opts.recovery.early_restart && ++stag_count >= kStagnationWindow) {
        ctx.note_recovery("cycle", "early-restart", 0);
        break;
      }
    }
    steps = j;
    return usable_columns(qr, steps * p);
  }

  // Least-squares solution Y over the first s Krylov columns (held in a
  // workspace slot until the next solve) and the Krylov-space update
  // T = basis Y.
  MatrixView<const T> solve(SolveContext<T>& ctx, index_t s, MatrixView<T> t) const {
    const index_t p = t.cols();
    DenseMatrix<T>& y = ctx.ws.mat(kWsCycleSolution, s, p);
    copy_into<T>(MatrixView<const T>(ghat.data(), s, p, ghat.ld()), y.view());
    trsm_left_upper<T>(qr.r_upper(s), y.view());
    gemm<T>(Trans::N, Trans::N, T(1), update_basis(s), MatrixView<const T>(y.view()), T(0), t,
            ctx.ex);
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

  // The raw block Hessenberg ((steps + 1)p rows) and its coupling with the
  // first `k` columns of C.
  [[nodiscard]] MatrixView<const T> hessenberg() const {
    const index_t p = ghat.cols();
    return MatrixView<const T>(hbar.data(), (steps + 1) * p, steps * p, hbar.ld());
  }
  [[nodiscard]] MatrixView<const T> coupling(index_t k) const {
    return MatrixView<const T>(e.data(), k, steps * ghat.cols(), e.ld());
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

  // Up to max_steps fused iterations from the residuals r (norms rnorm).
  // Lanes already below tolerance stay locked for the whole cycle; the
  // others lock as their estimates reach it. With a non-empty `c`, lane l
  // runs on (I - C_l C_l^H) op; `k` is the nominal per-lane recycled
  // dimension (communication bytes, trace events). rnorm receives the
  // final estimate of every lane that iterated.
  void run(SolveContext<T>& ctx, const LinearOperator<T>& a, Preconditioner<T>* m,
           PrecondSide op_side, MatrixView<const T> r, std::span<const DenseMatrix<T>> c, index_t k,
           index_t max_steps, const std::vector<real_t<T>>& bnorm, std::vector<real_t<T>>& rnorm) {
    using Real = real_t<T>;
    const SolverOptions& opts = ctx.opts;
    SolveStats& st = ctx.st;
    obs::TraceSink* const trace = ctx.trace;
    const KernelExecutor* const ex = ctx.ex;
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
    ctx.reserve_history(p, max_steps);

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

    // Every reduction below is a fused batch: ONE all-reduce for all lanes,
    // carrying MGS's j + 1 paper-count synchronizations as one.
    index_t j = 0;
    BKR_HOT_LOOP while (j < max_steps && st.iterations < opts.max_iterations) {
      ctx.poll_cancel();
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
      apply_preconditioned<T>(ctx, a, m, side, vj, zj, w.view());
      if (project) {
        // Projection against each lane's C (one fused reduction).
        obs::ScopedPhase sp(trace, obs::Phase::OrthoProjection);
        ctx.fused_reductions(1, nactive * k * 8);
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
        ctx.fused_reductions((opts.ortho == Ortho::Mgs) ? (j + 1) : 1, (j + 1) * nactive * 8);
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
        if (opts.ortho == Ortho::Cgs2) ctx.fused_reductions(1, (j + 1) * nactive * 8);
      }
      // Fused normalization (the per-lane Hessenberg QR updates ride in
      // the same scope; their cost is O(m) per lane).
      ctx.fused_reductions(1, nactive * 8);
      {
        obs::ScopedPhase sp(trace, obs::Phase::OrthoNormalization);
        ctx.fault_hook(resilience::FaultSite::Orthogonalization, w.view());
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
          ctx.record(l, est, bnorm[size_t(l)]);
          if (est <= opts.tol * bnorm[size_t(l)] || hn == Real(0)) active[size_t(l)] = 0;
        }
      }
      ++j;
      ++st.iterations;
      ctx.iteration_event(st.cycles, (j + 1) * p, project ? k : 0, rnorm.data(), bnorm.data(), p);
      if (fatal) break;
      if (std::none_of(active.begin(), active.end(), [](char on) { return on != 0; })) break;
    }
  }

  // Least squares of lane l over its usable columns, accumulating the
  // Krylov-space update basis_l y into t (a column of length n). Returns
  // y (held in a workspace slot until the next solve), empty when the
  // lane produced no usable direction this cycle.
  std::span<const T> solve(SolveContext<T>& ctx, index_t l, T* t) const {
    const IncrementalQR<T>& q = qr[size_t(l)];
    const index_t s = usable_columns(q, steps[size_t(l)]);
    if (s == 0) return {};
    std::vector<T>& y = ctx.ws.vec(kWsCycleSolution, s);
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

// GCRO-DR's update of the recycled pair (U, C) from one lane of a cycle
// (a block cycle is one lane of width p): fig. 1 lines 16-20 after the
// first, unprojected cycle and lines 31-38 after a projected one. The lane
// is read through its raw Hessenberg `hbar`, its coupling `e` with C, its
// Krylov basis `v` (hbar.rows() columns) and its update basis `z`, whose
// s columns are the usable Krylov columns. With G the cycle's map
// op([U Z]) = [C V] G, the new U spans [U Z] Pk, where Pk holds the k
// eigenvectors of T z = theta W z with the smallest eigenvalues:
//  * `qr` set (seeding; U and C enter empty): G = Hbar, T = R^H R from the
//    cycle's incremental QR and W = Hbar^H, the harmonic Ritz form of eq. 2;
//  * `qr` null (refresh): U is scaled to unit columns by its norms `unorm`,
//    G = [[D_k, E], [0, Hbar]] with D_k = diag(1 / unorm), T = G^H G, and
//    W = G^H [I; 0] (strategy B, eq. 3b) or G^H [[C^H U, 0], [V^H U, I]]
//    (strategy A, eq. 3a), where cvu(out) writes [C V]^H U into `out`.
// Then [Q, R] = qr(G Pk), C = [C V] Q and U = [U Z] Pk R^{-1}, each as two
// gemms (gemm N/N adds every nonzero product in column order however the
// columns are split). The caller computes the U norms and [C V]^H U,
// counts their reductions and opens the RestartEig scope: those steps
// round or count differently in the two layouts (DESIGN.md §4).
template <class T, class CvU>
BKR_COLD void update_recycled(SolveContext<T>& ctx, DenseMatrix<T>& u, DenseMatrix<T>& c,
                              MatrixView<const T> hbar, MatrixView<const T> e,
                              MatrixView<const T> v, MatrixView<const T> z,
                              const IncrementalQR<T>* qr, const real_t<T>* unorm, CvU&& cvu,
                              index_t k) {
  using Real = real_t<T>;
  const KernelExecutor* const ex = ctx.ex;
  const index_t n = v.rows(), vcols = hbar.rows(), s = z.cols();
  const index_t kcur = qr != nullptr ? 0 : u.cols();
  const index_t rows = kcur + vcols, cols = kcur + s, knew = std::min(k, cols);
  DenseMatrix<T> g(rows, cols);
  for (index_t i = 0; i < kcur; ++i) {
    g(i, i) = scalar_traits<T>::from_real(Real(1) / std::max(unorm[i], Real(1e-300)));
    scal<T>(n, g(i, i), u.col(i));
  }
  for (index_t j = 0; j < s; ++j) {
    for (index_t i = 0; i < kcur; ++i) g(i, kcur + j) = e(i, j);
    for (index_t i = 0; i < vcols; ++i) g(kcur + i, kcur + j) = hbar(i, j);
  }
  DenseMatrix<T> tmat(cols, cols), wmat(cols, cols);
  if (qr != nullptr) {
    const DenseMatrix<T> r = qr->r_matrix();
    const auto rs = MatrixView<const T>(r.data(), s, s, r.ld());
    gemm<T>(Trans::C, Trans::N, T(1), rs, rs, T(0), tmat.view());
  } else {
    gemm<T>(Trans::C, Trans::N, T(1), g.view(), g.view(), T(0), tmat.view());
  }
  if (qr != nullptr || ctx.opts.strategy == RecycleStrategy::B) {
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i < cols; ++i) wmat(i, j) = conj(g(j, i));
  } else {
    DenseMatrix<T> inner(rows, cols);
    cvu(inner.block(0, 0, rows, kcur));
    for (index_t j = 0; j < s; ++j) inner(kcur + j, kcur + j) = T(1);
    gemm<T>(Trans::C, Trans::N, T(1), g.view(), inner.view(), T(0), wmat.view());
  }
  const DenseMatrix<T> pk = deflation_vectors<T>(ctx, tmat, wmat, knew);
  DenseMatrix<T> gp(rows, knew);
  gemm<T>(Trans::N, Trans::N, T(1), g.view(), pk.view(), T(0), gp.view());
  const HouseholderQR<T> hq(std::move(gp));
  const DenseMatrix<T> q = hq.q_thin(), rq = hq.r();
  DenseMatrix<T> cnew(n, knew), unew(n, knew);
  if (kcur > 0) {
    gemm<T>(Trans::N, Trans::N, T(1), c.view(), q.block(0, 0, kcur, knew), T(0), cnew.view(), ex);
    gemm<T>(Trans::N, Trans::N, T(1), u.view(), pk.block(0, 0, kcur, knew), T(0), unew.view(),
            ex);
  }
  gemm<T>(Trans::N, Trans::N, T(1), v, q.block(kcur, 0, vcols, knew), T(1), cnew.view(), ex);
  gemm<T>(Trans::N, Trans::N, T(1), z, pk.block(kcur, 0, s, knew), T(1), unew.view(), ex);
  trsm_right_upper<T>(rq.view(), unew.view(), ex);
  c = std::move(cnew);
  u = std::move(unew);
}

}  // namespace bkr::detail
