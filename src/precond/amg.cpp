#include "precond/amg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "direct/factor.hpp"
#include "la/factor.hpp"
#include "sparse/graph.hpp"
#include "la/qr.hpp"
#include "precond/chebyshev.hpp"
#include "precond/jacobi.hpp"
#include "precond/krylov_smoother.hpp"

namespace bkr {

template <class T>
struct AmgPreconditioner<T>::Level {
  CsrMatrix<T> a;
  CsrMatrix<T> p;   // prolongator from the next (coarser) level to this one
  CsrMatrix<T> pt;  // cached restriction P^T
  std::unique_ptr<CsrOperator<T>> op;
  std::unique_ptr<Preconditioner<T>> inner;  // level PC inside Krylov smoothers
  std::unique_ptr<Preconditioner<T>> smoother;
  // Coarsest level only: dense LU for small grids, sparse LDL^T when
  // coarsening stalled on a still-large level.
  std::unique_ptr<DenseLU<T>> coarse_solver;
  std::unique_ptr<SparseLDLT<T>> coarse_sparse;
  // V-cycle temporaries, reshaped only when the block width changes: the
  // residual (on the coarsest level: the sparse solve's permutation
  // scratch); the restricted residual and the coarse correction; the
  // post-smoothing update.
  DenseMatrix<T> res, rc, zc, dz;
};

namespace {

// Prolongator smoothing and Jacobi damping factor.
constexpr double kOmega = 2.0 / 3.0;

// Node-level strength-of-connection graph: edge (i, j) kept when the
// block norm exceeds threshold * sqrt(s_ii * s_jj) (GAMG semantics).
template <class T>
Graph strength_graph(const CsrMatrix<T>& a, index_t bs, double threshold) {
  const index_t nodes = a.rows() / bs;
  // Condense to node-block magnitudes.
  std::vector<std::vector<std::pair<index_t, double>>> blocks(static_cast<size_t>(nodes));
  for (index_t i = 0; i < a.rows(); ++i) {
    const index_t ni = i / bs;
    for (index_t l = a.rowptr()[size_t(i)]; l < a.rowptr()[size_t(i) + 1]; ++l) {
      const index_t nj = a.colind()[size_t(l)] / bs;
      const double v = abs_val(a.values()[size_t(l)]);
      auto& row = blocks[size_t(ni)];
      auto it = std::find_if(row.begin(), row.end(),
                             [nj](const auto& e) { return e.first == nj; });
      if (it == row.end())
        row.emplace_back(nj, v * v);
      else
        it->second += v * v;
    }
  }
  std::vector<double> diag(static_cast<size_t>(nodes), 0.0);
  for (index_t i = 0; i < nodes; ++i)
    for (const auto& [j, s] : blocks[size_t(i)])
      if (j == i) diag[size_t(i)] = s;
  Graph g;
  g.n = nodes;
  g.ptr.assign(static_cast<size_t>(nodes) + 1, 0);
  std::vector<std::vector<index_t>> adj(static_cast<size_t>(nodes));
  const double t2 = threshold * threshold;
  for (index_t i = 0; i < nodes; ++i)
    for (const auto& [j, s] : blocks[size_t(i)]) {
      if (j == i) continue;
      const double scale = std::sqrt(std::max(diag[size_t(i)] * diag[size_t(j)], 1e-300));
      if (s > t2 * scale) adj[size_t(i)].push_back(j);
    }
  for (index_t i = 0; i < nodes; ++i) {
    std::sort(adj[size_t(i)].begin(), adj[size_t(i)].end());
    g.ptr[size_t(i) + 1] = g.ptr[size_t(i)] + index_t(adj[size_t(i)].size());
  }
  for (index_t i = 0; i < nodes; ++i)
    g.adj.insert(g.adj.end(), adj[size_t(i)].begin(), adj[size_t(i)].end());
  return g;
}

// Greedy aggregation (Vanek et al.): returns node -> aggregate id and the
// aggregate count. Aggregates smaller than `min_nodes` are merged into a
// neighbouring aggregate so the tentative prolongator's local QR stays
// overdetermined.
std::pair<std::vector<index_t>, index_t> aggregate(const Graph& g, index_t min_nodes) {
  const index_t n = g.n;
  std::vector<index_t> agg(static_cast<size_t>(n), -1);
  index_t count = 0;
  // Pass 1: roots whose strong neighbourhood is untouched.
  for (index_t i = 0; i < n; ++i) {
    if (agg[size_t(i)] >= 0) continue;
    bool free = true;
    for (index_t l = g.ptr[size_t(i)]; l < g.ptr[size_t(i) + 1]; ++l)
      if (agg[size_t(g.adj[size_t(l)])] >= 0) {
        free = false;
        break;
      }
    if (!free) continue;
    agg[size_t(i)] = count;
    for (index_t l = g.ptr[size_t(i)]; l < g.ptr[size_t(i) + 1]; ++l)
      agg[size_t(g.adj[size_t(l)])] = count;
    ++count;
  }
  // Pass 2: attach stragglers to an adjacent aggregate.
  for (index_t i = 0; i < n; ++i) {
    if (agg[size_t(i)] >= 0) continue;
    for (index_t l = g.ptr[size_t(i)]; l < g.ptr[size_t(i) + 1]; ++l)
      if (agg[size_t(g.adj[size_t(l)])] >= 0) {
        agg[size_t(i)] = agg[size_t(g.adj[size_t(l)])];
        break;
      }
  }
  // Pass 3: isolated vertices become singletons.
  for (index_t i = 0; i < n; ++i)
    if (agg[size_t(i)] < 0) agg[size_t(i)] = count++;
  // Merge undersized aggregates into a graph-adjacent one.
  std::vector<index_t> size(static_cast<size_t>(count), 0);
  for (index_t i = 0; i < n; ++i) ++size[size_t(agg[size_t(i)])];
  std::vector<index_t> remap(static_cast<size_t>(count), -1);
  for (index_t i = 0; i < n; ++i) {
    const index_t gi = agg[size_t(i)];
    if (size[size_t(gi)] >= min_nodes) continue;
    if (remap[size_t(gi)] < 0) {
      for (index_t l = g.ptr[size_t(i)]; l < g.ptr[size_t(i) + 1]; ++l) {
        const index_t gj = agg[size_t(g.adj[size_t(l)])];
        if (gj != gi && size[size_t(gj)] >= min_nodes) {
          remap[size_t(gi)] = gj;
          break;
        }
      }
    }
  }
  for (index_t i = 0; i < n; ++i)
    if (remap[size_t(agg[size_t(i)])] >= 0) agg[size_t(i)] = remap[size_t(agg[size_t(i)])];
  // Compact ids.
  std::vector<index_t> newid(static_cast<size_t>(count), -1);
  index_t compact = 0;
  for (index_t i = 0; i < n; ++i) {
    index_t& gi = agg[size_t(i)];
    if (newid[size_t(gi)] < 0) newid[size_t(gi)] = compact++;
    gi = newid[size_t(gi)];
  }
  return {std::move(agg), compact};
}

// Distance-2 closure of a graph (adjacency of the squared matrix).
Graph square(const Graph& g) {
  Graph out;
  out.n = g.n;
  out.ptr.assign(static_cast<size_t>(g.n) + 1, 0);
  std::vector<std::vector<index_t>> adj(static_cast<size_t>(g.n));
  std::vector<index_t> marker(static_cast<size_t>(g.n), -1);
  for (index_t i = 0; i < g.n; ++i) {
    auto& row = adj[size_t(i)];
    marker[size_t(i)] = i;
    for (index_t l = g.ptr[size_t(i)]; l < g.ptr[size_t(i) + 1]; ++l) {
      const index_t j = g.adj[size_t(l)];
      if (marker[size_t(j)] != i) {
        marker[size_t(j)] = i;
        row.push_back(j);
      }
      for (index_t l2 = g.ptr[size_t(j)]; l2 < g.ptr[size_t(j) + 1]; ++l2) {
        const index_t k = g.adj[size_t(l2)];
        if (marker[size_t(k)] != i) {
          marker[size_t(k)] = i;
          row.push_back(k);
        }
      }
    }
    std::sort(row.begin(), row.end());
  }
  for (index_t i = 0; i < g.n; ++i)
    out.ptr[size_t(i) + 1] = out.ptr[size_t(i)] + index_t(adj[size_t(i)].size());
  for (index_t i = 0; i < g.n; ++i)
    out.adj.insert(out.adj.end(), adj[size_t(i)].begin(), adj[size_t(i)].end());
  return out;
}

}  // namespace

template <class T>
AmgPreconditioner<T>::AmgPreconditioner(const CsrMatrix<T>& a, AmgOptions opts,
                                        MatrixView<const T> near_nullspace)
    : opts_(opts) {
  Timer timer;
  const index_t bs = opts_.block_size;
  if (a.rows() % bs != 0) throw std::invalid_argument("Amg: rows not divisible by block_size");

  // Near-nullspace (defaults to the constant vector per dof component).
  DenseMatrix<T> b;
  if (near_nullspace.cols() > 0) {
    b = copy_of(near_nullspace);
  } else {
    b.resize(a.rows(), bs);
    for (index_t i = 0; i < a.rows(); ++i) b(i, i % bs) = T(1);
  }
  const index_t nb = b.cols();

  CsrMatrix<T> current = a;
  for (index_t lvl = 0; lvl < opts_.max_levels; ++lvl) {
    auto level = std::make_unique<Level>();
    level->a = std::move(current);
    const CsrMatrix<T>& al = level->a;
    level->op = std::make_unique<CsrOperator<T>>(al);
    const bool coarsest = al.rows() <= opts_.coarse_size || lvl + 1 == opts_.max_levels;
    if (coarsest) {
      if (al.rows() <= std::max<index_t>(opts_.coarse_size, 1500)) {
        level->coarse_solver = std::make_unique<DenseLU<T>>(al.to_dense());
        if (level->coarse_solver->singular())
          throw std::runtime_error("amg: coarsest-grid matrix is singular");
      } else {
        level->coarse_sparse = std::make_unique<SparseLDLT<T>>(al);
      }
      levels_.push_back(std::move(level));
      break;
    }
    // Smoother for this level.
    switch (opts_.smoother) {
      case AmgSmoother::Jacobi:
        level->smoother = std::make_unique<JacobiPreconditioner<T>>(al, real_t<T>(kOmega));
        break;
      case AmgSmoother::Chebyshev:
        if constexpr (is_complex_v<T>) {
          level->smoother = std::make_unique<JacobiPreconditioner<T>>(al, real_t<T>(kOmega));
        } else {
          level->smoother =
              std::make_unique<ChebyshevSmoother>(al, opts_.smoother_iterations);
        }
        break;
      case AmgSmoother::Gmres:
        // Krylov smoothers carry a Jacobi level preconditioner, matching
        // PETSc's "-mg_levels_ksp_type gmres" with its default level PC.
        level->inner = std::make_unique<JacobiPreconditioner<T>>(al);
        level->smoother = std::make_unique<GmresSmoother<T>>(*level->op, opts_.smoother_iterations,
                                                             level->inner.get());
        break;
      case AmgSmoother::Cg:
        level->inner = std::make_unique<JacobiPreconditioner<T>>(al);
        level->smoother = std::make_unique<CgSmoother<T>>(*level->op, opts_.smoother_iterations,
                                                          level->inner.get());
        break;
    }
    // Aggregation on the node strength graph. The local QR needs at least
    // nb rows per aggregate -> at least ceil(nb / bs) nodes.
    Graph s = strength_graph(al, bs, opts_.threshold);
    if (opts_.square_graph) s = square(s);
    const index_t min_nodes = (nb + bs - 1) / bs;
    const auto [agg, nagg] = aggregate(s, min_nodes);
    if (nagg * nb >= al.rows()) {
      // Coarsening stalled: stop here with a direct solve.
      level->smoother.reset();
      if (al.rows() <= std::max<index_t>(opts_.coarse_size, 1500)) {
        level->coarse_solver = std::make_unique<DenseLU<T>>(al.to_dense());
        if (level->coarse_solver->singular())
          throw std::runtime_error("amg: coarsest-grid matrix is singular");
      } else {
        level->coarse_sparse = std::make_unique<SparseLDLT<T>>(al);
      }
      levels_.push_back(std::move(level));
      break;
    }
    // Tentative prolongator: per aggregate, orthonormalize the
    // near-nullspace restricted to the aggregate's dofs.
    std::vector<std::vector<index_t>> agg_rows(static_cast<size_t>(nagg));
    for (index_t node = 0; node < s.n; ++node)
      for (index_t d = 0; d < bs; ++d) agg_rows[size_t(agg[size_t(node)])].push_back(node * bs + d);
    CooBuilder<T> tent(al.rows(), nagg * nb);
    DenseMatrix<T> bc(nagg * nb, nb);
    for (index_t gidx = 0; gidx < nagg; ++gidx) {
      const auto& rows = agg_rows[size_t(gidx)];
      const index_t nr = index_t(rows.size());
      DenseMatrix<T> local(nr, nb);
      for (index_t r = 0; r < nr; ++r)
        for (index_t c = 0; c < nb; ++c) local(r, c) = b(rows[size_t(r)], c);
      HouseholderQR<T> qr(std::move(local));
      const DenseMatrix<T> q = qr.q_thin();
      const DenseMatrix<T> rr = qr.r();
      for (index_t r = 0; r < nr; ++r)
        for (index_t c = 0; c < nb; ++c) tent.add(rows[size_t(r)], gidx * nb + c, q(r, c));
      for (index_t rr1 = 0; rr1 < nb; ++rr1)
        for (index_t c = 0; c < nb; ++c) bc(gidx * nb + rr1, c) = rr(rr1, c);
    }
    CsrMatrix<T> tentative = tent.build();
    // Smooth the prolongator: P = (I - omega D^{-1} A) T.
    CsrMatrix<T> dinv_a = al;
    {
      const auto diag = al.diagonal();
      auto& vals = dinv_a.values();
      for (index_t i = 0; i < al.rows(); ++i) {
        // A zero diagonal row cannot be Jacobi-smoothed; keep the tentative
        // prolongator there instead of injecting inf into P.
        const T d = diag[size_t(i)];
        const T scale =
            d == T(0) ? T(0) : scalar_traits<T>::from_real(real_t<T>(kOmega)) / d;
        for (index_t l = al.rowptr()[size_t(i)]; l < al.rowptr()[size_t(i) + 1]; ++l)
          vals[size_t(l)] = al.values()[size_t(l)] * scale;
      }
    }
    CsrMatrix<T> smoothed_correction = multiply(dinv_a, tentative);
    // P = T - correction (merge the two patterns).
    CooBuilder<T> pb(al.rows(), nagg * nb);
    for (index_t i = 0; i < al.rows(); ++i) {
      for (index_t l = tentative.rowptr()[size_t(i)]; l < tentative.rowptr()[size_t(i) + 1]; ++l)
        pb.add(i, tentative.colind()[size_t(l)], tentative.values()[size_t(l)]);
      for (index_t l = smoothed_correction.rowptr()[size_t(i)];
           l < smoothed_correction.rowptr()[size_t(i) + 1]; ++l)
        pb.add(i, smoothed_correction.colind()[size_t(l)], -smoothed_correction.values()[size_t(l)]);
    }
    level->p = pb.build();
    level->pt = transpose(level->p);
    current = triple_product(level->p, al);
    b = std::move(bc);
    levels_.push_back(std::move(level));
  }
  setup_seconds_ = timer.seconds();
}

template <class T>
AmgPreconditioner<T>::~AmgPreconditioner() = default;

template <class T>
index_t AmgPreconditioner<T>::n() const {
  return levels_.front()->a.rows();
}

template <class T>
index_t AmgPreconditioner<T>::levels() const {
  return index_t(levels_.size());
}

template <class T>
index_t AmgPreconditioner<T>::level_rows(index_t level) const {
  return levels_[size_t(level)]->a.rows();
}

template <class T>
const CsrMatrix<T>& AmgPreconditioner<T>::prolongator(index_t level) const {
  return levels_[size_t(level)]->p;
}

template <class T>
double AmgPreconditioner<T>::operator_complexity() const {
  double total = 0;
  for (const auto& l : levels_) total += double(l->a.nnz());
  return total / double(levels_.front()->a.nnz());
}

template <class T>
void AmgPreconditioner<T>::vcycle(index_t lvl, MatrixView<const T> r, MatrixView<T> z) {
  Level& level = *levels_[size_t(lvl)];
  const index_t n = level.a.rows(), p = r.cols();
  if (level.coarse_solver != nullptr || level.coarse_sparse != nullptr) {
    copy_into<T>(r, z);
    if (level.coarse_solver != nullptr)
      level.coarse_solver->solve(z);
    else
      level.coarse_sparse->solve(z, level.res);
    return;
  }
  const index_t nc = level.p.cols();
  if (level.res.cols() != p) {
    level.res.resize(n, p);
    level.rc.resize(nc, p);
    level.zc.resize(nc, p);
    level.dz.resize(n, p);
  }
  // Every smoother and the coarse solve overwrite their output, so the
  // buffers' previous contents never reach the result. The residual and
  // the prolongation run fused into the CSR row loop (bitwise the SpMM
  // followed by the subtraction or the addition).
  MatrixView<T> res = level.res.view();
  const auto zv = MatrixView<const T>(z.data(), n, p, z.ld());
  // Pre-smooth from a zero initial guess.
  level.smoother->apply(r, z);
  // Residual and coarse correction.
  level.a.residual(r, zv, res);
  level.pt.spmm(res, level.rc.view());
  vcycle(lvl + 1, level.rc.view(), level.zc.view());
  level.p.spmm_add(level.zc.view(), z);
  // Post-smooth.
  level.a.residual(r, zv, res);
  level.smoother->apply(res, level.dz.view());
  for (index_t c = 0; c < p; ++c)
    for (index_t i = 0; i < n; ++i) z(i, c) += level.dz(i, c);
}

template <class T>
void AmgPreconditioner<T>::apply(MatrixView<const T> r, MatrixView<T> z) {
  BKR_REQUIRE(r.rows() == this->n(), "r.rows", r.rows(), "n", this->n());
  BKR_ASSERT_SHAPE(z, r.rows(), r.cols());
  z.set_zero();
  vcycle(0, r, z);
}

template class AmgPreconditioner<double>;
template class AmgPreconditioner<std::complex<double>>;

}  // namespace bkr
