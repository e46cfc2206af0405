// Shard-invariance conformance for the sharded SPMD layer (DESIGN.md §13).
//
// The contract under test is the sharded analogue of the thread-count
// contract of test_solver_threads.cpp: a ShardedCsrOperator apply is
// bitwise identical to the monolithic serial sweep at EVERY shard count,
// and the tree reductions it pairs with depend on the problem size only —
// so a full solver run produces identical iteration counts, residual
// histories and solutions at 1 shard and at N shards. Covered here:
//   * partition structure: shards own disjoint sorted row sets covering
//     every row; halo lists are sorted, owned-disjoint, and exactly the
//     referenced non-owned columns; PoU weights are 1 on owned, 0 on halo;
//   * SpMV/SpMM vs. the serial CsrMatrix oracle, real and complex, at
//     shard counts {1, 2, 4, 7}, with and without an executor;
//   * edge shards: more shards than rows (empty shards) and one row per
//     shard (every column is halo);
//   * tree reductions: bitwise lane-invariant, unlike the plain chunked
//     reductions they replace;
//   * end-to-end: all six solvers on the sharded operator with
//     SolverOptions::shards set, bitwise identical at every shard count.
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "core/block_cg.hpp"
#include "core/cg.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/lgmres.hpp"
#include "fem/poisson2d.hpp"
#include "parallel/kernel_executor.hpp"
#include "sparse/sharded.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;

const index_t kShardCounts[] = {1, 2, 4, 7};

constexpr KernelCutoffs kForceParallel{1, 1, 1};

// Small nonsymmetric band matrix with deterministic entries: exercises
// halo columns on both sides of every shard without fem machinery.
template <class T>
CsrMatrix<T> band_matrix(index_t n, index_t bandwidth) {
  CooBuilder<T> coo(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = std::max<index_t>(0, i - bandwidth);
         j <= std::min<index_t>(n - 1, i + bandwidth); ++j) {
      const double v = (i == j) ? 4.0 + 0.01 * double(i) : 1.0 / double(2 + i + 2 * j);
      if constexpr (std::is_same_v<T, cplx>)
        coo.add(i, j, T(v, 0.3 / double(1 + i + j)));
      else
        coo.add(i, j, T(v));
    }
  return coo.build();
}

template <class T>
void check_partition_structure(const CsrMatrix<T>& a, index_t nshards) {
  const ShardedCsrOperator<T> op(a, nshards);
  ASSERT_EQ(op.shard_count(), nshards);
  std::vector<char> seen(size_t(a.rows()), 0);
  for (index_t s = 0; s < nshards; ++s) {
    const auto& rows = op.owned_rows(s);
    const auto& halo = op.halo_indices(s);
    const auto& pou = op.pou_weights(s);
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end())) << "shard " << s;
    EXPECT_TRUE(std::is_sorted(halo.begin(), halo.end())) << "shard " << s;
    for (const index_t r : rows) {
      EXPECT_EQ(seen[size_t(r)], 0) << "row " << r << " owned twice";
      seen[size_t(r)] = 1;
    }
    // Halo = exactly the referenced non-owned columns.
    std::vector<char> owned(size_t(a.rows()), 0);
    for (const index_t r : rows) owned[size_t(r)] = 1;
    std::vector<char> referenced(size_t(a.rows()), 0);
    for (const index_t r : rows)
      for (index_t l = a.rowptr()[size_t(r)]; l < a.rowptr()[size_t(r) + 1]; ++l)
        referenced[size_t(a.colind()[size_t(l)])] = 1;
    for (const index_t h : halo) {
      EXPECT_EQ(owned[size_t(h)], 0) << "halo column " << h << " is owned";
      EXPECT_EQ(referenced[size_t(h)], 1) << "halo column " << h << " never referenced";
    }
    size_t expected_halo = 0;
    for (index_t c = 0; c < a.rows(); ++c)
      if (referenced[size_t(c)] != 0 && owned[size_t(c)] == 0) ++expected_halo;
    EXPECT_EQ(halo.size(), expected_halo) << "shard " << s;
    // PoU: 1 on owned columns, 0 on halo columns.
    ASSERT_EQ(pou.size(), rows.size() + halo.size());
    for (size_t k = 0; k < rows.size(); ++k) EXPECT_EQ(pou[k], 1.0);
    for (size_t k = rows.size(); k < pou.size(); ++k) EXPECT_EQ(pou[k], 0.0);
    // Local matrix shape matches the column map.
    EXPECT_EQ(op.local_matrix(s).rows(), index_t(rows.size()));
    EXPECT_EQ(op.local_matrix(s).cols(), index_t(rows.size() + halo.size()));
  }
  for (index_t r = 0; r < a.rows(); ++r) EXPECT_EQ(seen[size_t(r)], 1) << "row " << r << " unowned";
}

TEST(ShardedOperator, PartitionStructure) {
  const auto a = poisson2d(9, 7);
  for (const index_t s : kShardCounts) check_partition_structure(a, s);
}

template <class T>
void check_spmm_oracle(const CsrMatrix<T>& a, index_t p) {
  const index_t n = a.rows();
  const auto x = testing::random_matrix<T>(n, p, 11);
  DenseMatrix<T> yref(n, p);
  a.spmm(x.view(), yref.view(), nullptr);  // monolithic serial oracle
  KernelExecutor ex(4, kForceParallel);
  const KernelExecutor* execs[] = {nullptr, &ex};
  for (const index_t s : kShardCounts) {
    const ShardedCsrOperator<T> op(a, s);
    for (const KernelExecutor* e : execs) {
      DenseMatrix<T> y(n, p);
      op.spmm(x.view(), y.view(), e);
      for (index_t j = 0; j < p; ++j)
        for (index_t i = 0; i < n; ++i)
          ASSERT_EQ(y(i, j), yref(i, j))
              << "shards=" << s << " exec=" << (e != nullptr) << " (" << i << "," << j << ")";
    }
  }
}

TEST(ShardedOperator, SpmmMatchesSerialOracleReal) {
  check_spmm_oracle<double>(poisson2d(8, 8), 3);
  check_spmm_oracle<double>(band_matrix<double>(37, 3), 2);
}

TEST(ShardedOperator, SpmmMatchesSerialOracleComplex) {
  check_spmm_oracle<cplx>(band_matrix<cplx>(41, 4), 3);
}

TEST(ShardedOperator, SpmvMatchesSerialOracle) {
  const auto a = band_matrix<double>(29, 2);
  std::vector<double> x(29), yref(29), y(29);
  for (index_t i = 0; i < 29; ++i) x[size_t(i)] = std::sin(double(i) + 0.5);
  a.spmv(x.data(), yref.data());
  for (const index_t s : kShardCounts) {
    const ShardedCsrOperator<double> op(a, s);
    op.spmv(x.data(), y.data());
    for (index_t i = 0; i < 29; ++i) ASSERT_EQ(y[size_t(i)], yref[size_t(i)]) << "shards=" << s;
  }
}

// More shards than rows: the partitioner leaves trailing shards empty;
// applies must skip them and still reproduce the oracle.
TEST(ShardedOperator, EmptyShards) {
  const auto a = band_matrix<double>(5, 1);
  const ShardedCsrOperator<double> op(a, 7);
  ASSERT_EQ(op.shard_count(), 7);
  index_t owned_total = 0;
  bool any_empty = false;
  for (index_t s = 0; s < 7; ++s) {
    owned_total += index_t(op.owned_rows(s).size());
    if (op.owned_rows(s).empty()) any_empty = true;
  }
  EXPECT_EQ(owned_total, 5);
  EXPECT_TRUE(any_empty);
  std::vector<double> x{1.0, -2.0, 3.0, -4.0, 5.0}, yref(5), y(5);
  a.spmv(x.data(), yref.data());
  op.spmv(x.data(), y.data());
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(y[i], yref[i]);
}

// One row per shard: every off-diagonal column is halo.
TEST(ShardedOperator, SingleRowShards) {
  const index_t n = 6;
  const auto a = band_matrix<double>(n, 2);
  const ShardedCsrOperator<double> op(a, n);
  for (index_t s = 0; s < n; ++s) {
    ASSERT_EQ(op.owned_rows(s).size(), 1u);
    const index_t r = op.owned_rows(s)[0];
    const size_t row_nnz = size_t(a.rowptr()[size_t(r) + 1] - a.rowptr()[size_t(r)]);
    EXPECT_EQ(op.halo_indices(s).size(), row_nnz - 1);  // all but the diagonal
  }
  check_spmm_oracle<double>(a, 2);
}

TEST(ShardedOperator, HaloAccountingMatchesStructure) {
  const auto a = poisson2d(8, 6);
  for (const index_t s : kShardCounts) {
    const ShardedCsrOperator<double> op(a, s);
    index_t entries = 0;
    for (index_t k = 0; k < s; ++k) entries += index_t(op.halo_indices(k).size());
    EXPECT_EQ(op.halo_entries(), entries);
    if (s == 1) {
      EXPECT_EQ(op.halo_messages(), 0);  // one shard talks to nobody
    }
  }
}

// The halo hook observes the gathered values bitwise and may mutate them
// (the resilience layer's corruption point).
TEST(ShardedOperator, HaloHookObservesGatheredValues) {
  const auto a = poisson2d(6, 6);
  ShardedCsrOperator<double> op(a, 4);
  std::vector<double> x(size_t(a.rows()));
  for (size_t i = 0; i < x.size(); ++i) x[i] = double(i) + 0.25;
  index_t hook_calls = 0;
  bool all_match = true;
  op.set_halo_hook([&](index_t s, MatrixView<double> halo) {
    ++hook_calls;
    const auto& idx = op.halo_indices(s);
    for (index_t k = 0; k < halo.rows(); ++k)
      if (halo(k, 0) != x[size_t(idx[size_t(k)])]) all_match = false;
  });
  std::vector<double> y(x.size());
  op.spmv(x.data(), y.data());
  EXPECT_GT(hook_calls, 0);
  EXPECT_TRUE(all_match);
}

// Tree reductions are lane-invariant bitwise: the fold shape is a function
// of the element count only (DESIGN.md §13), so any executor produces the
// 1-lane result exactly.
TEST(ShardedOperator, TreeReductionsLaneInvariant) {
  const index_t n = 10000;  // several kReduceChunk chunks
  std::vector<double> u(size_t{10000}), v(size_t{10000});
  for (index_t i = 0; i < n; ++i) {
    u[size_t(i)] = std::sin(double(i) * 0.7) + 1e-3;
    v[size_t(i)] = std::cos(double(i) * 0.3) - 1e-3;
  }
  KernelExecutor ex1(1, kForceParallel);
  const double dref = tree_dot<double>(n, u.data(), v.data(), &ex1);
  for (const index_t lanes : {index_t(2), index_t(4), index_t(7)}) {
    KernelExecutor ex(lanes, kForceParallel);
    EXPECT_EQ(tree_dot<double>(n, u.data(), v.data(), &ex), dref) << "lanes=" << lanes;
  }
  // Serial (null executor) agrees too: same fold shape, one thread.
  EXPECT_EQ(tree_dot<double>(n, u.data(), v.data(), nullptr), dref);
}

// --- end-to-end: solvers on the sharded operator ---------------------------

template <class T>
struct Outcome {
  std::vector<SolveStats> stats;
  std::vector<T> x;
};

template <class T>
void expect_same_outcome(const Outcome<T>& got, const Outcome<T>& ref, index_t shards,
                         const char* what) {
  ASSERT_EQ(got.stats.size(), ref.stats.size()) << what;
  for (size_t s = 0; s < ref.stats.size(); ++s) {
    const SolveStats& a = got.stats[s];
    const SolveStats& b = ref.stats[s];
    EXPECT_EQ(a.converged, b.converged) << what << " shards=" << shards;
    EXPECT_EQ(a.iterations, b.iterations) << what << " shards=" << shards;
    EXPECT_EQ(a.cycles, b.cycles) << what << " shards=" << shards;
    EXPECT_EQ(a.reductions, b.reductions) << what << " shards=" << shards;
    ASSERT_EQ(a.history.size(), b.history.size()) << what << " shards=" << shards;
    for (size_t c = 0; c < b.history.size(); ++c)
      EXPECT_EQ(a.history[c], b.history[c])
          << what << " shards=" << shards << " rhs=" << c << " (history diverged)";
  }
  ASSERT_EQ(got.x.size(), ref.x.size()) << what;
  for (size_t i = 0; i < ref.x.size(); ++i)
    EXPECT_EQ(got.x[i], ref.x[i]) << what << " shards=" << shards << " x[" << i << "]";
}

// Run once per shard count and demand bitwise-identical outcomes; the
// 1-shard run is the reference ("1 vs N shards").
template <class T, class Run>
void check_shard_invariance(Run run, const char* what) {
  Outcome<T> ref;
  bool have_ref = false;
  for (const index_t shards : kShardCounts) {
    Outcome<T> got = run(shards);
    for (const SolveStats& st : got.stats) EXPECT_TRUE(st.converged) << what << " shards=" << shards;
    if (!have_ref) {
      ref = std::move(got);
      have_ref = true;
      continue;
    }
    expect_same_outcome<T>(got, ref, shards, what);
  }
}

DenseMatrix<double> poisson_rhs_block(index_t nx, index_t ny, index_t p) {
  const auto base = poisson2d_rhs(nx, ny, 0.1);
  const index_t n = index_t(base.size());
  DenseMatrix<double> b(n, p);
  for (index_t c = 0; c < p; ++c)
    for (index_t i = 0; i < n; ++i)
      b(i, c) = base[size_t(i)] + 0.05 * double(c) * std::sin(double(i + 1) * double(c + 1));
  return b;
}

SolverOptions sharded_opts(index_t shards) {
  SolverOptions opts;
  opts.restart = 50;
  opts.tol = 1e-9;
  opts.shards = shards;
  return opts;
}

TEST(ShardedOperator, CgShardInvariant) {
  const auto a = poisson2d(12, 12);
  const auto b = poisson_rhs_block(12, 12, 1);
  check_shard_invariance<double>(
      [&](index_t shards) {
        SolverOptions opts = sharded_opts(shards);
        ShardedOperator<double> op(a, shards);
        Outcome<double> out;
        DenseMatrix<double> x(a.rows(), 1);
        out.stats.push_back(cg<double>(op, nullptr, b.view(), x.view(), opts));
        out.x.assign(x.data(), x.data() + a.rows());
        return out;
      },
      "cg");
}

TEST(ShardedOperator, BlockCgShardInvariant) {
  const auto a = poisson2d(12, 12);
  const auto b = poisson_rhs_block(12, 12, 4);
  check_shard_invariance<double>(
      [&](index_t shards) {
        SolverOptions opts = sharded_opts(shards);
        ShardedOperator<double> op(a, shards);
        Outcome<double> out;
        DenseMatrix<double> x(a.rows(), 4);
        out.stats.push_back(block_cg<double>(op, nullptr, b.view(), x.view(), opts));
        out.x.assign(x.data(), x.data() + a.rows() * 4);
        return out;
      },
      "block_cg");
}

TEST(ShardedOperator, BlockGmresShardInvariant) {
  const auto a = poisson2d(12, 12);
  const auto b = poisson_rhs_block(12, 12, 4);
  check_shard_invariance<double>(
      [&](index_t shards) {
        SolverOptions opts = sharded_opts(shards);
        ShardedOperator<double> op(a, shards);
        Outcome<double> out;
        DenseMatrix<double> x(a.rows(), 4);
        out.stats.push_back(block_gmres<double>(op, nullptr, b.view(), x.view(), opts));
        out.x.assign(x.data(), x.data() + a.rows() * 4);
        return out;
      },
      "block_gmres");
}

TEST(ShardedOperator, PseudoBlockGmresShardInvariant) {
  const auto a = poisson2d(12, 12);
  const auto b = poisson_rhs_block(12, 12, 3);
  check_shard_invariance<double>(
      [&](index_t shards) {
        SolverOptions opts = sharded_opts(shards);
        ShardedOperator<double> op(a, shards);
        Outcome<double> out;
        DenseMatrix<double> x(a.rows(), 3);
        out.stats.push_back(pseudo_block_gmres<double>(op, nullptr, b.view(), x.view(), opts));
        out.x.assign(x.data(), x.data() + a.rows() * 3);
        return out;
      },
      "pseudo_block_gmres");
}

TEST(ShardedOperator, LgmresShardInvariant) {
  const auto a = poisson2d(12, 12);
  const auto b = poisson2d_rhs(12, 12, 0.1);
  check_shard_invariance<double>(
      [&](index_t shards) {
        SolverOptions opts = sharded_opts(shards);
        opts.restart = 30;
        opts.recycle = 2;
        ShardedOperator<double> op(a, shards);
        Outcome<double> out;
        std::vector<double> x(b.size(), 0.0);
        out.stats.push_back(lgmres<double>(op, nullptr, b, x, opts));
        out.x = std::move(x);
        return out;
      },
      "lgmres");
}

TEST(ShardedOperator, GcroDrShardInvariant) {
  const auto a = poisson2d(12, 12);
  const auto b1 = poisson_rhs_block(12, 12, 2);
  const auto b2 = poisson_rhs_block(12, 12, 2);
  check_shard_invariance<double>(
      [&](index_t shards) {
        SolverOptions opts = sharded_opts(shards);
        opts.restart = 20;
        opts.recycle = 2;
        ShardedOperator<double> op(a, shards);
        GcroDr<double> solver(opts);
        Outcome<double> out;
        DenseMatrix<double> x1(a.rows(), 2), x2(a.rows(), 2);
        out.stats.push_back(solver.solve(op, nullptr, b1.view(), x1.view()));
        out.stats.push_back(solver.solve(op, nullptr, b2.view(), x2.view(), nullptr, false));
        out.x.assign(x1.data(), x1.data() + a.rows() * 2);
        out.x.insert(out.x.end(), x2.data(), x2.data() + a.rows() * 2);
        return out;
      },
      "gcrodr");
}

TEST(ShardedOperator, PseudoGcroDrShardInvariant) {
  const auto a = poisson2d(12, 12);
  const auto b1 = poisson_rhs_block(12, 12, 3);
  const auto b2 = poisson_rhs_block(12, 12, 3);
  check_shard_invariance<double>(
      [&](index_t shards) {
        SolverOptions opts = sharded_opts(shards);
        opts.restart = 20;
        opts.recycle = 2;
        ShardedOperator<double> op(a, shards);
        PseudoGcroDr<double> solver(opts);
        Outcome<double> out;
        DenseMatrix<double> x1(a.rows(), 3), x2(a.rows(), 3);
        out.stats.push_back(solver.solve(op, nullptr, b1.view(), x1.view()));
        out.stats.push_back(solver.solve(op, nullptr, b2.view(), x2.view(), nullptr, false));
        out.x.assign(x1.data(), x1.data() + a.rows() * 3);
        out.x.insert(out.x.end(), x2.data(), x2.data() + a.rows() * 3);
        return out;
      },
      "pseudo_gcrodr");
}

// Complex path: the sharded operator and tree reductions are
// scalar-type-generic; one GMRES run pins it.
TEST(ShardedOperator, ComplexGmresShardInvariant) {
  const auto a = band_matrix<cplx>(80, 3);
  std::vector<cplx> b(80);
  for (index_t i = 0; i < 80; ++i) b[size_t(i)] = cplx(std::sin(double(i) + 1.0), 0.2);
  check_shard_invariance<cplx>(
      [&](index_t shards) {
        SolverOptions opts = sharded_opts(shards);
        opts.tol = 1e-10;
        ShardedOperator<cplx> op(a, shards);
        Outcome<cplx> out;
        std::vector<cplx> x(b.size(), cplx(0));
        out.stats.push_back(gmres<cplx>(op, nullptr, b, x, opts));
        out.x = std::move(x);
        return out;
      },
      "complex gmres");
}

// Executor attached AND sharded: the two parallel axes compose without
// breaking the invariance (sharded fan-out over executor lanes).
TEST(ShardedOperator, ExecutorComposesWithSharding) {
  const auto a = poisson2d(12, 12);
  const auto b = poisson_rhs_block(12, 12, 2);
  KernelExecutor ex(4, kForceParallel);
  check_shard_invariance<double>(
      [&](index_t shards) {
        SolverOptions opts = sharded_opts(shards);
        opts.exec = &ex;
        ShardedOperator<double> op(a, shards, nullptr, &ex);
        Outcome<double> out;
        DenseMatrix<double> x(a.rows(), 2);
        out.stats.push_back(block_gmres<double>(op, nullptr, b.view(), x.view(), opts));
        out.x.assign(x.data(), x.data() + a.rows() * 2);
        return out;
      },
      "block_gmres executor+shards");
}

}  // namespace
}  // namespace bkr
