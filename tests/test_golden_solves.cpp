// Cross-commit golden pins for the GMRES / GCRO-DR family.
//
// Every bitwise suite elsewhere compares two runs of the same build
// (threads, session, workspace, shards), so a refactor that shifts the
// numbers of every run alike passes all of them. This suite compares
// against values stored in the source instead: each case fingerprints
// its solves with a 64-bit FNV-1a hash over the bits of x, the residual
// history, per_rhs_iterations and the status of every solve, plus the
// recycled U and C left behind, and stores the counters (iterations,
// cycles, reductions, operator and preconditioner applies, CommModel
// reductions and bytes) beside it.
//
// Grid: {block_gmres, pseudo_block_gmres, GcroDr (3-solve sequence;
// strategy A, strategy B, strategy B with same_system),
// PseudoGcroDr (2-solve sequence)} x {real varcoef Poisson, complex
// Maxwell} x {None, Left, Right, Flexible} x {Cgs, Cgs2, Mgs} x {p=1, 3}.
// A mismatching or missing case prints its observed row in table syntax.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "parallel/comm_model.hpp"
#include "precond/jacobi.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;

struct Golden {
  const char* id;
  const char* status;  // status of the last solve of the case
  std::int64_t iterations, cycles, reductions, operator_applies, precond_applies;
  std::int64_t comm_reductions, comm_bytes;
  std::uint64_t hash;
};

// clang-format off
const Golden kGolden[] = {
#include "golden_solves.inc"
};
// clang-format on

enum class Method { BlockGmres, PseudoGmres, GcroDrA, GcroDrB, GcroDrSame, PseudoGcroDr };

const char* method_name(Method m) {
  switch (m) {
    case Method::BlockGmres: return "bgmres";
    case Method::PseudoGmres: return "pbgmres";
    case Method::GcroDrA: return "gcrodr-A";
    case Method::GcroDrB: return "gcrodr-B";
    case Method::GcroDrSame: return "gcrodr-same";
    case Method::PseudoGcroDr: return "pgcrodr";
  }
  return "?";
}

const char* side_name(PrecondSide s) {
  switch (s) {
    case PrecondSide::None: return "none";
    case PrecondSide::Left: return "left";
    case PrecondSide::Right: return "right";
    case PrecondSide::Flexible: return "flexible";
  }
  return "?";
}

const char* ortho_name(Ortho o) {
  switch (o) {
    case Ortho::Cgs: return "cgs";
    case Ortho::Cgs2: return "cgs2";
    case Ortho::Mgs: return "mgs";
  }
  return "?";
}

struct Observed {
  SolveStatus status = SolveStatus::Converged;
  std::int64_t iterations = 0, cycles = 0, reductions = 0, operator_applies = 0,
               precond_applies = 0;
  testing::Fingerprint fp;

  void add(const SolveStats& st) {
    status = st.status;
    iterations += st.iterations;
    cycles += st.cycles;
    reductions += st.reductions;
    operator_applies += st.operator_applies;
    precond_applies += st.precond_applies;
    fp.solve(st);
  }
};

template <class T>
Observed run_case(Method method, const CsrMatrix<T>& a, PrecondSide side, Ortho ortho, index_t p,
                  CommModel& comm) {
  const index_t n = a.rows();
  CsrOperator<T> op(a);
  JacobiPreconditioner<T> jacobi(a);
  Preconditioner<T>* m = side == PrecondSide::None ? nullptr : &jacobi;
  SolverOptions opts;
  opts.restart = 10;
  opts.recycle = 3;
  opts.tol = 1e-7;
  // The p = 3 budget is short enough that some solves end on budget
  // exhaustion, pinning that exit too.
  opts.max_iterations = p == 1 ? 150 : 45;
  opts.side = side;
  opts.ortho = ortho;
  opts.strategy = method == Method::GcroDrA ? RecycleStrategy::A : RecycleStrategy::B;
  opts.same_system = method == Method::GcroDrSame;

  Observed obs;
  auto rhs = [&](int solve) { return testing::random_matrix<T>(n, p, 40u + unsigned(solve)); };
  auto solve_once = [&](auto&& solve_fn, int solve) {
    const DenseMatrix<T> b = rhs(solve);
    DenseMatrix<T> x(n, p);
    obs.add(solve_fn(b.view(), x.view()));
    obs.fp.matrix<T>(x.view());
  };
  switch (method) {
    case Method::BlockGmres:
    case Method::PseudoGmres:
      solve_once(
          [&](MatrixView<const T> b, MatrixView<T> x) {
            return method == Method::BlockGmres ? block_gmres<T>(op, m, b, x, opts, &comm)
                                                : pseudo_block_gmres<T>(op, m, b, x, opts, &comm);
          },
          0);
      break;
    case Method::GcroDrA:
    case Method::GcroDrB:
    case Method::GcroDrSame: {
      GcroDr<T> solver(opts);
      for (int s = 0; s < 3; ++s)
        solve_once([&](MatrixView<const T> b, MatrixView<T> x) {
          return solver.solve(op, m, b, x, &comm);
        }, s);
      obs.fp.matrix<T>(solver.recycled_u().view());
      obs.fp.matrix<T>(solver.recycled_c().view());
      break;
    }
    case Method::PseudoGcroDr: {
      PseudoGcroDr<T> solver(opts);
      for (int s = 0; s < 2; ++s)
        solve_once([&](MatrixView<const T> b, MatrixView<T> x) {
          return solver.solve(op, m, b, x, &comm);
        }, s);
      obs.fp.matrix<T>(solver.recycled_u().view());
      obs.fp.matrix<T>(solver.recycled_c().view());
      break;
    }
  }
  return obs;
}

const Golden* find_golden(const std::string& id) {
  for (const auto& g : kGolden)
    if (id == g.id) return &g;
  return nullptr;
}

template <class T>
void check_method(Method method, const char* problem, const CsrMatrix<T>& a) {
  for (const PrecondSide side :
       {PrecondSide::None, PrecondSide::Left, PrecondSide::Right, PrecondSide::Flexible})
    for (const Ortho ortho : {Ortho::Cgs, Ortho::Cgs2, Ortho::Mgs})
      for (const index_t p : {index_t(1), index_t(3)}) {
        const std::string id = std::string(method_name(method)) + "/" + problem + "/" +
                               side_name(side) + "/" + ortho_name(ortho) + "/p" +
                               std::to_string(p);
        CommModel comm;
        const Observed o = run_case<T>(method, a, side, ortho, p, comm);
        char row[320];
        std::snprintf(row, sizeof(row),
                      "{\"%s\", \"%s\", %lld, %lld, %lld, %lld, %lld, %lld, %lld, "
                      "0x%016llxULL},",
                      id.c_str(), status_name(o.status), (long long)o.iterations,
                      (long long)o.cycles, (long long)o.reductions,
                      (long long)o.operator_applies, (long long)o.precond_applies,
                      (long long)comm.reductions(), (long long)comm.reduction_bytes(),
                      (unsigned long long)o.fp.value());
        const Golden* g = find_golden(id);
        if (g == nullptr) {
          ADD_FAILURE() << "no golden row; observed:\n" << row;
          continue;
        }
        const bool same = std::strcmp(g->status, status_name(o.status)) == 0 &&
                          g->iterations == o.iterations && g->cycles == o.cycles &&
                          g->reductions == o.reductions &&
                          g->operator_applies == o.operator_applies &&
                          g->precond_applies == o.precond_applies &&
                          g->comm_reductions == comm.reductions() &&
                          g->comm_bytes == comm.reduction_bytes() && g->hash == o.fp.value();
        EXPECT_TRUE(same) << "golden mismatch; observed:\n" << row;
      }
}

const CsrMatrix<double>& poisson() {
  static const CsrMatrix<double> a = poisson2d_varcoef(10, 10, 100.0, 4, 7);
  return a;
}

const CsrMatrix<cplx>& maxwell() {
  static const CsrMatrix<cplx> a = [] {
    MaxwellConfig cfg;
    cfg.n = 4;
    cfg.wavelengths = 0.9;
    cfg.loss = 0.3;
    return maxwell3d(cfg).matrix;
  }();
  return a;
}

void check_all(Method method) {
  check_method<double>(method, "poisson", poisson());
  check_method<cplx>(method, "maxwell", maxwell());
}

TEST(Golden, BlockGmres) { check_all(Method::BlockGmres); }
TEST(Golden, PseudoBlockGmres) { check_all(Method::PseudoGmres); }
TEST(Golden, GcroDrStrategyA) { check_all(Method::GcroDrA); }
TEST(Golden, GcroDrStrategyB) { check_all(Method::GcroDrB); }
TEST(Golden, GcroDrSameSystem) { check_all(Method::GcroDrSame); }
TEST(Golden, PseudoGcroDr) { check_all(Method::PseudoGcroDr); }

TEST(Golden, TableHasNoStaleRows) {
  // 6 methods x 2 problems x 4 sides x 3 orthos x 2 widths.
  EXPECT_EQ(sizeof(kGolden) / sizeof(kGolden[0]), size_t(6 * 2 * 4 * 3 * 2));
}

}  // namespace
}  // namespace bkr
