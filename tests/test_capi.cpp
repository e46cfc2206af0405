// Tests: the C interface (the paper's "usable from any C/C++ code" claim).
#include <gtest/gtest.h>

#include <complex>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "capi/bkr_c.h"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

// Convert a CsrMatrix<double> into the C arrays.
struct CArrays {
  std::vector<int64_t> rowptr, colind;
  std::vector<double> values;
};

CArrays to_c(const CsrMatrix<double>& a) {
  CArrays out;
  out.rowptr.assign(a.rowptr().begin(), a.rowptr().end());
  out.colind.assign(a.colind().begin(), a.colind().end());
  out.values = a.values();
  return out;
}

TEST(CApi, DefaultsArePopulated) {
  bkr_options opts;
  bkr_options_default(&opts);
  EXPECT_EQ(opts.restart, 30);
  EXPECT_EQ(opts.recycle, 10);
  EXPECT_DOUBLE_EQ(opts.tol, 1e-8);
  EXPECT_EQ(opts.side, BKR_SIDE_RIGHT);
  EXPECT_EQ(opts.no_recovery, 0);
}

TEST(CApi, ResultCarriesStatusTaxonomy) {
  const auto a = poisson2d(8, 8);
  const auto arrays = to_c(a);
  bkr_matrix* mat = bkr_matrix_create(a.rows(), arrays.rowptr.data(), arrays.colind.data(),
                                      arrays.values.data());
  ASSERT_NE(mat, nullptr);
  const auto b = poisson2d_rhs(8, 8, 0.1);
  std::vector<double> x(b.size(), 0.0);
  bkr_options opts;
  bkr_options_default(&opts);
  bkr_result result;
  ASSERT_EQ(bkr_gmres(mat, b.data(), x.data(), &opts, &result), 0);
  EXPECT_EQ(result.converged, 1);
  EXPECT_EQ(result.status, BKR_STATUS_CONVERGED);
  EXPECT_EQ(result.recoveries, 0);
  // Unreachable tolerance with a tiny budget: the refined status says why.
  opts.tol = 1e-15;
  opts.max_iterations = 5;
  std::fill(x.begin(), x.end(), 0.0);
  ASSERT_EQ(bkr_gmres(mat, b.data(), x.data(), &opts, &result), 0);
  EXPECT_EQ(result.converged, 0);
  EXPECT_EQ(result.status, BKR_STATUS_MAX_ITERATIONS);
  // no_recovery is accepted and still solves the healthy system.
  bkr_options_default(&opts);
  opts.no_recovery = 1;
  std::fill(x.begin(), x.end(), 0.0);
  ASSERT_EQ(bkr_gmres(mat, b.data(), x.data(), &opts, &result), 0);
  EXPECT_EQ(result.status, BKR_STATUS_CONVERGED);
  bkr_matrix_destroy(mat);
}

TEST(CApi, RejectsInvalidMatrices) {
  EXPECT_EQ(bkr_matrix_create(0, nullptr, nullptr, nullptr), nullptr);
  const int64_t rowptr[3] = {0, 1, 2};
  const int64_t bad_col[2] = {0, 5};  // out of range
  const double vals[2] = {1.0, 1.0};
  EXPECT_EQ(bkr_matrix_create(2, rowptr, bad_col, vals), nullptr);
}

TEST(CApi, RejectsInvalidOptions) {
  // Option values no solver can run are invalid input (return 1 / NULL),
  // never an exception across the C boundary or a silent no-op solve.
  const auto a = poisson2d(6, 6);
  const auto arrays = to_c(a);
  bkr_matrix* m = bkr_matrix_create(a.rows(), arrays.rowptr.data(), arrays.colind.data(),
                                    arrays.values.data());
  ASSERT_NE(m, nullptr);
  const std::vector<std::complex<double>> zvals(arrays.values.begin(), arrays.values.end());
  bkr_zmatrix* zm = bkr_zmatrix_create(a.rows(), arrays.rowptr.data(), arrays.colind.data(),
                                       reinterpret_cast<const double*>(zvals.data()));
  ASSERT_NE(zm, nullptr);
  const std::vector<double> b(size_t(a.rows()), 1.0);
  std::vector<double> x(b.size(), 0.0);
  const std::vector<std::complex<double>> zb(b.size(), 1.0);
  std::vector<std::complex<double>> zx(b.size());
  auto zgmres = [&](const bkr_options* o, bkr_result* r) {
    return bkr_zgmres(zm, reinterpret_cast<const double*>(zb.data()),
                      reinterpret_cast<double*>(zx.data()), o, r);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bkr_result result{};
  bkr_options opts;
  for (const int64_t restart : {int64_t(-3), int64_t(0)}) {
    bkr_options_default(&opts);
    opts.restart = restart;
    EXPECT_EQ(bkr_gmres(m, b.data(), x.data(), &opts, &result), 1) << restart;
    EXPECT_EQ(zgmres(&opts, &result), 1) << restart;
    EXPECT_EQ(bkr_gcrodr_create(&opts), nullptr) << restart;
    EXPECT_EQ(bkr_zgcrodr_create(&opts), nullptr) << restart;
  }
  bkr_options_default(&opts);
  opts.max_iterations = -1;
  EXPECT_EQ(bkr_gmres(m, b.data(), x.data(), &opts, &result), 1);
  for (const double tol : {-1.0, nan}) {
    bkr_options_default(&opts);
    opts.tol = tol;
    EXPECT_EQ(bkr_gmres(m, b.data(), x.data(), &opts, &result), 1) << tol;
    EXPECT_EQ(bkr_session_create(m, &opts, nullptr), nullptr) << tol;
  }
  // The recycling methods need restart >= 2 (k in [1, restart)); the
  // others run with restart 1.
  bkr_options_default(&opts);
  opts.restart = 1;
  EXPECT_EQ(bkr_gcrodr_create(&opts), nullptr);
  EXPECT_EQ(bkr_zgcrodr_create(&opts), nullptr);
  for (const bkr_method method : {BKR_METHOD_GCRODR, BKR_METHOD_PSEUDO_GCRODR}) {
    opts.method = method;
    EXPECT_EQ(bkr_session_create(m, &opts, nullptr), nullptr) << method;
    EXPECT_EQ(bkr_zsession_create(zm, &opts, nullptr), nullptr) << method;
  }
  opts.method = BKR_METHOD_GMRES;
  bkr_session* s = bkr_session_create(m, &opts, nullptr);
  EXPECT_NE(s, nullptr);
  bkr_session_destroy(s);
  EXPECT_EQ(bkr_gmres(m, b.data(), x.data(), &opts, &result), 0);
  // tol == 0 is the fixed-iteration mode: valid, it runs the budget.
  bkr_options_default(&opts);
  opts.tol = 0.0;
  opts.max_iterations = 3;
  std::fill(x.begin(), x.end(), 0.0);
  ASSERT_EQ(bkr_gmres(m, b.data(), x.data(), &opts, &result), 0);
  EXPECT_EQ(result.iterations, 3);
  EXPECT_EQ(result.status, BKR_STATUS_MAX_ITERATIONS);
  bkr_zmatrix_destroy(zm);
  bkr_matrix_destroy(m);
}

TEST(CApi, GmresSolvesPoisson) {
  const auto a = poisson2d(12, 12);
  const auto arrays = to_c(a);
  bkr_matrix* m =
      bkr_matrix_create(a.rows(), arrays.rowptr.data(), arrays.colind.data(), arrays.values.data());
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(bkr_matrix_rows(m), a.rows());
  const auto b = poisson2d_rhs(12, 12, 0.1);
  std::vector<double> x(b.size(), 0.0);
  bkr_options opts;
  bkr_options_default(&opts);
  opts.restart = 60;
  bkr_result result{};
  ASSERT_EQ(bkr_gmres(m, b.data(), x.data(), &opts, &result), 0);
  EXPECT_EQ(result.converged, 1);
  EXPECT_GT(result.iterations, 5);
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-7);
  bkr_matrix_destroy(m);
}

TEST(CApi, GcroDrSequenceRecycles) {
  const auto a = poisson2d(16, 16);
  const auto arrays = to_c(a);
  bkr_matrix* m =
      bkr_matrix_create(a.rows(), arrays.rowptr.data(), arrays.colind.data(), arrays.values.data());
  ASSERT_NE(m, nullptr);
  bkr_options opts;
  bkr_options_default(&opts);
  opts.restart = 25;
  opts.recycle = 8;
  opts.same_system = 1;
  bkr_gcrodr* solver = bkr_gcrodr_create(&opts);
  ASSERT_NE(solver, nullptr);
  std::vector<int64_t> iters;
  for (const double nu : kPoissonNus) {
    const auto b = poisson2d_rhs(16, 16, nu);
    std::vector<double> x(b.size(), 0.0);
    bkr_result result{};
    ASSERT_EQ(bkr_gcrodr_solve(solver, m, b.data(), x.data(), /*new_matrix=*/0, &result), 0);
    EXPECT_EQ(result.converged, 1);
    EXPECT_LT(testing::relative_residual(a, x, b), 1e-7);
    iters.push_back(result.iterations);
  }
  EXPECT_LT(iters[1], iters[0]);  // recycling across the C boundary
  bkr_gcrodr_destroy(solver);
  bkr_matrix_destroy(m);
}

TEST(CApi, ComplexGmresSolvesMaxwell) {
  MaxwellConfig cfg;
  cfg.n = 5;
  cfg.wavelengths = 0.8;
  cfg.loss = 0.5;
  const auto prob = maxwell3d(cfg);
  const auto& a = prob.matrix;
  std::vector<int64_t> rowptr(a.rowptr().begin(), a.rowptr().end());
  std::vector<int64_t> colind(a.colind().begin(), a.colind().end());
  // std::complex<double> is layout-compatible with interleaved doubles.
  const auto* values = reinterpret_cast<const double*>(a.values().data());
  bkr_zmatrix* m = bkr_zmatrix_create(a.rows(), rowptr.data(), colind.data(), values);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(bkr_zmatrix_rows(m), a.rows());
  const auto b = antenna_rhs(prob, 0, 4);
  std::vector<std::complex<double>> x(b.size(), std::complex<double>(0));
  bkr_options opts;
  bkr_options_default(&opts);
  opts.restart = 200;
  opts.max_iterations = 2000;
  bkr_result result{};
  ASSERT_EQ(bkr_zgmres(m, reinterpret_cast<const double*>(b.data()),
                       reinterpret_cast<double*>(x.data()), &opts, &result),
            0);
  EXPECT_EQ(result.converged, 1);
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-6);
  bkr_zmatrix_destroy(m);
}

TEST(CApi, TraceAttachesAndExports) {
  const auto a = poisson2d(12, 12);
  const auto arrays = to_c(a);
  bkr_matrix* m =
      bkr_matrix_create(a.rows(), arrays.rowptr.data(), arrays.colind.data(), arrays.values.data());
  ASSERT_NE(m, nullptr);
  bkr_trace* trace = bkr_trace_create();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(bkr_trace_solve_count(trace), 0);
  bkr_options opts;
  bkr_options_default(&opts);
  opts.restart = 60;
  opts.trace = trace;
  const auto b = poisson2d_rhs(12, 12, 0.1);
  std::vector<double> x(b.size(), 0.0);
  bkr_result result{};
  ASSERT_EQ(bkr_gmres(m, b.data(), x.data(), &opts, &result), 0);
  EXPECT_EQ(result.converged, 1);
  EXPECT_EQ(bkr_trace_solve_count(trace), 1);
  // The accounting contract is visible through the C surface.
  EXPECT_EQ(bkr_trace_phase_count(trace, BKR_PHASE_REDUCTION), result.reductions);
  EXPECT_EQ(bkr_trace_phase_count(trace, BKR_PHASE_SPMM), result.operator_applies);
  EXPECT_EQ(bkr_trace_phase_count(trace, BKR_PHASE_PRECOND), result.precond_applies);
  EXPECT_GE(bkr_trace_phase_seconds(trace, BKR_PHASE_SPMM), 0.0);
  // Out-of-range phases answer zero instead of reading out of bounds.
  EXPECT_EQ(bkr_trace_phase_count(trace, static_cast<bkr_phase>(99)), 0);
  const char* json_path = "bkr_capi_trace_test.json";
  EXPECT_EQ(bkr_trace_write_json(trace, json_path), 0);
  std::ifstream f(json_path);
  std::string doc((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"schema\":\"bkr-trace-1\""), std::string::npos);
  std::remove(json_path);
  bkr_trace_clear(trace);
  EXPECT_EQ(bkr_trace_solve_count(trace), 0);
  // Null trace handles are tolerated everywhere.
  EXPECT_EQ(bkr_trace_solve_count(nullptr), 0);
  EXPECT_NE(bkr_trace_write_json(nullptr, json_path), 0);
  bkr_trace_destroy(nullptr);
  bkr_trace_destroy(trace);
  bkr_matrix_destroy(m);
}

TEST(CApi, NullArgumentsFailGracefully) {
  bkr_result result{};
  EXPECT_NE(bkr_gmres(nullptr, nullptr, nullptr, nullptr, &result), 0);
  EXPECT_NE(bkr_gcrodr_solve(nullptr, nullptr, nullptr, nullptr, 0, &result), 0);
  EXPECT_NE(bkr_session_solve(nullptr, nullptr, nullptr, 1, &result), 0);
  EXPECT_EQ(bkr_session_create(nullptr, nullptr, nullptr), nullptr);
  bkr_matrix_destroy(nullptr);   // must be no-ops
  bkr_gcrodr_destroy(nullptr);
  bkr_zmatrix_destroy(nullptr);
  bkr_zgcrodr_destroy(nullptr);
  bkr_session_destroy(nullptr);
  bkr_zsession_destroy(nullptr);
  bkr_cache_destroy(nullptr);
  bkr_cache_clear(nullptr);
  EXPECT_EQ(bkr_cache_hits(nullptr), 0);
  EXPECT_EQ(bkr_session_solves(nullptr), 0);
  EXPECT_EQ(bkr_session_warm_started(nullptr), 0);
  EXPECT_NE(bkr_cache_save(nullptr, "x"), 0);
  EXPECT_NE(bkr_cache_load(nullptr, "x"), 0);
}

TEST(CApi, SessionDefaultsAndMethodField) {
  bkr_options opts;
  bkr_options_default(&opts);
  EXPECT_EQ(opts.method, BKR_METHOD_GMRES);
  // An out-of-range method is rejected at create, not at solve.
  const auto a = poisson2d(6, 6);
  const auto arrays = to_c(a);
  bkr_matrix* m = bkr_matrix_create(a.rows(), arrays.rowptr.data(), arrays.colind.data(),
                                    arrays.values.data());
  ASSERT_NE(m, nullptr);
  opts.method = static_cast<bkr_method>(99);
  EXPECT_EQ(bkr_session_create(m, &opts, nullptr), nullptr);
  bkr_matrix_destroy(m);
}

TEST(CApi, SessionWarmStartsThroughCache) {
  // The session service loop over the C boundary: a cold session
  // populates the shared cache, a fresh session over the same matrix
  // warm-starts from it and converges in fewer first-solve iterations.
  const auto a = poisson2d(16, 16);
  const auto arrays = to_c(a);
  bkr_matrix* m = bkr_matrix_create(a.rows(), arrays.rowptr.data(), arrays.colind.data(),
                                    arrays.values.data());
  ASSERT_NE(m, nullptr);
  bkr_options opts;
  bkr_options_default(&opts);
  opts.method = BKR_METHOD_GCRODR;
  opts.restart = 25;
  opts.recycle = 8;
  bkr_cache* cache = bkr_cache_create(0);
  ASSERT_NE(cache, nullptr);

  auto run_sequence = [&](int64_t* first_iters, int* warm) {
    bkr_session* session = bkr_session_create(m, &opts, cache);
    ASSERT_NE(session, nullptr);
    *warm = bkr_session_warm_started(session);
    for (size_t s = 0; s < 4; ++s) {
      const auto b = poisson2d_rhs(16, 16, kPoissonNus[s]);
      std::vector<double> x(b.size(), 0.0);
      bkr_result result{};
      ASSERT_EQ(bkr_session_solve(session, b.data(), x.data(), 1, &result), 0);
      EXPECT_EQ(result.converged, 1);
      EXPECT_EQ(result.warm_start, *warm);
      EXPECT_LT(testing::relative_residual(a, x, b), 1e-7);
      if (s == 0) *first_iters = result.iterations;
    }
    EXPECT_EQ(bkr_session_solves(session), 4);
    bkr_session_destroy(session);  // deposits the final space
  };

  int64_t cold_first = 0, warm_first = 0;
  int warm = 1;
  run_sequence(&cold_first, &warm);
  EXPECT_EQ(warm, 0);
  EXPECT_EQ(bkr_cache_entries(cache), 1);
  EXPECT_GT(bkr_cache_bytes(cache), 0);
  run_sequence(&warm_first, &warm);
  EXPECT_EQ(warm, 1);
  EXPECT_LT(warm_first, cold_first);
  EXPECT_GE(bkr_cache_hits(cache), 1);
  EXPECT_GE(bkr_cache_misses(cache), 1);

  // The result struct mirrors the cache counters after a solve.
  bkr_session* session = bkr_session_create(m, &opts, cache);
  const auto b = poisson2d_rhs(16, 16, 0.1);
  std::vector<double> x(b.size(), 0.0);
  bkr_result result{};
  ASSERT_EQ(bkr_session_solve(session, b.data(), x.data(), 1, &result), 0);
  EXPECT_EQ(result.cache_hits, bkr_cache_hits(cache));
  EXPECT_EQ(result.cache_misses, bkr_cache_misses(cache));
  EXPECT_EQ(result.cache_bytes, bkr_cache_bytes(cache));
  bkr_session_destroy(session);
  bkr_cache_destroy(cache);
  bkr_matrix_destroy(m);
}

TEST(CApi, SessionMultiRhsAndNonRecyclingMethods) {
  const auto a = poisson2d(10, 10);
  const index_t n = a.rows();
  const auto arrays = to_c(a);
  bkr_matrix* m = bkr_matrix_create(n, arrays.rowptr.data(), arrays.colind.data(),
                                    arrays.values.data());
  ASSERT_NE(m, nullptr);
  for (const bkr_method method : {BKR_METHOD_CG, BKR_METHOD_BLOCK_CG, BKR_METHOD_GMRES,
                                  BKR_METHOD_PSEUDO_GMRES, BKR_METHOD_LGMRES}) {
    bkr_options opts;
    bkr_options_default(&opts);
    opts.method = method;
    opts.restart = 40;
    bkr_session* session = bkr_session_create(m, &opts, nullptr);
    ASSERT_NE(session, nullptr) << "method " << method;
    const int64_t nrhs = (method == BKR_METHOD_CG || method == BKR_METHOD_LGMRES) ? 1 : 3;
    std::vector<double> b(size_t(n * nrhs)), x(size_t(n * nrhs), 0.0);
    const auto col = poisson2d_rhs(10, 10, 0.1);
    for (int64_t c = 0; c < nrhs; ++c)
      for (index_t i = 0; i < n; ++i)
        b[size_t(c * n + i)] =
            col[size_t(i)] + 0.05 * double(c) * std::sin(double(i + 1) * double(c + 1));
    bkr_result result{};
    ASSERT_EQ(bkr_session_solve(session, b.data(), x.data(), nrhs, &result), 0)
        << "method " << method;
    EXPECT_EQ(result.converged, 1) << "method " << method;
    EXPECT_EQ(result.warm_start, 0);
    EXPECT_EQ(bkr_session_flush(session), 0);  // nothing to deposit
    bkr_session_destroy(session);
  }
  bkr_matrix_destroy(m);
}

TEST(CApi, ZSessionSolvesComplexSequence) {
  MaxwellConfig cfg;
  cfg.n = 5;
  cfg.wavelengths = 0.8;
  cfg.loss = 0.5;
  const auto prob = maxwell3d(cfg);
  const auto& a = prob.matrix;
  std::vector<int64_t> rowptr(a.rowptr().begin(), a.rowptr().end());
  std::vector<int64_t> colind(a.colind().begin(), a.colind().end());
  bkr_zmatrix* m = bkr_zmatrix_create(a.rows(), rowptr.data(), colind.data(),
                                      reinterpret_cast<const double*>(a.values().data()));
  ASSERT_NE(m, nullptr);
  bkr_options opts;
  bkr_options_default(&opts);
  opts.method = BKR_METHOD_GCRODR;
  opts.restart = 60;
  opts.recycle = 10;
  opts.max_iterations = 5000;
  opts.tol = 1e-7;
  bkr_cache* cache = bkr_cache_create(0);
  bkr_zsession* session = bkr_zsession_create(m, &opts, cache);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(bkr_zsession_warm_started(session), 0);
  for (index_t s = 0; s < 2; ++s) {
    const auto b = antenna_rhs(prob, s, 4);
    std::vector<std::complex<double>> x(b.size(), std::complex<double>(0));
    bkr_result result{};
    ASSERT_EQ(bkr_zsession_solve(session, reinterpret_cast<const double*>(b.data()),
                                 reinterpret_cast<double*>(x.data()), 1, &result),
              0);
    EXPECT_EQ(result.converged, 1);
    EXPECT_LT(testing::relative_residual(a, x, b), 1e-6);
  }
  EXPECT_EQ(bkr_zsession_solves(session), 2);
  EXPECT_EQ(bkr_zsession_flush(session), 1);
  bkr_zsession_destroy(session);
  // The complex space landed under the complex scalar key.
  EXPECT_EQ(bkr_cache_entries(cache), 1);
  bkr_zsession* warm = bkr_zsession_create(m, &opts, cache);
  EXPECT_EQ(bkr_zsession_warm_started(warm), 1);
  bkr_zsession_destroy(warm);
  bkr_cache_destroy(cache);
  bkr_zmatrix_destroy(m);
}

}  // namespace
}  // namespace bkr
