#include "capi/bkr_c.h"

#include <atomic>
#include <chrono>
#include <complex>
#include <cstring>
#include <vector>

#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/recycle_cache.hpp"
#include "core/session.hpp"
#include "obs/trace.hpp"
#include "precond/coarse_space.hpp"
#include "sparse/csr.hpp"

/* Defined before the helpers so to_cpp can reach through it. */
struct bkr_trace {
  bkr::obs::SolverTrace t;
};

struct bkr_cancel_token {
  std::atomic<bool> flag{false};
};

namespace {

using bkr::CsrMatrix;
using bkr::CsrOperator;
using bkr::GcroDr;
using bkr::index_t;
using bkr::MatrixView;
using bkr::RecycleCache;
using bkr::SessionConfig;
using bkr::SessionMethod;
using bkr::SolveStats;
using bkr::SolverOptions;
using bkr::SolverSession;
using cd = std::complex<double>;

SolverOptions to_cpp(const bkr_options* opts) {
  SolverOptions o;
  if (opts == nullptr) return o;
  o.restart = opts->restart;
  o.recycle = opts->recycle;
  o.tol = opts->tol;
  o.max_iterations = opts->max_iterations;
  switch (opts->side) {
    case BKR_SIDE_NONE: o.side = bkr::PrecondSide::None; break;
    case BKR_SIDE_LEFT: o.side = bkr::PrecondSide::Left; break;
    case BKR_SIDE_RIGHT: o.side = bkr::PrecondSide::Right; break;
    case BKR_SIDE_FLEXIBLE: o.side = bkr::PrecondSide::Flexible; break;
  }
  o.strategy =
      (opts->strategy == BKR_STRATEGY_A) ? bkr::RecycleStrategy::A : bkr::RecycleStrategy::B;
  o.same_system = opts->same_system != 0;
  if (opts->shards > 0) o.shards = opts->shards;
  o.record_history = false;
  if (opts->trace != nullptr) o.trace = &opts->trace->t;
  if (opts->no_recovery != 0) {
    o.recovery.block_recovery = false;
    o.recovery.shrink_recycle = false;
    o.recovery.early_restart = false;
  }
  if (opts->cancel != nullptr) o.cancel = &opts->cancel->flag;
  /* deadline_ms counts from the moment the options are bound; < 0 keeps
   * the epoch sentinel (no deadline, no clock reads on the hot path). */
  if (opts->deadline_ms >= 0)
    o.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(opts->deadline_ms);
  return o;
}

/* Option values no solver can run: a Krylov space of fewer than one
 * block (two for the recycling methods, which keep k in [1, restart)), a
 * negative budget, or a negative or NaN tolerance. tol == 0 is legal: it
 * runs exactly max_iterations (the smoother mode). Null options are the
 * defaults. */
bool valid_options(const bkr_options* opts, bool recycles) {
  if (opts == nullptr) return true;
  return opts->restart >= (recycles ? 2 : 1) && opts->max_iterations >= 0 && opts->tol >= 0;
}

/* The C API passes complex arrays as interleaved doubles. */
template <class T>
const T* scalars(const double* p) {
  return reinterpret_cast<const T*>(p);
}
template <class T>
T* scalars(double* p) {
  return reinterpret_cast<T*>(p);
}

/* Deadline re-arming shared by the session setters. */
std::chrono::steady_clock::time_point deadline_from_ms(int64_t deadline_ms) {
  if (deadline_ms < 0) return std::chrono::steady_clock::time_point{};
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
}

void to_c(const SolveStats& st, bkr_result* result) {
  if (result == nullptr) return;
  result->converged = st.converged ? 1 : 0;
  result->iterations = st.iterations;
  result->cycles = st.cycles;
  result->reductions = st.reductions;
  result->operator_applies = st.operator_applies;
  result->precond_applies = st.precond_applies;
  result->seconds = st.seconds;
  result->status = static_cast<bkr_status>(st.status);
  result->recoveries = st.recoveries;
  result->cache_hits = 0;
  result->cache_misses = 0;
  result->cache_evictions = 0;
  result->cache_bytes = 0;
  result->warm_start = 0;
}

/* Overlay the attached cache's counters and the session warm-start flag
 * onto a result already filled by to_c. */
void fill_cache_stats(const RecycleCache* cache, bool warm, bkr_result* result) {
  if (result == nullptr) return;
  result->warm_start = warm ? 1 : 0;
  if (cache == nullptr) return;
  const auto c = cache->counters();
  result->cache_hits = c.hits;
  result->cache_misses = c.misses;
  result->cache_evictions = c.evictions;
  result->cache_bytes = int64_t(c.bytes);
}

/* C callers can store any integer in the enum-typed options field, and
 * loading an out-of-range value through the enum lvalue is UB; read the raw
 * bytes so a bad value is rejected instead of tripping the sanitizer. */
bool to_session_method(const bkr_method* m, SessionMethod* out) {
  static_assert(sizeof(bkr_method) == sizeof(int), "bkr_method must be int-sized");
  int v = 0;
  std::memcpy(&v, m, sizeof v);
  if (v < 0 || v >= bkr::kSessionMethodCount) return false;
  *out = static_cast<SessionMethod>(v);
  return true;
}

/* A hard failure escaped the solver (throw_on_failure, or a breakdown that
 * crossed the persistent-handle boundary): report its specific status. */
int hard_failure(const bkr::BreakdownError& e, bkr_result* result) {
  if (result != nullptr) {
    result->converged = 0;
    result->status = static_cast<bkr_status>(e.status());
  }
  return 3;
}

template <class T>
CsrMatrix<T>* make_matrix(int64_t n, const int64_t* rowptr, const int64_t* colind,
                          const T* values) {
  if (n <= 0 || rowptr == nullptr || colind == nullptr || values == nullptr) return nullptr;
  const int64_t nnz = rowptr[n];
  if (nnz < 0 || rowptr[0] != 0) return nullptr;
  for (int64_t i = 0; i < n; ++i)
    if (rowptr[i] > rowptr[i + 1]) return nullptr;
  for (int64_t l = 0; l < nnz; ++l)
    if (colind[l] < 0 || colind[l] >= n) return nullptr;
  return new CsrMatrix<T>(n, n, std::vector<index_t>(rowptr, rowptr + n + 1),
                          std::vector<index_t>(colind, colind + nnz),
                          std::vector<T>(values, values + nnz));
}

}  // namespace

struct bkr_matrix {
  CsrMatrix<double>* m;
};
struct bkr_zmatrix {
  CsrMatrix<cd>* m;
};
struct bkr_gcrodr {
  GcroDr<double>* s;
};
struct bkr_zgcrodr {
  GcroDr<cd>* s;
};
struct bkr_cache {
  explicit bkr_cache(size_t budget) : c(budget) {}
  RecycleCache c;
};
struct bkr_session {
  SolverSession<double>* s;
  RecycleCache* cache;
  /* Owned subdomain-deflation preconditioner (bkr_options.coarse > 0). */
  bkr::TwoLevelPreconditioner<double>* coarse = nullptr;
};
struct bkr_zsession {
  SolverSession<cd>* s;
  RecycleCache* cache;
  bkr::TwoLevelPreconditioner<cd>* coarse = nullptr;
};

/* One body per entry point; the real and complex twins below call these
 * with T = double and T = cd. */
namespace {

/* Run one solve and map its outcome onto the solve return codes: no
 * exception crosses the extern "C" boundary. */
template <class Solve>
int guarded(bkr_result* result, Solve&& solve) {
  try {
    to_c(solve(), result);
  } catch (const bkr::BreakdownError& e) {
    return hard_failure(e, result);
  } catch (...) {
    return 2;
  }
  return 0;
}

template <class T, class Matrix>
int gmres_solve(const Matrix* a, const double* b, double* x, const bkr_options* opts,
                bkr_result* result) {
  if (a == nullptr || b == nullptr || x == nullptr || !valid_options(opts, false)) return 1;
  const index_t n = a->m->rows();
  CsrOperator<T> op(*a->m);
  return guarded(result, [&] {
    return bkr::block_gmres<T>(op, nullptr, MatrixView<const T>(scalars<T>(b), n, 1, n),
                               MatrixView<T>(scalars<T>(x), n, 1, n), to_cpp(opts));
  });
}

template <class Handle, class T>
Handle* gcrodr_create(const bkr_options* opts) {
  if (!valid_options(opts, true)) return nullptr;
  auto o = to_cpp(opts);
  if (o.recycle <= 0) o.recycle = 10;
  return new Handle{new GcroDr<T>(o)};  // bkr-lint: allow(raw-new-delete)
}

template <class T, class Solver, class Matrix>
int gcrodr_solve(Solver* solver, const Matrix* a, const double* b, double* x, int new_matrix,
                 bkr_result* result) {
  if (solver == nullptr || a == nullptr || b == nullptr || x == nullptr) return 1;
  const index_t n = a->m->rows();
  CsrOperator<T> op(*a->m);
  return guarded(result, [&] {
    return solver->s->solve(op, nullptr, MatrixView<const T>(scalars<T>(b), n, 1, n),
                            MatrixView<T>(scalars<T>(x), n, 1, n), nullptr, new_matrix != 0);
  });
}

template <class Handle, class T, class Matrix>
Handle* session_create(const Matrix* a, const bkr_options* opts, bkr_cache* cache) {
  if (a == nullptr) return nullptr;
  SessionMethod method = SessionMethod::BlockGmres;
  if (opts != nullptr && !to_session_method(&opts->method, &method)) return nullptr;
  const bool recycles = bkr::session_method_recycles(method);
  if (!valid_options(opts, recycles)) return nullptr;
  SessionConfig cfg;
  cfg.method = method;
  cfg.options = to_cpp(opts);
  if (recycles && cfg.options.recycle <= 0) cfg.options.recycle = 10;
  cfg.cache = cache == nullptr ? nullptr : &cache->c;
  bkr::TwoLevelPreconditioner<T>* coarse = nullptr;
  if (opts != nullptr && opts->coarse > 0) {
    bkr::CoarseSpaceOptions copts;
    copts.subdomains = index_t(opts->coarse);
    if (opts->trace != nullptr) copts.trace = &opts->trace->t;
    coarse = new bkr::TwoLevelPreconditioner<T>(*a->m, nullptr, copts);  // bkr-lint: allow(raw-new-delete)
  }
  auto* s = new SolverSession<T>(*a->m, coarse, cfg);  // bkr-lint: allow(raw-new-delete)
  return new Handle{s, cfg.cache, coarse};  // bkr-lint: allow(raw-new-delete)
}

template <class T, class Session>
int session_solve(Session* session, const double* b, double* x, int64_t nrhs,
                  bkr_result* result) {
  if (session == nullptr || b == nullptr || x == nullptr || nrhs <= 0) return 1;
  const index_t n = session->s->rows();
  const int rc = guarded(result, [&] {
    return session->s->solve(MatrixView<const T>(scalars<T>(b), n, nrhs, n),
                             MatrixView<T>(scalars<T>(x), n, nrhs, n));
  });
  if (rc == 0) fill_cache_stats(session->cache, session->s->warm_started(), result);
  return rc;
}

template <class Session>
int session_flush(Session* session) {
  return (session != nullptr && session->s->flush()) ? 1 : 0;
}

template <class Session>
int64_t session_solves(const Session* session) {
  return session == nullptr ? 0 : int64_t(session->s->solves());
}

template <class Session>
int session_warm_started(const Session* session) {
  return (session != nullptr && session->s->warm_started()) ? 1 : 0;
}

template <class Session>
void session_set_cancellation(Session* session, bkr_cancel_token* token, int64_t deadline_ms) {
  if (session == nullptr) return;
  session->s->set_cancellation(token == nullptr ? nullptr : &token->flag,
                               deadline_from_ms(deadline_ms));
}

}  // namespace

extern "C" {

void bkr_options_default(bkr_options* opts) {
  if (opts == nullptr) return;
  opts->restart = 30;
  opts->recycle = 10;
  opts->tol = 1e-8;
  opts->max_iterations = 10000;
  opts->side = BKR_SIDE_RIGHT;
  opts->strategy = BKR_STRATEGY_B;
  opts->same_system = 0;
  opts->trace = nullptr;
  opts->no_recovery = 0;
  opts->method = BKR_METHOD_GMRES;
  opts->shards = 0;
  opts->coarse = 0;
  opts->deadline_ms = -1;
  opts->cancel = nullptr;
}

/* --- cooperative cancellation ----------------------------------------- */

bkr_cancel_token* bkr_cancel_token_create(void) {
  return new bkr_cancel_token{};  // bkr-lint: allow(raw-new-delete)
}

void bkr_cancel_token_destroy(bkr_cancel_token* token) {
  delete token;  // bkr-lint: allow(raw-new-delete)
}

void bkr_cancel_token_cancel(bkr_cancel_token* token) {
  if (token != nullptr) token->flag.store(true, std::memory_order_relaxed);
}

void bkr_cancel_token_reset(bkr_cancel_token* token) {
  if (token != nullptr) token->flag.store(false, std::memory_order_relaxed);
}

int bkr_cancel_token_cancelled(const bkr_cancel_token* token) {
  return (token != nullptr && token->flag.load(std::memory_order_relaxed)) ? 1 : 0;
}

/* --- recycle-space cache ---------------------------------------------- */

bkr_cache* bkr_cache_create(size_t byte_budget) {
  return new bkr_cache(byte_budget == 0 ? RecycleCache::kDefaultBudget  // bkr-lint: allow(raw-new-delete)
                                        : byte_budget);
}

void bkr_cache_destroy(bkr_cache* cache) { delete cache; }  // bkr-lint: allow(raw-new-delete)

void bkr_cache_clear(bkr_cache* cache) {
  if (cache != nullptr) cache->c.clear();
}

int64_t bkr_cache_hits(const bkr_cache* cache) {
  return cache == nullptr ? 0 : cache->c.counters().hits;
}

int64_t bkr_cache_misses(const bkr_cache* cache) {
  return cache == nullptr ? 0 : cache->c.counters().misses;
}

int64_t bkr_cache_evictions(const bkr_cache* cache) {
  return cache == nullptr ? 0 : cache->c.counters().evictions;
}

int64_t bkr_cache_entries(const bkr_cache* cache) {
  return cache == nullptr ? 0 : int64_t(cache->c.counters().entries);
}

int64_t bkr_cache_bytes(const bkr_cache* cache) {
  return cache == nullptr ? 0 : int64_t(cache->c.counters().bytes);
}

int bkr_cache_save(const bkr_cache* cache, const char* path) {
  if (cache == nullptr || path == nullptr) return 1;
  return cache->c.save(std::string(path)) ? 0 : 1;
}

int bkr_cache_load(bkr_cache* cache, const char* path) {
  if (cache == nullptr || path == nullptr) return 1;
  return cache->c.load(std::string(path)) ? 0 : 1;
}

bkr_trace* bkr_trace_create(void) { return new bkr_trace{}; }

void bkr_trace_destroy(bkr_trace* trace) { delete trace; }

void bkr_trace_clear(bkr_trace* trace) {
  if (trace != nullptr) trace->t.clear();
}

int64_t bkr_trace_solve_count(const bkr_trace* trace) {
  return trace == nullptr ? 0 : int64_t(trace->t.solves().size());
}

double bkr_trace_phase_seconds(const bkr_trace* trace, bkr_phase phase) {
  if (trace == nullptr || phase < 0 || phase >= bkr::obs::kPhaseCount) return 0;
  return trace->t.phase_seconds(static_cast<bkr::obs::Phase>(phase));
}

int64_t bkr_trace_phase_count(const bkr_trace* trace, bkr_phase phase) {
  if (trace == nullptr || phase < 0 || phase >= bkr::obs::kPhaseCount) return 0;
  return trace->t.phase_count(static_cast<bkr::obs::Phase>(phase));
}

int bkr_trace_write_json(const bkr_trace* trace, const char* path) {
  if (trace == nullptr || path == nullptr) return 1;
  return trace->t.write_json(std::string(path)) ? 0 : 1;
}

int bkr_trace_write_csv(const bkr_trace* trace, const char* path) {
  if (trace == nullptr || path == nullptr) return 1;
  return trace->t.write_csv(std::string(path)) ? 0 : 1;
}

bkr_matrix* bkr_matrix_create(int64_t n, const int64_t* rowptr, const int64_t* colind,
                              const double* values) {
  auto* m = make_matrix<double>(n, rowptr, colind, values);
  return m == nullptr ? nullptr : new bkr_matrix{m};
}

void bkr_matrix_destroy(bkr_matrix* a) {
  if (a == nullptr) return;
  delete a->m;
  delete a;
}

int64_t bkr_matrix_rows(const bkr_matrix* a) { return a == nullptr ? 0 : a->m->rows(); }

int bkr_gmres(const bkr_matrix* a, const double* b, double* x, const bkr_options* opts,
              bkr_result* result) {
  return gmres_solve<double>(a, b, x, opts, result);
}

bkr_gcrodr* bkr_gcrodr_create(const bkr_options* opts) {
  return gcrodr_create<bkr_gcrodr, double>(opts);
}

void bkr_gcrodr_destroy(bkr_gcrodr* solver) {
  if (solver == nullptr) return;
  delete solver->s;
  delete solver;
}

int bkr_gcrodr_solve(bkr_gcrodr* solver, const bkr_matrix* a, const double* b, double* x,
                     int new_matrix, bkr_result* result) {
  return gcrodr_solve<double>(solver, a, b, x, new_matrix, result);
}

bkr_session* bkr_session_create(const bkr_matrix* a, const bkr_options* opts, bkr_cache* cache) {
  return session_create<bkr_session, double>(a, opts, cache);
}

void bkr_session_destroy(bkr_session* session) {
  if (session == nullptr) return;
  delete session->s;       // bkr-lint: allow(raw-new-delete)
  delete session->coarse;  // bkr-lint: allow(raw-new-delete)
  delete session;          // bkr-lint: allow(raw-new-delete)
}

int bkr_session_solve(bkr_session* session, const double* b, double* x, int64_t nrhs,
                      bkr_result* result) {
  return session_solve<double>(session, b, x, nrhs, result);
}

int bkr_session_flush(bkr_session* session) { return session_flush(session); }

int64_t bkr_session_solves(const bkr_session* session) { return session_solves(session); }

int bkr_session_warm_started(const bkr_session* session) {
  return session_warm_started(session);
}

void bkr_session_set_cancellation(bkr_session* session, bkr_cancel_token* token,
                                  int64_t deadline_ms) {
  session_set_cancellation(session, token, deadline_ms);
}

bkr_zmatrix* bkr_zmatrix_create(int64_t n, const int64_t* rowptr, const int64_t* colind,
                                const double* values_interleaved) {
  auto* m = make_matrix<cd>(n, rowptr, colind,
                            reinterpret_cast<const cd*>(values_interleaved));
  return m == nullptr ? nullptr : new bkr_zmatrix{m};
}

void bkr_zmatrix_destroy(bkr_zmatrix* a) {
  if (a == nullptr) return;
  delete a->m;
  delete a;
}

int64_t bkr_zmatrix_rows(const bkr_zmatrix* a) { return a == nullptr ? 0 : a->m->rows(); }

int bkr_zgmres(const bkr_zmatrix* a, const double* b_interleaved, double* x_interleaved,
               const bkr_options* opts, bkr_result* result) {
  return gmres_solve<cd>(a, b_interleaved, x_interleaved, opts, result);
}

bkr_zgcrodr* bkr_zgcrodr_create(const bkr_options* opts) {
  return gcrodr_create<bkr_zgcrodr, cd>(opts);
}

void bkr_zgcrodr_destroy(bkr_zgcrodr* solver) {
  if (solver == nullptr) return;
  delete solver->s;
  delete solver;
}

int bkr_zgcrodr_solve(bkr_zgcrodr* solver, const bkr_zmatrix* a, const double* b_interleaved,
                      double* x_interleaved, int new_matrix, bkr_result* result) {
  return gcrodr_solve<cd>(solver, a, b_interleaved, x_interleaved, new_matrix, result);
}

bkr_zsession* bkr_zsession_create(const bkr_zmatrix* a, const bkr_options* opts,
                                  bkr_cache* cache) {
  return session_create<bkr_zsession, cd>(a, opts, cache);
}

void bkr_zsession_destroy(bkr_zsession* session) {
  if (session == nullptr) return;
  delete session->s;       // bkr-lint: allow(raw-new-delete)
  delete session->coarse;  // bkr-lint: allow(raw-new-delete)
  delete session;          // bkr-lint: allow(raw-new-delete)
}

int bkr_zsession_solve(bkr_zsession* session, const double* b_interleaved,
                       double* x_interleaved, int64_t nrhs, bkr_result* result) {
  return session_solve<cd>(session, b_interleaved, x_interleaved, nrhs, result);
}

int bkr_zsession_flush(bkr_zsession* session) { return session_flush(session); }

int64_t bkr_zsession_solves(const bkr_zsession* session) { return session_solves(session); }

int bkr_zsession_warm_started(const bkr_zsession* session) {
  return session_warm_started(session);
}

void bkr_zsession_set_cancellation(bkr_zsession* session, bkr_cancel_token* token,
                                   int64_t deadline_ms) {
  session_set_cancellation(session, token, deadline_ms);
}

}  // extern "C"
