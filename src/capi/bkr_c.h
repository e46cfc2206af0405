/*
 * C interface to the bkrylov solvers.
 *
 * The paper ships its solvers "readily available and usable in any C/C++,
 * Python, or Fortran code" through a C library built from the C++ core
 * (artifact section C: `LIST_COMPILATION=c make lib`). This header is the
 * equivalent surface here: opaque handles around CSR matrices and solver
 * instances, plain-old-data options, and double / double-complex entry
 * points (the complex functions take interleaved re/im pairs, the layout
 * of both C99 `double complex` and C++ `std::complex<double>`).
 */
#ifndef BKR_C_H
#define BKR_C_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct bkr_matrix bkr_matrix;         /* CSR matrix, double */
typedef struct bkr_zmatrix bkr_zmatrix;       /* CSR matrix, double complex */
typedef struct bkr_gcrodr bkr_gcrodr;         /* persistent GCRO-DR solver, double */
typedef struct bkr_zgcrodr bkr_zgcrodr;       /* persistent GCRO-DR solver, complex */
typedef struct bkr_trace bkr_trace;           /* solver telemetry sink (src/obs) */
typedef struct bkr_cache bkr_cache;           /* recycle-space cache (src/core) */
typedef struct bkr_session bkr_session;       /* solver session, double */
typedef struct bkr_zsession bkr_zsession;     /* solver session, double complex */
typedef struct bkr_cancel_token bkr_cancel_token; /* cooperative cancel flag */

typedef enum bkr_side {
  BKR_SIDE_NONE = 0,
  BKR_SIDE_LEFT = 1,
  BKR_SIDE_RIGHT = 2,
  BKR_SIDE_FLEXIBLE = 3,
} bkr_side;

typedef enum bkr_strategy {
  BKR_STRATEGY_A = 0, /* eq. 3a */
  BKR_STRATEGY_B = 1, /* eq. 3b */
} bkr_strategy;

/* Krylov method selector for the session API (mirrors the C++
 * SessionMethod in core/session.hpp). */
typedef enum bkr_method {
  BKR_METHOD_CG = 0,
  BKR_METHOD_BLOCK_CG = 1,
  BKR_METHOD_GMRES = 2,          /* (block) GMRES */
  BKR_METHOD_PSEUDO_GMRES = 3,   /* pseudo-block GMRES */
  BKR_METHOD_LGMRES = 4,
  BKR_METHOD_GCRODR = 5,         /* (block) GCRO-DR */
  BKR_METHOD_PSEUDO_GCRODR = 6,  /* pseudo-block GCRO-DR */
} bkr_method;

/* Termination taxonomy, mirroring the C++ SolveStatus (core/solver.hpp).
 * `converged` in bkr_result stays the primary success flag; the status
 * refines every non-converged exit into a diagnosable cause. */
typedef enum bkr_status {
  BKR_STATUS_CONVERGED = 0,              /* residual target met */
  BKR_STATUS_MAX_ITERATIONS = 1,         /* iteration budget exhausted */
  BKR_STATUS_STAGNATED = 2,              /* no progress possible (null update /
                                          * exhausted space) */
  BKR_STATUS_BREAKDOWN = 3,              /* structural breakdown (singular block
                                          * pivot, rank collapse) */
  BKR_STATUS_NON_FINITE_RESIDUAL = 4,    /* NaN/Inf entered the recurrence */
  BKR_STATUS_PRECONDITIONER_FAILURE = 5, /* preconditioner apply failed */
  BKR_STATUS_EIG_SOLVE_FAILURE = 6,      /* deflation eigensolve failed and
                                          * recovery was disabled */
  BKR_STATUS_FAULTED = 7,                /* external fault (injected or
                                          * operator-side) */
  BKR_STATUS_CANCELLED = 8,              /* bkr_cancel_token observed set at an
                                          * iteration boundary; x holds the
                                          * last consistent partial iterate */
  BKR_STATUS_DEADLINE_EXCEEDED = 9,      /* deadline_ms elapsed before
                                          * convergence */
} bkr_status;

/* Option values no solver can run are invalid input: restart < 1 (< 2
 * for the recycling methods GCRO-DR and pseudo-block GCRO-DR),
 * max_iterations < 0, or a negative or NaN tol. Solves given them return
 * 1 and creates return NULL. tol == 0 is valid: it runs exactly
 * max_iterations. */
typedef struct bkr_options {
  int64_t restart;        /* m  (default 30) */
  int64_t recycle;        /* k  (GCRO-DR only; default 10) */
  double tol;             /* relative residual target (default 1e-8) */
  int64_t max_iterations; /* default 10000 */
  bkr_side side;          /* default BKR_SIDE_RIGHT */
  bkr_strategy strategy;  /* default BKR_STRATEGY_B */
  int same_system;        /* nonzero: A_i identical across the sequence */
  bkr_trace* trace;       /* optional telemetry sink, not owned (default NULL).
                           * For the persistent GCRO-DR handles the sink is
                           * captured at create time. */
  int no_recovery;        /* nonzero: disable the recovery-escalation ladder
                           * (orthogonalization repair, recycle shrinking,
                           * early restart); failures then surface directly
                           * as their bkr_status (default 0) */
  bkr_method method;      /* Krylov method used by the session API
                           * (default BKR_METHOD_GMRES; ignored by the
                           * method-specific entry points) */
  int64_t shards;         /* > 0: session operator applies run through the
                           * sharded SPMD layer with this many row-disjoint
                           * shards, and the solve's residual norms and
                           * CG's dots use the explicit binary-tree
                           * reduction (the other reductions never see the
                           * shard count). Solves are bitwise identical at
                           * every shard count (default 0: monolithic
                           * operator) */
  int64_t coarse;         /* > 0: the session owns a subdomain-deflation
                           * coarse correction (identity inner level,
                           * additive: z = r + Z E^-1 Z^T r) with this many
                           * subdomains as its preconditioner (default 0:
                           * unpreconditioned) */
  int64_t deadline_ms;    /* >= 0: solves abort with
                           * BKR_STATUS_DEADLINE_EXCEEDED once this many
                           * milliseconds have elapsed, measured from the
                           * moment the options are bound (solver create /
                           * session create); 0 expires immediately, before
                           * the first operator apply. Default -1: no
                           * deadline, no clock reads on the hot path. */
  bkr_cancel_token* cancel; /* optional cooperative cancel flag, not owned;
                             * must outlive every solve it is attached to.
                             * Solvers poll it once per outer iteration and
                             * abort with BKR_STATUS_CANCELLED (default
                             * NULL) */
} bkr_options;

typedef struct bkr_result {
  int converged;
  int64_t iterations;
  int64_t cycles;
  int64_t reductions;
  int64_t operator_applies; /* SpMM count (blocks) */
  int64_t precond_applies;  /* M^{-1} block applications */
  double seconds;
  bkr_status status;        /* refined termination cause */
  int64_t recoveries;       /* escalation-ladder actions taken during the solve */
  /* Recycle-cache statistics (session API only; zero elsewhere). The
   * counters are cumulative totals of the cache attached to the session
   * at the time the solve returned. */
  int64_t cache_hits;
  int64_t cache_misses;
  int64_t cache_evictions;
  int64_t cache_bytes;      /* payload bytes currently held by the cache */
  int warm_start;           /* nonzero: the session was warm-started from
                             * a cached recycle space */
} bkr_result;

/* Fill `opts` with the library defaults. */
void bkr_options_default(bkr_options* opts);

/* --- cooperative cancellation ----------------------------------------- */

/* A cancel token wraps one atomic flag. Attach it to any number of solves
 * through bkr_options.cancel (or re-arm a live session with
 * bkr_session_set_cancellation); setting it from any thread makes every
 * attached solve abort with BKR_STATUS_CANCELLED at its next iteration
 * boundary, leaving x at the last consistent iterate. */
bkr_cancel_token* bkr_cancel_token_create(void);
void bkr_cancel_token_destroy(bkr_cancel_token* token);
/* Set the flag (thread-safe, may be called from a signal-adjacent thread). */
void bkr_cancel_token_cancel(bkr_cancel_token* token);
/* Clear the flag so the token can be reused for the next solve. */
void bkr_cancel_token_reset(bkr_cancel_token* token);
/* 1 if the flag is set. */
int bkr_cancel_token_cancelled(const bkr_cancel_token* token);

/* --- telemetry --------------------------------------------------------- */

/* Identifiers of the instrumented phases (see src/obs/trace.hpp). */
typedef enum bkr_phase {
  BKR_PHASE_SPMM = 0,
  BKR_PHASE_PRECOND = 1,
  BKR_PHASE_ORTHO_PROJECTION = 2,
  BKR_PHASE_ORTHO_NORMALIZATION = 3,
  BKR_PHASE_REDUCTION = 4,
  BKR_PHASE_SMALL_DENSE = 5,
  BKR_PHASE_RESTART_EIG = 6,
} bkr_phase;

/* A trace accumulates one record per solve it observes; attach it through
 * bkr_options.trace. Not thread-safe: use one trace per concurrent solver. */
bkr_trace* bkr_trace_create(void);
void bkr_trace_destroy(bkr_trace* trace);
void bkr_trace_clear(bkr_trace* trace);
/* Number of solves recorded so far. */
int64_t bkr_trace_solve_count(const bkr_trace* trace);
/* Totals across all recorded solves. */
double bkr_trace_phase_seconds(const bkr_trace* trace, bkr_phase phase);
int64_t bkr_trace_phase_count(const bkr_trace* trace, bkr_phase phase);
/* Export; return 0 on success, nonzero if the file could not be written. */
int bkr_trace_write_json(const bkr_trace* trace, const char* path);
int bkr_trace_write_csv(const bkr_trace* trace, const char* path);

/* --- recycle-space cache ---------------------------------------------- */

/* A process-wide cache of recycled deflation spaces keyed by operator
 * fingerprint. Share one cache across sessions (it is thread-safe) so a
 * session over a previously-seen operator warm-starts from the space a
 * prior session deposited. `byte_budget` bounds the payload bytes held;
 * least-recently-used entries are evicted past it. Pass 0 for the
 * default budget (64 MiB). */
bkr_cache* bkr_cache_create(size_t byte_budget);
void bkr_cache_destroy(bkr_cache* cache);
void bkr_cache_clear(bkr_cache* cache);
int64_t bkr_cache_hits(const bkr_cache* cache);
int64_t bkr_cache_misses(const bkr_cache* cache);
int64_t bkr_cache_evictions(const bkr_cache* cache);
int64_t bkr_cache_entries(const bkr_cache* cache);
int64_t bkr_cache_bytes(const bkr_cache* cache);
/* Binary snapshot of the cache contents (checksummed; a corrupted or
 * truncated file loads as a smaller / empty cache, never as bad data).
 * Return 0 on success, nonzero on failure. */
int bkr_cache_save(const bkr_cache* cache, const char* path);
int bkr_cache_load(bkr_cache* cache, const char* path);

/* --- double-precision real ------------------------------------------- */

/* Take ownership of nothing: the CSR arrays are copied. Returns NULL on
 * invalid input (sizes must be consistent, indices 0-based). */
bkr_matrix* bkr_matrix_create(int64_t n, const int64_t* rowptr, const int64_t* colind,
                              const double* values);
void bkr_matrix_destroy(bkr_matrix* a);
int64_t bkr_matrix_rows(const bkr_matrix* a);

/* One GMRES solve of A x = b (x holds the initial guess on entry, the
 * solution on return). Returns 0 on success, nonzero on invalid input. */
int bkr_gmres(const bkr_matrix* a, const double* b, double* x, const bkr_options* opts,
              bkr_result* result);

/* Persistent GCRO-DR: the recycled subspace lives in the handle across
 * calls, as in the paper's sequence API (eq. 1). `new_matrix` marks
 * A_i != A_{i-1}.
 *
 * Solve return codes: 0 = the solve ran (inspect result->converged and
 * result->status for the outcome), 1 = invalid input, 2 = internal error,
 * 3 = hard solver failure (breakdown family) — result->status carries the
 * specific bkr_status. */
bkr_gcrodr* bkr_gcrodr_create(const bkr_options* opts);
void bkr_gcrodr_destroy(bkr_gcrodr* solver);
int bkr_gcrodr_solve(bkr_gcrodr* solver, const bkr_matrix* a, const double* b, double* x,
                     int new_matrix, bkr_result* result);

/* A session binds one matrix (not owned; it must outlive the session)
 * and one method (opts->method) for its whole life; right-hand sides
 * arrive through bkr_session_solve. Recycling methods (GCRODR /
 * PSEUDO_GCRODR) carry their deflation space across solves; with a cache
 * attached they warm-start from it at create and deposit their final
 * space back at destroy. `cache` may be NULL. Returns NULL on invalid
 * input. */
bkr_session* bkr_session_create(const bkr_matrix* a, const bkr_options* opts, bkr_cache* cache);
void bkr_session_destroy(bkr_session* session);
/* Solve A X = B for nrhs right-hand sides stored column-major with
 * leading dimension n (x holds the initial guess on entry, the solution
 * on return). Same return codes as bkr_gcrodr_solve. */
int bkr_session_solve(bkr_session* session, const double* b, double* x, int64_t nrhs,
                      bkr_result* result);
/* Deposit the current recycle space into the cache now; returns 1 if a
 * space was stored, 0 otherwise. */
int bkr_session_flush(bkr_session* session);
int64_t bkr_session_solves(const bkr_session* session);
/* 1 when the session was warm-started from a cached recycle space. */
int bkr_session_warm_started(const bkr_session* session);
/* Re-arm cancellation for the session's next solves: `token` (may be NULL)
 * replaces the one captured at create, and `deadline_ms` (measured from
 * this call; < 0 clears any deadline) replaces the create-time deadline.
 * A long-lived server session calls this once per request. */
void bkr_session_set_cancellation(bkr_session* session, bkr_cancel_token* token,
                                  int64_t deadline_ms);

/* --- double-precision complex (interleaved re/im) --------------------- */

bkr_zmatrix* bkr_zmatrix_create(int64_t n, const int64_t* rowptr, const int64_t* colind,
                                const double* values_interleaved);
void bkr_zmatrix_destroy(bkr_zmatrix* a);
int64_t bkr_zmatrix_rows(const bkr_zmatrix* a);

int bkr_zgmres(const bkr_zmatrix* a, const double* b_interleaved, double* x_interleaved,
               const bkr_options* opts, bkr_result* result);

bkr_zgcrodr* bkr_zgcrodr_create(const bkr_options* opts);
void bkr_zgcrodr_destroy(bkr_zgcrodr* solver);
int bkr_zgcrodr_solve(bkr_zgcrodr* solver, const bkr_zmatrix* a, const double* b_interleaved,
                      double* x_interleaved, int new_matrix, bkr_result* result);

/* Complex sessions; semantics mirror bkr_session_*. */
bkr_zsession* bkr_zsession_create(const bkr_zmatrix* a, const bkr_options* opts,
                                  bkr_cache* cache);
void bkr_zsession_destroy(bkr_zsession* session);
int bkr_zsession_solve(bkr_zsession* session, const double* b_interleaved,
                       double* x_interleaved, int64_t nrhs, bkr_result* result);
int bkr_zsession_flush(bkr_zsession* session);
int64_t bkr_zsession_solves(const bkr_zsession* session);
int bkr_zsession_warm_started(const bkr_zsession* session);
void bkr_zsession_set_cancellation(bkr_zsession* session, bkr_cancel_token* token,
                                   int64_t deadline_ms);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* BKR_C_H */
