// SolverSession: the solver-as-a-service core (ROADMAP item 1).
//
// The paper's sequence experiments (fig. 2: one Poisson matrix against
// four successive sources; section V: an antenna ring against one Maxwell
// matrix) are *sessions*, not one-shot solves: the operator and the
// preconditioner are fixed once, right-hand sides arrive repeatedly, and
// the recycled subspace is the state carried between arrivals. This type
// lifts the setup (operator binding, fingerprinting, warm-start fetch)
// and the finalize (stats accumulation, recycle-space deposit) out of the
// one-shot entry points into a reusable object:
//
//   RecycleCache cache;
//   SolverSession<double> s(a, precond, {SessionMethod::GcroDr, opts, &cache});
//   s.solve(b0, x0);   // cold, or warm-started from the cache
//   s.solve(b1, x1);   // recycles the space built by the first solve
//   // ~SolverSession deposits the final space back into the cache
//
// Semantics:
//  * the first solve of a cold session is bitwise identical to the
//    corresponding one-shot entry point (same kernels, same reduction
//    order, same iteration counts) — the session conformance suite pins
//    this at every lane count;
//  * subsequent solves of the recycling methods (GcroDr, PseudoGcroDr)
//    reuse the session's recycled space, as with `same_system` sequences;
//  * SolveStats follows RESET semantics per call — every solve() returns
//    a fresh per-call record — while the session-level SessionStats
//    ACCUMULATES across calls until reset_stats();
//  * the resilience taxonomy flows through unchanged: per-call status,
//    recovery counts and (with throw_on_failure) BreakdownError behave
//    exactly as on the one-shot entry points.
#pragma once

#include <cstdint>
#include <memory>

#include "core/block_cg.hpp"
#include "core/cg.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/lgmres.hpp"
#include "core/recycle_cache.hpp"
#include "core/workspace.hpp"

namespace bkr {

// Every solver entry point of the library, addressable as a session.
enum class SessionMethod : int {
  Cg = 0,
  BlockCg,
  BlockGmres,
  PseudoBlockGmres,
  Lgmres,
  GcroDr,
  PseudoGcroDr,
};

inline constexpr int kSessionMethodCount = 7;

// Stable lowercase identifier ("cg", "block_gmres", ...).
const char* session_method_name(SessionMethod m);

// True for the methods whose recycled subspace persists across solves and
// can be deposited into / withdrawn from a RecycleCache.
inline constexpr bool session_method_recycles(SessionMethod m) {
  return m == SessionMethod::GcroDr || m == SessionMethod::PseudoGcroDr;
}

struct SessionConfig {
  SessionMethod method = SessionMethod::BlockGmres;
  SolverOptions options;
  // Optional recycle-space cache (not owned, may be shared by sessions).
  // Recycling methods fetch a warm start at construction and deposit
  // their final space at flush()/destruction; other methods ignore it.
  RecycleCache* cache = nullptr;
  // Deposit the recycle space into the cache when the session dies.
  bool store_on_destroy = true;
};

// Accumulated across every solve of one session (ACCUMULATE semantics;
// the per-call SolveStats returned by solve() RESET each call).
struct SessionStats {
  index_t solves = 0;
  index_t converged_solves = 0;
  std::int64_t iterations = 0;
  std::int64_t cycles = 0;
  std::int64_t reductions = 0;
  std::int64_t operator_applies = 0;
  std::int64_t precond_applies = 0;
  std::int64_t recoveries = 0;
  double seconds = 0;
  SolveStatus last_status = SolveStatus::Converged;

  void accumulate(const SolveStats& st) {
    ++solves;
    converged_solves += st.converged ? 1 : 0;
    iterations += st.iterations;
    cycles += st.cycles;
    reductions += st.reductions;
    operator_applies += st.operator_applies;
    precond_applies += st.precond_applies;
    recoveries += st.recoveries;
    seconds += st.seconds;
    last_status = st.status;
  }
  void reset() { *this = SessionStats{}; }
};

template <class T>
class SolverSession {
 public:
  // Bind the session to one assembled operator and preconditioner (both
  // not owned; they must outlive the session). The operator fingerprint
  // is computed here; recycling methods with a cache attached withdraw a
  // warm-start space immediately.
  SolverSession(const CsrMatrix<T>& a, Preconditioner<T>* m, SessionConfig config,
                CommModel* comm = nullptr);
  ~SolverSession();
  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  // Solve A X = B for a block of B.cols() right-hand sides (X holds the
  // initial guess on entry, the solution on return). Returns the per-call
  // SolveStats (reset semantics); the session accumulates into stats().
  SolveStats solve(MatrixView<const T> b, MatrixView<T> x);

  // Deposit the current recycle space into the cache now. Returns true
  // if a space was stored. No-op (false) without a cache, for
  // non-recycling methods, or before any space exists.
  bool flush();

  [[nodiscard]] const SessionStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  [[nodiscard]] index_t rows() const { return a_->rows(); }
  [[nodiscard]] SessionMethod method() const { return cfg_.method; }
  [[nodiscard]] const SolverOptions& options() const { return cfg_.options; }
  [[nodiscard]] const CacheKey& key() const { return key_; }
  [[nodiscard]] index_t solves() const { return stats_.solves; }
  // True when construction installed a cached recycle space.
  [[nodiscard]] bool warm_started() const { return warm_; }

  // Attach (or clear, with {nullptr, epoch}) cooperative cancellation for
  // the *next* solves of this session. Options are otherwise frozen at
  // construction; a long-lived server session re-arms per request through
  // here. The token is not owned and must stay alive across the solve.
  void set_cancellation(const std::atomic<bool>* cancel,
                        std::chrono::steady_clock::time_point deadline =
                            std::chrono::steady_clock::time_point{}) {
    cfg_.options.cancel = cancel;
    cfg_.options.deadline = deadline;
    gcro_.set_cancellation(cancel, deadline);
    pgcro_.set_cancellation(cancel, deadline);
  }

  // True when the session executes applies through the sharded SPMD layer
  // (options().shards > 0, DESIGN.md §13).
  [[nodiscard]] bool sharded() const { return sharded_ != nullptr; }

 private:
  SolveStats solve_lgmres(MatrixView<const T> b, MatrixView<T> x);
  // The operator every solve dispatches through: the sharded SPMD operator
  // when one is configured, the monolithic CSR operator otherwise. The
  // CacheKey is computed from the source matrix either way, so recycle
  // spaces survive resharding.
  [[nodiscard]] const LinearOperator<T>& oper() const {
    return sharded_ != nullptr ? static_cast<const LinearOperator<T>&>(*sharded_)
                               : static_cast<const LinearOperator<T>&>(op_);
  }

  const CsrMatrix<T>* a_;
  Preconditioner<T>* m_;
  // Session-lifetime scratch for the solver iterate loops: bound into
  // cfg_.options.workspace (unless the caller attached one) so repeated
  // solves reach a zero-allocation steady state. Declared before cfg_ so
  // the binding in the constructor's initializer list sees a live object.
  SolverWorkspace<T> ws_;
  SessionConfig cfg_;
  CommModel* comm_;
  CsrOperator<T> op_;
  // Sharded SPMD operator, constructed only when options().shards > 0.
  std::unique_ptr<ShardedOperator<T>> sharded_;
  CacheKey key_;
  bool warm_ = false;
  GcroDr<T> gcro_;
  PseudoGcroDr<T> pgcro_;
  SessionStats stats_;
};

extern template class SolverSession<double>;
extern template class SolverSession<std::complex<double>>;

}  // namespace bkr
