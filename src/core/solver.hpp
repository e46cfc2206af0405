// Solver options and statistics shared by every iterative method.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace bkr {

class KernelExecutor;  // parallel/kernel_executor.hpp
class SolverWorkspaceBase;  // core/workspace.hpp

namespace resilience {
class FaultInjector;  // resilience/fault_injector.hpp
}

// Failure taxonomy: why a solve stopped. Every solver reports exactly one
// terminal status in SolveStats::status; `Converged` if and only if
// SolveStats::converged. The non-converged values diagnose the *first*
// unrecoverable condition encountered:
enum class SolveStatus : int {
  Converged = 0,         // relative residual target met for every RHS column
  MaxIterations,         // iteration budget exhausted while still making progress
  Stagnated,             // no usable new direction / provably wedged restart cycle
  Breakdown,             // block rank collapse or indefinite-operator breakdown
                         // that the recovery ladder could not (or was not
                         // allowed to) repair
  NonFiniteResidual,     // NaN/Inf reached a residual norm or Hessenberg entry
  PreconditionerFailure, // the preconditioner apply threw
  EigSolveFailure,       // deflation eigenproblem failed and recycling recovery
                         // was disabled (RecoveryPolicy::shrink_recycle = false)
  Faulted,               // an injected fault terminated the solve, or the final
                         // true-residual check caught a corrupted recursion
  Cancelled,             // SolverOptions::cancel flag observed set at an
                         // iteration boundary; x holds the last consistent
                         // partial iterate
  DeadlineExceeded,      // SolverOptions::deadline passed at an iteration
                         // boundary (or before the first operator apply when
                         // the deadline was already expired at entry)
};

inline constexpr int kSolveStatusCount = 10;

// Stable lowercase identifier ("converged", "max-iterations", ...).
inline const char* status_name(SolveStatus s) {
  switch (s) {
    case SolveStatus::Converged: return "converged";
    case SolveStatus::MaxIterations: return "max-iterations";
    case SolveStatus::Stagnated: return "stagnated";
    case SolveStatus::Breakdown: return "breakdown";
    case SolveStatus::NonFiniteResidual: return "non-finite-residual";
    case SolveStatus::PreconditionerFailure: return "preconditioner-failure";
    case SolveStatus::EigSolveFailure: return "eig-solve-failure";
    case SolveStatus::Faulted: return "faulted";
    case SolveStatus::Cancelled: return "cancelled";
    case SolveStatus::DeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

// Structured solver failure. Used two ways: internally, deep solver code
// throws it to abort a solve with a precise status (the solver entry point
// catches it and finalizes SolveStats); externally, it is what callers see
// when RecoveryPolicy::throw_on_failure is set and a solve ends in a hard
// failure. It deliberately does NOT derive from the types the legacy
// blanket catches used, so ContractViolation (std::logic_error) and
// unrelated runtime errors keep propagating.
class BreakdownError : public std::runtime_error {
 public:
  BreakdownError(SolveStatus status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  [[nodiscard]] SolveStatus status() const noexcept { return status_; }

 private:
  SolveStatus status_;
};

// Bounded recovery-escalation ladder applied when a solver hits a fragile
// moment. Every rung is deterministic (seeded) and every engagement is
// counted in SolveStats::recoveries and emitted as an obs::RecoveryEvent,
// so a "recovered" solve is always distinguishable from a clean one. With
// the defaults, a solve that never hits a fragile moment takes bitwise
// identical steps to a build without the resilience layer.
struct RecoveryPolicy {
  // Block breakdown (rank-deficient Arnoldi block): after the built-in
  // CholQR -> Householder TSQR escalation, replace dead basis columns with
  // seeded random vectors re-orthogonalized against the basis, at most
  // detail::kMaxRecoveries times per solve. Off: the cycle is truncated at
  // the breakdown (legacy behavior).
  bool block_recovery = true;
  // Deflation eigenproblem failure at a GCRO-DR restart: keep the current
  // recycle space via the identity-coefficient fallback (drop the refresh)
  // instead of failing the solve with EigSolveFailure.
  bool shrink_recycle = true;
  // Close a restart cycle early when the worst-column residual estimate
  // has not improved for detail::kStagnationWindow consecutive
  // iterations; the restart re-seeds the basis from the true residual.
  bool early_restart = true;
  // Re-verify the true residual before reporting convergence (CG-family
  // recursions can be lied to by a faulted operator). Automatically on
  // whenever a FaultInjector is attached.
  bool final_check = false;
  // Surface hard failures (Breakdown, NonFiniteResidual,
  // PreconditionerFailure, EigSolveFailure, Faulted — not the soft exits
  // MaxIterations, Stagnated, Cancelled or DeadlineExceeded) as a thrown
  // BreakdownError after SolveStats is finalized.
  bool throw_on_failure = false;
};

// Where the preconditioner enters the iteration (paper: "right, left, or
// variable preconditioning" are all supported uniformly).
enum class PrecondSide {
  None,
  Left,      // solve M^{-1}A x = M^{-1}b; stopping test on the preconditioned residual
  Right,     // solve A M^{-1} u = b, x = M^{-1} u
  Flexible,  // right with per-iteration preconditioner (FGMRES / FGCRO-DR)
};

// Right-hand side matrix W of the generalized deflation eigenproblem at
// GCRO-DR restarts (paper eq. 3a vs 3b; section III-C/III-D).
enum class RecycleStrategy {
  A,  // eq. 3a — needs one extra global reduction per restart
  B,  // eq. 3b — communication-free
};

// Arnoldi orthogonalization scheme (reduction counts per iteration differ;
// paper section III-D).
enum class Ortho {
  Cgs,     // classical Gram-Schmidt, 1 projection reduction + 1 normalization
  Cgs2,    // CGS with reorthogonalization (2 + 1)
  Mgs,     // modified Gram-Schmidt, one reduction per basis block
};

struct SolverOptions {
  index_t restart = 30;            // m: maximum Krylov dimension (in blocks)
  index_t recycle = 0;             // k: recycled blocks (GCRO-DR only)
  double tol = 1e-8;               // relative residual target, per RHS column
  index_t max_iterations = 10000;  // total (block) iterations
  PrecondSide side = PrecondSide::Right;
  RecycleStrategy strategy = RecycleStrategy::B;
  bool same_system = false;  // sequence with identical matrices: skip
                             // fig. 1 lines 3-7 and 31-38
  // Iterated CGS by default (Belos's choice): single-pass CGS loses
  // Arnoldi orthogonality, which GCRO-DR inherits into C_k and turns into
  // a residual-accuracy floor near 1e-8.
  Ortho ortho = Ortho::Cgs2;
  bool record_history = true;
  // Optional observability sink (not owned). When null — the default —
  // the instrumentation reduces to pointer tests: no clock reads, no
  // allocation, no virtual calls on the hot path.
  obs::TraceSink* trace = nullptr;
  // Optional kernel executor (not owned). When null — the default — every
  // hot kernel runs its legacy serial path unchanged. When set, SpMM,
  // gemm, CholQR and the fused reductions fan out over the executor's
  // thread pool under the determinism contract of kernel_executor.hpp:
  // iteration counts, residual histories and solutions are identical at
  // every thread count.
  const KernelExecutor* exec = nullptr;
  // Shard count of the sharded SPMD layer (DESIGN.md §13). 0 — the
  // default — keeps the monolithic operator and the executor-chunked
  // reductions. S >= 1 makes a session execute operator applies through a
  // ShardedCsrOperator over S row-disjoint subdomains, and routes the
  // solve context's norms (right-hand-side, residual and GCRO-DR U
  // norms; the CG and block-CG column norms) and CG's dots through the
  // explicit binary-tree reductions of la/blas.hpp, whose fold shape
  // depends on the problem size only. The other inner products (the
  // GMRES-family projections, the CholQR Gram, the pseudo-block and LGMRES
  // dots and norm2) run the plain executor kernels, which never see the
  // shard count either — so iteration histories and solutions are bitwise
  // identical at every shard count.
  index_t shards = 0;
  // Mixed-precision pilot (DESIGN.md §14, ROADMAP item 3). When set, the
  // solver treats the operator apply as reduced precision (normally a
  // MixedPrecisionOperator streaming fp32 values): every
  // `replacement_interval` iterations — and before reporting convergence —
  // the recursive residual is replaced by the true fp64 residual
  // b - A x (computed through MixedPrecisionOperator::apply_full when the
  // operator is one), each replacement is emitted as an
  // obs::RecoveryEvent{site:"mixed-precision",
  // action:"residual-replacement"}, and the final true-residual check of
  // the convergence epilogue is forced on. Off — the default — solves are
  // bitwise identical to the pre-pilot code paths.
  bool mixed_precision = false;
  // Iterations between residual replacements under mixed_precision
  // (<= 0 disables the periodic replacement; the convergence-time
  // replacement still runs).
  index_t replacement_interval = 50;
  // Recovery-escalation policy; the defaults keep fault-free solves
  // bitwise identical to the pre-resilience code paths.
  RecoveryPolicy recovery;
  // Optional deterministic fault injector (not owned). When null — the
  // default — the hooks at operator applies, preconditioner applies and
  // orthogonalization reduce to pointer tests.
  resilience::FaultInjector* fault = nullptr;
  // Optional preallocated solver workspace (not owned; must be a
  // SolverWorkspace<T> matching the solve's scalar type — a SolverSession
  // attaches its own). When null — the default — each solve carries a
  // private one-shot workspace, so iterate loops never allocate either
  // way; an attached workspace additionally reuses capacity *across*
  // solves. Value semantics are unchanged in both modes: workspace slots
  // acquire with fresh zero-initialized semantics, so histories and
  // solutions are bitwise identical to the legacy allocating code.
  SolverWorkspaceBase* workspace = nullptr;
  // Cooperative cancellation (DESIGN.md §15). When non-null, every solver
  // polls the flag once per (block) outer iteration at the top of its hot
  // loop and aborts with SolveStatus::Cancelled, leaving x at the last
  // consistent iterate. Relaxed loads only — the owner sets the flag from
  // another thread (server watchdog, SIGTERM drain) and needs no stronger
  // ordering than "observed at the next iteration boundary". Null — the
  // default — reduces the poll to one pointer test: numerics are bitwise
  // identical to a build without the mechanism.
  const std::atomic<bool>* cancel = nullptr;
  // Cooperative deadline on the steady clock. The epoch default disables
  // the check entirely (no clock reads on the hot path). When set, the
  // solver compares steady_clock::now() against it alongside the cancel
  // poll and aborts with SolveStatus::DeadlineExceeded; a deadline already
  // expired at solve entry aborts before the first operator apply.
  std::chrono::steady_clock::time_point deadline{};
};

struct SolveStats {
  bool converged = false;
  // Terminal status (== Converged exactly when `converged`). The default
  // covers the one exit no solver marks explicitly: budget exhaustion.
  SolveStatus status = SolveStatus::MaxIterations;
  // Recovery-ladder engagements during this solve (column replacements,
  // identity-pk deflation fallbacks, early restarts). 0 on a clean solve.
  std::int64_t recoveries = 0;
  index_t iterations = 0;  // (block) Arnoldi steps performed
  index_t cycles = 0;      // restarts + 1
  std::int64_t reductions = 0;       // global synchronizations
  std::int64_t operator_applies = 0; // SpMM count (blocks)
  std::int64_t precond_applies = 0;  // M^{-1} block applications
  double seconds = 0;
  // Per RHS column: relative residual estimate after each (block)
  // iteration, starting with the initial residual.
  std::vector<std::vector<double>> history;
  // Per RHS column: iterations spent while that column was not yet
  // converged (the per-RHS counts reported in the paper's tables).
  std::vector<index_t> per_rhs_iterations;
};

}  // namespace bkr
