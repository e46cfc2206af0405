#include "precond/schwarz.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/graph.hpp"

namespace bkr {

template <class T>
SchwarzPreconditioner<T>::SchwarzPreconditioner(const CsrMatrix<T>& a, SchwarzOptions opts)
    : n_(a.rows()), opts_(opts) {
  const Graph g = adjacency_of(a);
  const PouKind pou = (opts_.kind == SchwarzKind::Asm) ? PouKind::Multiplicity : PouKind::Boolean;
  OverlappingDecomposition dec = make_decomposition(g, opts_.subdomains, opts_.overlap, pou);
  locals_.resize(static_cast<size_t>(opts_.subdomains));
  // Per-lane accumulation slots: each subdomain build writes only its own
  // entry, so the lane bodies never touch stats_mutex_; everything is
  // merged once after the parallel_for (hot-path-lock discipline).
  std::vector<double> setup_times(static_cast<size_t>(opts_.subdomains), 0.0);
  std::vector<index_t> factor_nnz(static_cast<size_t>(opts_.subdomains), 0);
  std::vector<index_t> sub_rows(static_cast<size_t>(opts_.subdomains), 0);

  auto build_one = [&](index_t i) BKR_COLD {
    Timer timer;
    Local local;
    local.rows = std::move(dec.rows[size_t(i)]);
    if (opts_.kind == SchwarzKind::Asm) {
      // ASM adds overlapping contributions without weighting.
      local.weights.assign(local.rows.size(), 1.0);
    } else {
      local.weights = std::move(dec.pou[size_t(i)]);
    }
    CsrMatrix<T> sub = extract_submatrix(a, local.rows);
    if (opts_.kind == SchwarzKind::Oras && opts_.impedance != 0.0) {
      // Impedance (optimized Robin) transmission condition: perturb the
      // diagonal of rows whose global stencil is cut by the subdomain
      // boundary. Imaginary shift for complex (Maxwell) problems, real
      // shift otherwise.
      std::vector<char> inside(static_cast<size_t>(n_), 0);
      for (const index_t row : local.rows) inside[size_t(row)] = 1;
      auto& values = sub.values();
      for (index_t li = 0; li < sub.rows(); ++li) {
        const index_t gi = local.rows[size_t(li)];
        bool cut = false;
        for (index_t l = a.rowptr()[size_t(gi)]; l < a.rowptr()[size_t(gi) + 1] && !cut; ++l)
          cut = inside[size_t(a.colind()[size_t(l)])] == 0;
        if (!cut) continue;
        for (index_t l = sub.rowptr()[size_t(li)]; l < sub.rowptr()[size_t(li) + 1]; ++l)
          if (sub.colind()[size_t(l)] == li) {
            const auto mag = abs_val(values[size_t(l)]);
            if constexpr (is_complex_v<T>) {
              // Absorbing (impedance) condition: the imaginary part must
              // carry the same sign as the volume dissipation of the
              // time-harmonic operator (-i here, e^{-i omega t} convention).
              values[size_t(l)] -= T(0, opts_.impedance * mag);
            } else {
              values[size_t(l)] += T(opts_.impedance * mag);
            }
          }
      }
    }
    local.factor = std::make_unique<SparseLDLT<T>>(sub, opts_.ordering);
    setup_times[size_t(i)] = timer.seconds();
    factor_nnz[size_t(i)] = local.factor->factor_nnz();
    sub_rows[size_t(i)] = index_t(local.rows.size());
    // Each iteration owns its slot, so the move needs no lock.
    locals_[size_t(i)] = std::move(local);
  };
  if (opts_.parallel) {
    ThreadPool::global().parallel_for(opts_.subdomains, build_one);
  } else {
    for (index_t i = 0; i < opts_.subdomains; ++i) build_one(i);
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (index_t i = 0; i < opts_.subdomains; ++i) {
    stats_.setup_seconds_sum += setup_times[size_t(i)];
    stats_.setup_seconds_max = std::max(stats_.setup_seconds_max, setup_times[size_t(i)]);
    stats_.factor_nnz_total += factor_nnz[size_t(i)];
    stats_.largest_subdomain = std::max(stats_.largest_subdomain, sub_rows[size_t(i)]);
  }
}

template <class T>
void SchwarzPreconditioner<T>::apply(MatrixView<const T> r, MatrixView<T> z) {
  BKR_REQUIRE(r.rows() == n_, "r.rows", r.rows(), "n", n_);
  BKR_ASSERT_SHAPE(z, r.rows(), r.cols());
  std::unique_lock<std::mutex> lock(buffers_mutex_, std::try_to_lock);
  if (lock.owns_lock()) {
    apply_with(buffers_, r, z);
  } else {
    ApplyBuffers own;
    apply_with(own, r, z);
  }
}

template <class T>
void SchwarzPreconditioner<T>::apply_with(ApplyBuffers& buf, MatrixView<const T> r,
                                          MatrixView<T> z) {
  const index_t p = r.cols();
  const index_t nsub = index_t(locals_.size());
  if (buf.times.size() != size_t(nsub)) {
    buf.rhs.resize(size_t(nsub));
    buf.scratch.resize(size_t(nsub));
    buf.times.assign(size_t(nsub), 0.0);
  }
  z.set_zero();
  // Local solves are independent and each touches only its own buffers;
  // the scatter-add is serialized per subdomain to keep the
  // (shared-memory) sum deterministic.
  auto solve_one = [&](index_t i) {
    Timer timer;
    const Local& local = locals_[size_t(i)];
    const index_t ni = index_t(local.rows.size());
    DenseMatrix<T>& rhs = buf.rhs[size_t(i)];
    if (rhs.rows() != ni || rhs.cols() != p) rhs.resize(ni, p);
    for (index_t c = 0; c < p; ++c)
      for (index_t l = 0; l < ni; ++l) rhs(l, c) = r(local.rows[size_t(l)], c);
    local.factor->solve(rhs.view(), buf.scratch[size_t(i)]);
    buf.times[size_t(i)] = timer.seconds();
  };
  if (opts_.parallel) {
    ThreadPool::global().parallel_for(nsub, solve_one);
  } else {
    for (index_t i = 0; i < nsub; ++i) solve_one(i);
  }
  for (index_t i = 0; i < nsub; ++i) {
    const Local& local = locals_[size_t(i)];
    const DenseMatrix<T>& sol = buf.rhs[size_t(i)];
    for (index_t c = 0; c < p; ++c)
      for (index_t l = 0; l < index_t(local.rows.size()); ++l)
        z(local.rows[size_t(l)], c) +=
            mul(scalar_traits<T>::from_real(real_t<T>(local.weights[size_t(l)])), sol(l, c));
  }
  double sum = 0, mx = 0;
  for (const double t : buf.times) {
    sum += t;
    mx = std::max(mx, t);
  }
  // Once-per-apply bookkeeping, amortized over nsub local direct solves
  // and uncontended from the (serial) solver loop — cold by design.
  BKR_COLD {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.apply_seconds_sum += sum;
    stats_.apply_seconds_max += mx;
    ++stats_.applications;
  }
}

template <class T>
SchwarzStats SchwarzPreconditioner<T>::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

template class SchwarzPreconditioner<double>;
template class SchwarzPreconditioner<std::complex<double>>;

}  // namespace bkr
