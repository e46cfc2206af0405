// bkr_serve — a long-lived multi-tenant solve server over the C API
// (DESIGN.md §15, ROADMAP item 1).
//
// The paper's workload is sequences of related systems: one operator hit
// by many right-hand sides. This daemon productionizes that shape. It
// accepts newline-delimited JSON solve requests (stdin/stdout pipe mode,
// or a Unix-domain socket with -socket PATH), dispatches them onto worker
// lanes running on the library ThreadPool, batches concurrent requests
// that share an operator into one block solve (block methods *are*
// request batching), and warm-starts recycling methods from a shared
// RecycleCache whose snapshot survives restarts on disk.
//
// Robustness model:
//  * admission control — a bounded queue (-queue) and a per-tenant
//    in-flight cap (-tenant_cap); past either, requests are shed
//    immediately with a typed "overloaded" response, never parked
//    unboundedly;
//  * deadlines & cancellation — every request may carry "deadline_ms";
//    the solver itself enforces it cooperatively (SolverOptions::cancel /
//    deadline through bkr_options), a 10 ms watchdog sheds requests that
//    expire while still queued, and {"op":"cancel","id":...} aborts a
//    queued or in-flight request at its next iteration boundary;
//  * graceful degradation — repeated hard failures climb a ladder
//    (drop warm-start -> disable deflation -> gcrodr->gmres fallback ->
//    block width 1), each transition emitted as a RecoveryEvent-style
//    {"event":"degrade",...} line; sustained health climbs back down;
//  * graceful shutdown — SIGTERM (or stdin EOF) stops admission, drains
//    in-flight work under -drain_ms (the watchdog cancels whatever is
//    still running past that), snapshots the cache atomically, exits 0.
//
// Request protocol (one JSON object per line; see DESIGN.md §15 for the
// full field table):
//   {"op":"solve","id":"r1","tenant":"a","matrix":"poisson2d:32",
//    "method":"gcrodr","nu":0.1,"tol":1e-8,"m":30,"k":10,
//    "deadline_ms":500,"hold":true,"return_x":false}
//   {"op":"flush"}                  dispatch held requests as block batches
//   {"op":"cancel","id":"r1"}       cooperative cancel
//   {"op":"stats"}                  server counters
//   {"op":"degrade","level":2}      admin: force the degradation ladder
//   {"op":"shutdown"}               drain and exit
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "capi/bkr_c.h"
#include "common/json.hpp"
#include "common/options.hpp"
#include "core/recycle_cache.hpp"  // fnv1a64 for response x hashes
#include "fem/poisson2d.hpp"
#include "parallel/thread_pool.hpp"

namespace {

namespace json = bkr::json;
using Clock = std::chrono::steady_clock;

volatile sig_atomic_t g_sigterm = 0;
void on_term_signal(int) { g_sigterm = 1; }

/* ---- request fields --------------------------------------------------- */

// Typed reads of one request line (json::parse_flat). A field that is
// absent, null or of another type reads as the default.
struct Fields {
  json::Value obj;

  [[nodiscard]] std::string str(const std::string& k, const std::string& d = "") const {
    const json::Value* v = obj.get(k, json::Type::String);
    return v == nullptr ? d : v->text;
  }
  [[nodiscard]] double num(const std::string& k, double d) const {
    const json::Value* v = obj.get(k, json::Type::Number);
    return v == nullptr ? d : v->number;
  }
  // Integer field k (d when absent), or nullopt when its number is NaN,
  // infinite or outside int64_t: converting such a double is undefined.
  [[nodiscard]] std::optional<int64_t> integer(const std::string& k, int64_t d) const {
    const json::Value* v = obj.get(k, json::Type::Number);
    if (v == nullptr) return d;
    // -2^63 is representable; 2^63 is the first double past the range.
    if (!(v->number >= -9223372036854775808.0 && v->number < 9223372036854775808.0))
      return std::nullopt;
    return int64_t(v->number);
  }
  [[nodiscard]] bool flag(const std::string& k, bool d = false) const {
    const json::Value* v = obj.get(k, json::Type::Bool);
    return v == nullptr ? d : v->boolean;
  }
};

/* ---- connections ------------------------------------------------------ */

// One response sink (stdout in pipe mode, a client socket otherwise).
// Responses from concurrent workers interleave whole lines only.
struct Connection {
  explicit Connection(int out_fd) : fd(out_fd) {}
  int fd;
  std::mutex write_mutex;

  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    std::string full = line;
    full.push_back('\n');
    size_t off = 0;
    while (off < full.size()) {
      const ssize_t w = ::write(fd, full.data() + off, full.size() - off);
      if (w <= 0) return;  // client gone; drop the response
      off += size_t(w);
    }
  }
};

/* ---- matrix registry -------------------------------------------------- */

// Operators are named by generator spec ("poisson2d:32", or
// "varcoef:32:100" / "varcoef:32:100:8"), so two tenants naming the same
// spec share one assembled matrix — the server-side equivalent of an
// operator-fingerprint match — and their solves batch into one block RHS.
struct MatrixEntry {
  bkr_matrix* handle = nullptr;
  int64_t grid = 0;
  int64_t n = 0;
};

class MatrixRegistry {
 public:
  ~MatrixRegistry() {
    for (auto& [spec, e] : entries_) bkr_matrix_destroy(e.handle);
  }

  const MatrixEntry* get(const std::string& spec) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(spec);
    if (it != entries_.end()) return &it->second;
    bkr::CsrMatrix<double> a(1, 1, {0, 0}, {}, {});
    int64_t grid = 0;
    if (!build(spec, &a, &grid)) return nullptr;
    std::vector<int64_t> rowptr(a.rowptr().begin(), a.rowptr().end());
    std::vector<int64_t> colind(a.colind().begin(), a.colind().end());
    MatrixEntry e;
    e.handle = bkr_matrix_create(a.rows(), rowptr.data(), colind.data(), a.values().data());
    if (e.handle == nullptr) return nullptr;
    e.grid = grid;
    e.n = a.rows();
    return &entries_.emplace(spec, e).first->second;
  }

 private:
  static bool build(const std::string& spec, bkr::CsrMatrix<double>* out, int64_t* grid) {
    std::vector<std::string> parts;
    size_t start = 0;
    while (start <= spec.size()) {
      const size_t colon = spec.find(':', start);
      parts.push_back(spec.substr(start, colon == std::string::npos ? colon : colon - start));
      if (colon == std::string::npos) break;
      start = colon + 1;
    }
    if (parts.size() < 2) return false;
    const long g = std::strtol(parts[1].c_str(), nullptr, 10);
    if (g < 2 || g > 4096) return false;
    *grid = g;
    if (parts[0] == "poisson2d" && parts.size() == 2) {
      *out = bkr::poisson2d(g, g);
      return true;
    }
    if (parts[0] == "varcoef" && (parts.size() == 3 || parts.size() == 4)) {
      const double contrast = std::strtod(parts[2].c_str(), nullptr);
      const long inclusions = parts.size() == 4 ? std::strtol(parts[3].c_str(), nullptr, 10) : 12;
      if (contrast <= 0 || inclusions < 1 || inclusions > 1024) return false;
      *out = bkr::poisson2d_varcoef(g, g, contrast, inclusions);
      return true;
    }
    return false;
  }

  std::mutex mutex_;
  std::map<std::string, MatrixEntry> entries_;
};

/* ---- requests & batches ----------------------------------------------- */

// The longest deadline a request may carry, 2^40 ms (about 35 years).
// arrival + deadline_ms is formed in the steady clock's nanoseconds,
// which overflow int64_t past about 9.2e15 ms.
constexpr int64_t kMaxDeadlineMs = int64_t(1) << 40;

struct Request {
  std::string id;
  std::string tenant = "default";
  std::string matrix;
  std::string method = "gmres";
  int64_t nrhs = 1;
  double nu = 0.1;
  double tol = 1e-8;
  int64_t restart = 30;
  int64_t recycle = 10;
  int64_t coarse = 0;
  int64_t max_iterations = 10000;
  int64_t deadline_ms = -1;  // < 0: none; at most kMaxDeadlineMs
  bool return_x = false;
  Clock::time_point arrival;
  std::shared_ptr<Connection> conn;
  // Cooperative-cancel state: `cancelled` is sticky; `active_token` points
  // at the batch's token while the solve is running (guarded by the
  // server registry mutex).
  std::atomic<bool> cancelled{false};
  bkr_cancel_token* active_token = nullptr;

  [[nodiscard]] bool has_deadline() const { return deadline_ms >= 0; }
  [[nodiscard]] Clock::time_point deadline() const {
    return arrival + std::chrono::milliseconds(deadline_ms);
  }
};

using ReqPtr = std::shared_ptr<Request>;

// One unit of worker dispatch: members share matrix/method/options and
// solve as a single block RHS of sum(nrhs) columns.
struct Batch {
  std::vector<ReqPtr> members;
};

// Requests batch when everything that shapes the solve matches.
std::string batch_key(const Request& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "|%s|%.17g|%lld|%lld|%lld|%lld", r.method.c_str(), r.tol,
                static_cast<long long>(r.restart), static_cast<long long>(r.recycle),
                static_cast<long long>(r.coarse), static_cast<long long>(r.max_iterations));
  return r.matrix + buf;
}

bool method_from_name(const std::string& name, bkr_method* out) {
  if (name == "cg") *out = BKR_METHOD_CG;
  else if (name == "block_cg") *out = BKR_METHOD_BLOCK_CG;
  else if (name == "gmres") *out = BKR_METHOD_GMRES;
  else if (name == "pseudo_gmres") *out = BKR_METHOD_PSEUDO_GMRES;
  else if (name == "lgmres") *out = BKR_METHOD_LGMRES;
  else if (name == "gcrodr") *out = BKR_METHOD_GCRODR;
  else if (name == "pseudo_gcrodr") *out = BKR_METHOD_PSEUDO_GCRODR;
  else return false;
  return true;
}

const char* status_to_name(bkr_status s) {
  switch (s) {
    case BKR_STATUS_CONVERGED: return "converged";
    case BKR_STATUS_MAX_ITERATIONS: return "max-iterations";
    case BKR_STATUS_STAGNATED: return "stagnated";
    case BKR_STATUS_BREAKDOWN: return "breakdown";
    case BKR_STATUS_NON_FINITE_RESIDUAL: return "non-finite-residual";
    case BKR_STATUS_PRECONDITIONER_FAILURE: return "preconditioner-failure";
    case BKR_STATUS_EIG_SOLVE_FAILURE: return "eig-solve-failure";
    case BKR_STATUS_FAULTED: return "faulted";
    case BKR_STATUS_CANCELLED: return "cancelled";
    case BKR_STATUS_DEADLINE_EXCEEDED: return "deadline-exceeded";
  }
  return "unknown";
}

bool is_hard_failure(bkr_status s) {
  return s == BKR_STATUS_BREAKDOWN || s == BKR_STATUS_NON_FINITE_RESIDUAL ||
         s == BKR_STATUS_PRECONDITIONER_FAILURE || s == BKR_STATUS_EIG_SOLVE_FAILURE ||
         s == BKR_STATUS_FAULTED;
}

/* ---- degradation ladder ----------------------------------------------- */

struct LadderRung {
  const char* action;
};
constexpr LadderRung kLadder[] = {
    {"normal"},            // 0
    {"drop-warm-start"},   // 1
    {"disable-deflation"}, // 2
    {"method-fallback"},   // 3: gcrodr -> gmres
    {"shrink-block"},      // 4: batch width 1
};
constexpr int kLadderMax = 4;

/* ---- the server ------------------------------------------------------- */

struct ServerConfig {
  int64_t workers = 2;
  int64_t queue_limit = 64;
  int64_t tenant_cap = 8;
  int64_t drain_ms = 5000;
  int64_t cache_budget = 0;  // 0: library default
  std::string cache_file;
};

class Server {
 public:
  explicit Server(ServerConfig cfg) : cfg_(cfg), pool_(cfg.workers + 1) {
    cache_ = bkr_cache_create(size_t(cfg_.cache_budget));
    if (!cfg_.cache_file.empty()) {
      if (bkr_cache_load(cache_, cfg_.cache_file.c_str()) == 0) {
        std::fprintf(stderr, "bkr_serve: loaded %lld cached spaces from %s\n",
                     static_cast<long long>(bkr_cache_entries(cache_)),
                     cfg_.cache_file.c_str());
      } else if (struct stat sb; ::stat(cfg_.cache_file.c_str(), &sb) == 0) {
        std::fprintf(stderr, "bkr_serve: cache snapshot %s is corrupt; starting cold\n",
                     cfg_.cache_file.c_str());
      }
    }
    dispatcher_ = std::thread([this] {
      pool_.parallel_for(bkr::index_t(cfg_.workers), [this](bkr::index_t) { worker_loop(); });
    });
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }

  ~Server() { bkr_cache_destroy(cache_); }

  // One request line from a client. Thread-safe (the socket mode runs one
  // reader per connection).
  void handle_line(const std::string& line, const std::shared_ptr<Connection>& conn) {
    Fields msg;
    std::string err;
    if (!json::parse_flat(line, &msg.obj, &err)) {
      conn->write_line("{\"status\":\"rejected\",\"error\":\"" + json::escape(err) + "\"}");
      return;
    }
    const std::string op = msg.str("op", "solve");
    if (op == "solve") {
      admit(msg, conn);
    } else if (op == "flush") {
      flush_holds();
    } else if (op == "cancel") {
      cancel(msg.str("id"));
    } else if (op == "stats") {
      conn->write_line(stats_json());
    } else if (op == "degrade") {
      const std::optional<int64_t> level = msg.integer("level", 0);
      if (!level) {
        conn->write_line("{\"status\":\"rejected\",\"error\":\"bad degrade request\"}");
        return;
      }
      force_level(int(std::clamp<int64_t>(*level, 0, kLadderMax)));
    } else if (op == "shutdown") {
      shutdown_requested_.store(true);
    } else {
      conn->write_line("{\"status\":\"rejected\",\"error\":\"unknown op\"}");
    }
  }

  [[nodiscard]] bool shutdown_requested() const { return shutdown_requested_.load(); }

  // SIGTERM / EOF / {"op":"shutdown"}: stop admitting, flush holds, drain
  // under the deadline (the watchdog cancels stragglers), snapshot.
  void drain_and_stop() {
    // Deadline must be visible before the watchdog can see draining_, or
    // it would cancel in-flight work against the epoch sentinel.
    drain_deadline_ = Clock::now() + std::chrono::milliseconds(cfg_.drain_ms);
    draining_.store(true);
    flush_holds();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stop_ = true;
      queue_cv_.notify_all();
      // Hard cap past the drain budget: even if accounting were ever off,
      // shutdown proceeds (workers are bounded by max_iterations anyway).
      drained_cv_.wait_until(lock, drain_deadline_ + std::chrono::seconds(10),
                             [this] { return queue_.empty() && in_flight_ == 0; });
    }
    dispatcher_.join();
    watchdog_stop_.store(true);
    watchdog_.join();
    if (!cfg_.cache_file.empty()) {
      if (bkr_cache_save(cache_, cfg_.cache_file.c_str()) == 0)
        std::fprintf(stderr, "bkr_serve: cache snapshot (%lld entries) saved to %s\n",
                     static_cast<long long>(bkr_cache_entries(cache_)),
                     cfg_.cache_file.c_str());
      else
        std::fprintf(stderr, "bkr_serve: FAILED to save cache snapshot to %s\n",
                     cfg_.cache_file.c_str());
    }
    std::fprintf(stderr,
                 "bkr_serve: drained (%lld solved, %lld overloaded, %lld cancelled, "
                 "%lld deadline-exceeded)\n",
                 counters_.solved.load(), counters_.overloaded.load(),
                 counters_.cancelled.load(), counters_.deadline.load());
  }

 private:
  struct Counters {
    std::atomic<long long> received{0}, solved{0}, overloaded{0}, cancelled{0}, deadline{0},
        batches{0}, rejected{0};
  };

  /* -- admission -- */

  void admit(const Fields& msg, const std::shared_ptr<Connection>& conn) {
    counters_.received.fetch_add(1);
    auto req = std::make_shared<Request>();
    req->id = msg.str("id");
    req->tenant = msg.str("tenant", "default");
    req->matrix = msg.str("matrix");
    req->method = msg.str("method", "gmres");
    bool integers_ok = true;
    const auto integer = [&](const char* k, int64_t d) {
      const std::optional<int64_t> v = msg.integer(k, d);
      integers_ok = integers_ok && v.has_value();
      return v.value_or(d);
    };
    req->nrhs = integer("nrhs", 1);
    req->nu = msg.num("nu", 0.1);
    req->tol = msg.num("tol", 1e-8);
    req->restart = integer("m", 30);
    req->recycle = integer("k", 10);
    req->coarse = integer("coarse", 0);
    req->max_iterations = integer("max_iterations", 10000);
    req->deadline_ms = integer("deadline_ms", -1);
    req->return_x = msg.flag("return_x", false);
    req->arrival = Clock::now();
    req->conn = conn;
    bkr_method method_check = BKR_METHOD_GMRES;
    const bool known_method = method_from_name(req->method, &method_check);
    // Solve parameters no solver can run are the client's error, not a
    // solver failure: admitted, they would come back as code 2 and count
    // as hard failures on the degradation ladder of every tenant. The
    // recycling methods keep k in [1, m), so they need m >= 2; tol == 0 is
    // the fixed-iteration mode and stays legal. An integer field that no
    // int64_t holds, or a deadline past kMaxDeadlineMs, is refused the
    // same way.
    const bool recycles =
        method_check == BKR_METHOD_GCRODR || method_check == BKR_METHOD_PSEUDO_GCRODR;
    if (!integers_ok || req->id.empty() || req->matrix.empty() || !known_method || req->nrhs < 1 ||
        req->nrhs > 64 || req->restart < (recycles ? 2 : 1) || req->max_iterations < 0 ||
        req->deadline_ms > kMaxDeadlineMs || !(req->tol >= 0)) {
      counters_.rejected.fetch_add(1);
      conn->write_line("{\"id\":\"" + json::escape(req->id) +
                       "\",\"status\":\"rejected\",\"error\":\"bad solve request\"}");
      return;
    }
    const bool hold = msg.flag("hold", false);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (draining_.load() || stop_) {
        respond_overloaded_locked(*req, "shutting-down");
        return;
      }
      if (admitted_ >= cfg_.queue_limit) {
        respond_overloaded_locked(*req, "queue-full");
        return;
      }
      if (tenant_in_flight_[req->tenant] >= cfg_.tenant_cap) {
        respond_overloaded_locked(*req, "tenant-cap");
        return;
      }
      if (registry_.count(req->id) != 0) {
        counters_.rejected.fetch_add(1);
        req->conn->write_line("{\"id\":\"" + json::escape(req->id) +
                              "\",\"status\":\"rejected\",\"error\":\"duplicate id\"}");
        return;
      }
      ++admitted_;
      ++tenant_in_flight_[req->tenant];
      registry_[req->id] = req;
      if (hold) {
        holds_[batch_key(*req)].push_back(req);
      } else {
        queue_.push_back(Batch{{req}});
        queue_cv_.notify_one();
      }
    }
  }

  void respond_overloaded_locked(const Request& req, const char* reason) {
    counters_.overloaded.fetch_add(1);
    req.conn->write_line("{\"id\":\"" + json::escape(req.id) +
                         "\",\"status\":\"overloaded\",\"reason\":\"" + reason + "\"}");
  }

  // Move every held group into the queue as one block batch each.
  void flush_holds() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, members] : holds_) {
      if (members.empty()) continue;
      queue_.push_back(Batch{std::move(members)});
      queue_cv_.notify_one();
    }
    holds_.clear();
  }

  void cancel(const std::string& id) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = registry_.find(id);
    if (it == registry_.end()) return;
    it->second->cancelled.store(true);
    if (it->second->active_token != nullptr) bkr_cancel_token_cancel(it->second->active_token);
  }

  void force_level(int level) {
    level = std::max(0, std::min(kLadderMax, level));
    const int prev = level_.exchange(level);
    if (prev != level) emit_degrade_event(prev, level, "admin");
  }

  void emit_degrade_event(int from, int to, const char* why) {
    // RecoveryEvent-style trace of a ladder transition, mirrored to every
    // live response stream via stderr plus a stdout event line in pipe
    // mode (workers hold a connection per member; stderr is the shared
    // channel that always exists).
    std::fprintf(stderr, "bkr_serve: degrade level %d -> %d (%s, action=%s)\n", from, to, why,
                 kLadder[to].action);
  }

  /* -- responses (every admitted request exits through here exactly once) */

  void finish(const ReqPtr& req, const std::string& json) {
    req->conn->write_line(json);
    std::lock_guard<std::mutex> lock(mutex_);
    --admitted_;
    const auto t = tenant_in_flight_.find(req->tenant);
    if (t != tenant_in_flight_.end() && --t->second <= 0) tenant_in_flight_.erase(t);
    registry_.erase(req->id);
    drained_cv_.notify_all();
  }

  void finish_status(const ReqPtr& req, const char* status) {
    if (std::strcmp(status, "cancelled") == 0) counters_.cancelled.fetch_add(1);
    if (std::strcmp(status, "deadline-exceeded") == 0) counters_.deadline.fetch_add(1);
    finish(req, "{\"id\":\"" + json::escape(req->id) + "\",\"status\":\"" + status +
                    "\",\"converged\":0}");
  }

  /* -- worker lanes (run on the ThreadPool via the dispatcher) -- */

  void worker_loop() {
    while (true) {
      Batch batch;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
          if (stop_) return;
          continue;
        }
        batch = std::move(queue_.front());
        queue_.pop_front();
        in_flight_ += int64_t(batch.members.size());
      }
      const int level = level_.load();
      try {
        if (level >= 4 && batch.members.size() > 1) {
          // Shrink-block rung: serve members one by one.
          for (const auto& m : batch.members) run_batch(Batch{{m}}, level);
        } else {
          run_batch(std::move(batch), level);
        }
      } catch (const std::exception& e) {
        // A worker lane must never die: whatever escaped the batch takes
        // the internal-error path so the drain accounting stays exact.
        std::fprintf(stderr, "bkr_serve: worker error: %s\n", e.what());
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        drained_cv_.notify_all();
      }
    }
  }

  void run_batch(Batch batch, int level) {
    counters_.batches.fetch_add(1);
    const auto release = [this](size_t n) {
      std::lock_guard<std::mutex> lock(mutex_);
      in_flight_ -= int64_t(n);
    };
    // Shed members that were cancelled or expired while queued.
    std::vector<ReqPtr> live;
    for (const auto& m : batch.members) {
      if (m->cancelled.load()) {
        finish_status(m, "cancelled");
      } else if (m->has_deadline() && Clock::now() >= m->deadline()) {
        finish_status(m, "deadline-exceeded");
      } else {
        live.push_back(m);
      }
    }
    if (live.empty()) {
      release(batch.members.size());
      return;
    }

    const Request& head = *live.front();
    const MatrixEntry* mat = matrices_.get(head.matrix);
    if (mat == nullptr) {
      for (const auto& m : live)
        finish(m, "{\"id\":\"" + json::escape(m->id) +
                      "\",\"status\":\"rejected\",\"error\":\"unknown matrix spec\"}");
      release(batch.members.size());
      return;
    }

    bkr_options o;
    bkr_options_default(&o);
    o.restart = head.restart;
    o.recycle = head.recycle;
    o.tol = head.tol;
    o.max_iterations = head.max_iterations;
    o.coarse = head.coarse;
    std::string effective_method = head.method;
    if (level >= 2) o.coarse = 0;  // disable-deflation rung
    if (level >= 3) {              // method-fallback rung
      if (effective_method == "gcrodr") effective_method = "gmres";
      if (effective_method == "pseudo_gcrodr") effective_method = "pseudo_gmres";
    }
    method_from_name(effective_method, &o.method);
    // Tightest member deadline bounds the whole block solve; members keep
    // their own shed checks above.
    int64_t deadline_budget = -1;
    for (const auto& m : live)
      if (m->has_deadline()) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(m->deadline() - Clock::now())
                .count();
        const int64_t ms = left < 0 ? 0 : left;
        deadline_budget = deadline_budget < 0 ? ms : std::min(deadline_budget, ms);
      }
    bkr_cancel_token* token = bkr_cancel_token_create();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& m : live) {
        m->active_token = token;
        if (m->cancelled.load()) bkr_cancel_token_cancel(token);
      }
    }
    o.cancel = token;
    o.deadline_ms = deadline_budget;

    const int64_t n = mat->n;
    int64_t width = 0;
    for (const auto& m : live) width += m->nrhs;
    std::vector<double> b(size_t(n * width), 0.0), x(size_t(n * width), 0.0);
    int64_t col = 0;
    for (const auto& m : live)
      for (int64_t j = 0; j < m->nrhs; ++j, ++col) {
        const auto f = bkr::poisson2d_rhs(mat->grid, mat->grid, m->nu * double(j + 1));
        std::copy(f.begin(), f.end(), b.begin() + size_t(col * n));
      }

    const bool attach_cache = level < 1;  // drop-warm-start rung
    bkr_session* session = bkr_session_create(mat->handle, &o, attach_cache ? cache_ : nullptr);
    bkr_result result;
    std::memset(&result, 0, sizeof result);
    int rc = 2;
    if (session != nullptr) {
      rc = bkr_session_solve(session, b.data(), x.data(), width, &result);
      bkr_session_destroy(session);  // deposits the recycle space
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& m : live) m->active_token = nullptr;
    }
    bkr_cancel_token_destroy(token);

    update_ladder(rc, result.status);
    col = 0;
    for (const auto& m : live) {
      const double* mx = x.data() + size_t(col * n);
      respond_solved(m, rc, result, effective_method, width, level, mx, n);
      col += m->nrhs;
    }
    release(batch.members.size());
  }

  void respond_solved(const ReqPtr& req, int rc, const bkr_result& result,
                      const std::string& method, int64_t width, int level, const double* x,
                      int64_t n) {
    if (rc == 1 || rc == 2) {
      finish(req, "{\"id\":\"" + json::escape(req->id) +
                      "\",\"status\":\"error\",\"error\":\"solver error\",\"code\":" +
                      std::to_string(rc) + "}");
      return;
    }
    const bkr_status status = result.status;
    if (status == BKR_STATUS_CANCELLED) counters_.cancelled.fetch_add(1);
    else if (status == BKR_STATUS_DEADLINE_EXCEEDED) counters_.deadline.fetch_add(1);
    else counters_.solved.fetch_add(1);
    const uint64_t hash =
        bkr::fnv1a64(x, size_t(n * req->nrhs) * sizeof(double));
    char tail[512];
    std::snprintf(tail, sizeof tail,
                  "\",\"status\":\"%s\",\"converged\":%d,\"iterations\":%lld,"
                  "\"warm_start\":%d,\"batch_width\":%lld,\"method\":\"%s\",\"degraded\":%d,"
                  "\"seconds\":%.6g,\"x_hash\":\"%016llx\"",
                  status_to_name(status), result.converged,
                  static_cast<long long>(result.iterations), result.warm_start,
                  static_cast<long long>(width), method.c_str(), level, result.seconds,
                  static_cast<unsigned long long>(hash));
    std::string out = "{\"id\":\"" + json::escape(req->id) + tail;
    if (req->return_x) {
      out += ",\"x\":[";
      char num[32];
      for (int64_t i = 0; i < n * req->nrhs; ++i) {
        std::snprintf(num, sizeof num, "%.17g", x[i]);
        if (i != 0) out.push_back(',');
        out += num;
      }
      out.push_back(']');
    }
    out.push_back('}');
    finish(req, out);
  }

  /* -- graceful-degradation ladder -- */

  void update_ladder(int rc, bkr_status status) {
    std::lock_guard<std::mutex> lock(ladder_mutex_);
    const bool hard = rc == 2 || rc == 3 || (rc == 0 && is_hard_failure(status));
    if (hard) {
      heals_ = 0;
      if (++strikes_ >= 2) {
        strikes_ = 0;
        const int cur = level_.load();
        if (cur < kLadderMax) {
          level_.store(cur + 1);
          emit_degrade_event(cur, cur + 1, "hard-failures");
        }
      }
    } else if (status == BKR_STATUS_CONVERGED) {
      strikes_ = 0;
      if (++heals_ >= 4) {
        heals_ = 0;
        const int cur = level_.load();
        if (cur > 0) {
          level_.store(cur - 1);
          emit_degrade_event(cur, cur - 1, "recovered");
        }
      }
    }
  }

  /* -- watchdog: sheds queued/held requests past deadline; past the drain
        deadline it cancels whatever is still running. -- */

  void watchdog_loop() {
    while (!watchdog_stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const auto now = Clock::now();
      std::vector<ReqPtr> expired;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto sweep = [&](std::vector<ReqPtr>& members) {
          auto keep = members.begin();
          for (auto& m : members) {
            if (m->has_deadline() && now >= m->deadline()) expired.push_back(m);
            else *keep++ = m;
          }
          members.erase(keep, members.end());
        };
        for (auto& batch : queue_) sweep(batch.members);
        while (!queue_.empty() && queue_.front().members.empty()) queue_.pop_front();
        for (auto& [key, members] : holds_) sweep(members);
        if (draining_.load() && now >= drain_deadline_) {
          for (auto& [id, req] : registry_)
            if (req->active_token != nullptr) {
              req->cancelled.store(true);
              bkr_cancel_token_cancel(req->active_token);
            }
        }
      }
      for (const auto& m : expired) finish_status(m, "deadline-exceeded");
    }
  }

  std::string stats_json() {
    std::lock_guard<std::mutex> lock(mutex_);
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"event\":\"stats\",\"received\":%lld,\"solved\":%lld,\"overloaded\":%lld,"
                  "\"cancelled\":%lld,\"deadline_exceeded\":%lld,\"rejected\":%lld,"
                  "\"batches\":%lld,\"queued\":%lld,\"in_flight\":%lld,\"degrade_level\":%d,"
                  "\"cache_entries\":%lld,\"cache_hits\":%lld,\"cache_misses\":%lld}",
                  counters_.received.load(), counters_.solved.load(),
                  counters_.overloaded.load(), counters_.cancelled.load(),
                  counters_.deadline.load(), counters_.rejected.load(),
                  counters_.batches.load(), static_cast<long long>(queue_.size()),
                  static_cast<long long>(in_flight_), level_.load(),
                  static_cast<long long>(bkr_cache_entries(cache_)),
                  static_cast<long long>(bkr_cache_hits(cache_)),
                  static_cast<long long>(bkr_cache_misses(cache_)));
    return buf;
  }

  ServerConfig cfg_;
  bkr::ThreadPool pool_;  // worker lanes run here via the dispatcher
  std::thread dispatcher_;
  std::thread watchdog_;
  MatrixRegistry matrices_;
  bkr_cache* cache_ = nullptr;

  std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable drained_cv_;
  std::deque<Batch> queue_;
  std::map<std::string, std::vector<ReqPtr>> holds_;
  std::map<std::string, ReqPtr> registry_;  // admitted, not yet responded
  std::map<std::string, int64_t> tenant_in_flight_;
  int64_t admitted_ = 0;   // queued + held + running
  int64_t in_flight_ = 0;  // members currently owned by a worker
  bool stop_ = false;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> watchdog_stop_{false};
  Clock::time_point drain_deadline_{};

  std::mutex ladder_mutex_;
  std::atomic<int> level_{0};
  int strikes_ = 0;
  int heals_ = 0;

  Counters counters_;
};

/* ---- front ends ------------------------------------------------------- */

// Reads `fd` line by line with a poll timeout so SIGTERM is noticed even
// while idle. Returns when EOF is hit or shutdown is requested.
void serve_fd(Server& server, int fd, const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  while (g_sigterm == 0 && !server.shutdown_requested()) {
    struct pollfd pfd = {fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    const ssize_t r = ::read(fd, chunk, sizeof chunk);
    if (r <= 0) break;  // EOF: graceful shutdown
    buffer.append(chunk, size_t(r));
    size_t nl = 0;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty()) server.handle_line(line, conn);
    }
  }
}

int run_pipe_mode(const ServerConfig& cfg) {
  Server server(cfg);
  auto conn = std::make_shared<Connection>(STDOUT_FILENO);
  serve_fd(server, STDIN_FILENO, conn);
  server.drain_and_stop();
  return 0;
}

int run_socket_mode(const ServerConfig& cfg, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("bkr_serve: socket");
    return 1;
  }
  ::unlink(path.c_str());
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::bind(listener, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, 16) != 0) {
    std::perror("bkr_serve: bind/listen");
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "bkr_serve: listening on %s\n", path.c_str());
  Server server(cfg);
  std::vector<std::thread> clients;
  while (g_sigterm == 0 && !server.shutdown_requested()) {
    struct pollfd pfd = {listener, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    clients.emplace_back([&server, fd] {
      auto conn = std::make_shared<Connection>(fd);
      serve_fd(server, fd, conn);
      ::close(fd);
    });
  }
  ::close(listener);
  ::unlink(path.c_str());
  for (auto& c : clients) c.join();
  server.drain_and_stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bkr::Options opts(argc, argv);
  if (opts.has("help")) {
    std::printf(
        "bkr_serve: multi-tenant solve server (DESIGN.md §15)\n"
        "  -socket PATH      listen on a Unix socket (default: stdin/stdout pipe mode)\n"
        "  -workers N        solve worker lanes (2)\n"
        "  -queue N          admission-queue capacity in requests (64)\n"
        "  -tenant_cap N     max in-flight requests per tenant (8)\n"
        "  -drain_ms N       shutdown drain budget before in-flight solves are cancelled (5000)\n"
        "  -cache_file FILE  load the recycle-space cache at start, snapshot it at shutdown\n"
        "  -cache_budget B   cache byte budget (library default)\n"
        "  -check_snapshot FILE  utility: exit 0 iff FILE is a loadable cache snapshot\n");
    return 0;
  }
  if (opts.has("check_snapshot")) {
    const std::string path = opts.get("check_snapshot", std::string(""));
    bkr_cache* cache = bkr_cache_create(0);
    const int rc = bkr_cache_load(cache, path.c_str());
    std::printf("%s: %s (%lld entries)\n", path.c_str(), rc == 0 ? "loadable" : "NOT loadable",
                static_cast<long long>(bkr_cache_entries(cache)));
    bkr_cache_destroy(cache);
    return rc == 0 ? 0 : 1;
  }

  ServerConfig cfg;
  cfg.workers = std::max<bkr::index_t>(1, opts.get("workers", bkr::index_t(2)));
  cfg.queue_limit = std::max<bkr::index_t>(1, opts.get("queue", bkr::index_t(64)));
  cfg.tenant_cap = std::max<bkr::index_t>(1, opts.get("tenant_cap", bkr::index_t(8)));
  cfg.drain_ms = std::max<bkr::index_t>(0, opts.get("drain_ms", bkr::index_t(5000)));
  cfg.cache_budget = std::max<bkr::index_t>(0, opts.get("cache_budget", bkr::index_t(0)));
  cfg.cache_file = opts.get("cache_file", std::string(""));

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_term_signal;
  ::sigaction(SIGTERM, &sa, nullptr);  // no SA_RESTART: interrupt blocking reads
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  const std::string socket_path = opts.get("socket", std::string(""));
  return socket_path.empty() ? run_pipe_mode(cfg) : run_socket_mode(cfg, socket_path);
}
