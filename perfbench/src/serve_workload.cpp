// serve-open-loop: the generator process. It spawns bkr_serve over a
// pipe, warms it up, then sends a seeded open-loop arrival schedule at a
// fixed offered rate and times every request from when it was due. A
// reader thread timestamps each response line as it arrives and checks
// the returned solution against an operator rebuilt from the same spec.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "calibrate.hpp"
#include "fem/poisson2d.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "verify.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using bkr::index_t;

// trace.coverage on serve: the share of request latency its child spans
// (gen.send, serve.wait, serve.solve) cover. They tile the latency, so it
// reads 1 unless spans are missing (below the floor) or overlap (above 1:
// the server reported a solve longer than the request was in flight).
constexpr double kCoverageFloor = 0.8;
// How long the generator waits for stragglers after the schedule ends.
constexpr double kResponseGraceSeconds = 30.0;
// Pause between speed-probe samples while the schedule runs.
constexpr auto kProbeInterval = std::chrono::milliseconds(250);

// One response line, parsed: flat object of strings and numbers plus the
// optional "x" solution array.
struct Response {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
  std::vector<double> x;

  [[nodiscard]] std::string str(const std::string& k) const {
    const auto it = strings.find(k);
    return it == strings.end() ? std::string() : it->second;
  }
  [[nodiscard]] double num(const std::string& k) const {
    const auto it = numbers.find(k);
    return it == numbers.end() ? 0.0 : it->second;
  }
};

bool parse_response(const std::string& line, Response* out) {
  size_t i = 0;
  const auto skip = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  const auto string_token = [&](std::string* s) {
    if (i >= line.size() || line[i] != '"') return false;
    const size_t end = line.find('"', i + 1);
    if (end == std::string::npos) return false;
    *s = line.substr(i + 1, end - i - 1);
    i = end + 1;
    return true;
  };
  const auto number = [&](double* v) {
    char* end = nullptr;
    *v = std::strtod(line.c_str() + i, &end);
    if (end == line.c_str() + i) return false;
    i = size_t(end - line.c_str());
    return true;
  };
  skip();
  if (i >= line.size() || line[i++] != '{') return false;
  while (true) {
    skip();
    std::string key;
    if (!string_token(&key)) return false;
    skip();
    if (i >= line.size() || line[i++] != ':') return false;
    skip();
    if (i >= line.size()) return false;
    if (line[i] == '"') {
      std::string v;
      if (!string_token(&v)) return false;
      out->strings[key] = v;
    } else if (line[i] == '[') {
      ++i;
      skip();
      while (i < line.size() && line[i] != ']') {
        double v = 0;
        if (!number(&v)) return false;
        out->x.push_back(v);
        skip();
        if (i < line.size() && line[i] == ',') ++i;
        skip();
      }
      if (i >= line.size()) return false;
      ++i;
    } else {
      double v = 0;
      if (!number(&v)) return false;
      out->numbers[key] = v;
    }
    skip();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    return i < line.size() && line[i] == '}';
  }
}

// The bkr_serve child: stdin/stdout pipes, and a shutdown that waits for
// the exit and collects the child's peak resident memory. The destructor
// kills and reaps a child that is still running, so no path leaks it.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, int workers) {
    int in[2], out[2];
    if (::pipe2(in, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    if (::pipe2(out, O_CLOEXEC) != 0) {
      ::close(in[0]);
      ::close(in[1]);
      throw std::runtime_error("pipe failed");
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
    const std::string workers_arg = std::to_string(workers);
    const char* argv[] = {bin.c_str(), "-workers", workers_arg.c_str(), nullptr};
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, const_cast<char* const*>(argv),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(in[0]);
    ::close(out[1]);
    to_server_ = in[1];
    from_server_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      close_fds();
      throw std::runtime_error("cannot start " + bin + ": " + std::strerror(rc));
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    terminate();
    close_fds();
  }

  // Kills and reaps a child that is still running.
  void terminate() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  [[nodiscard]] int read_fd() const { return from_server_; }

  bool send(const std::string& line) {
    std::string full = line + "\n";
    size_t off = 0;
    while (off < full.size()) {
      const ssize_t w = ::write(to_server_, full.data() + off, full.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += size_t(w);
    }
    return true;
  }

  // Sends {"op":"shutdown"}, closes stdin and waits up to `timeout_s` for
  // the exit. Returns true on a clean exit 0; `peak_rss_mb` gets the
  // child's peak resident set.
  bool shutdown(double timeout_s, double* peak_rss_mb) {
    send("{\"op\":\"shutdown\"}");
    ::close(to_server_);
    to_server_ = -1;
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    int status = 0;
    struct rusage ru {};
    while (true) {
      const pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) {
        pid_ = -1;
        return false;
      }
      if (Clock::now() >= deadline) {
        terminate();
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    if (peak_rss_mb != nullptr) *peak_rss_mb = double(ru.ru_maxrss) / 1024.0;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void close_fds() {
    if (to_server_ >= 0) ::close(to_server_);
    if (from_server_ >= 0) ::close(from_server_);
    to_server_ = from_server_ = -1;
  }

  pid_t pid_ = -1;
  int to_server_ = -1;
  int from_server_ = -1;
};

// One request of the schedule and what became of it.
struct Request {
  std::string id;
  std::string line;          // JSON request line
  double due_s = 0;          // offset from the schedule start
  size_t spec = 0;           // index into the operator specs
  double nu = 0;
  std::string method;
  bool flush_after = false;  // last member of a hold group
  // Written by the generator (main thread):
  Clock::time_point due, sent;
  // Written by the reader thread:
  bool answered = false;
  Clock::time_point answered_at;
  Response response;
  double residual = 0;
  bool verified = false;
};

// Operators the verifier rebuilds from the specs, via fem.
struct Operators {
  std::vector<index_t> grids;
  std::vector<bkr::CsrMatrix<double>> matrices;
};

// Reads response lines until EOF, timestamps each one and hands it to the
// matching request (by id), or to the pending stats slot.
class ResponseReader {
 public:
  ResponseReader(int fd, std::vector<Request>& requests, std::vector<Request>& warmups,
                 const Operators& ops, double tol)
      : fd_(fd), requests_(requests), warmups_(warmups), ops_(ops), tol_(tol) {
    thread_ = std::thread([this] { loop(); });
  }
  ResponseReader(const ResponseReader&) = delete;
  ResponseReader& operator=(const ResponseReader&) = delete;
  ~ResponseReader() {
    if (thread_.joinable()) thread_.join();
  }
  // Joins the reader; returns once the server has closed its stdout.
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  // Waits until `count` warm-up or schedule responses have arrived.
  bool wait_answers(bool warmup, size_t count, Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_until(lock, deadline, [&] {
      return (warmup ? warm_answers_ : answers_) >= count || eof_;
    }) && (warmup ? warm_answers_ : answers_) >= count;
  }
  // Next {"event":"stats"} line after the call; empty on timeout.
  Response wait_stats(size_t seen_before, Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_until(lock, deadline, [&] { return stats_.size() > seen_before || eof_; });
    return stats_.size() > seen_before ? stats_[seen_before] : Response{};
  }
  size_t stats_seen() {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_.size();
  }
  [[nodiscard]] size_t unmatched() const { return unmatched_; }

 private:
  void loop() {
    std::string buffer;
    char chunk[1 << 16];
    while (true) {
      const ssize_t r = ::read(fd_, chunk, sizeof chunk);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      const auto now = Clock::now();
      buffer.append(chunk, size_t(r));
      size_t nl = 0;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        handle(buffer.substr(0, nl), now);
        buffer.erase(0, nl + 1);
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    eof_ = true;
    cv_.notify_all();
  }

  void handle(const std::string& line, Clock::time_point at) {
    Response resp;
    if (!parse_response(line, &resp)) {
      ++unmatched_;
      return;
    }
    if (resp.str("event") == "stats") {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.push_back(std::move(resp));
      cv_.notify_all();
      return;
    }
    const std::string id = resp.str("id");
    const bool warmup = !id.empty() && id[0] == 'w';
    std::vector<Request>& pool = warmup ? warmups_ : requests_;
    const size_t index = id.size() > 1 ? std::strtoull(id.c_str() + 1, nullptr, 10) : pool.size();
    if (index >= pool.size() || pool[index].id != id || pool[index].answered) {
      ++unmatched_;
      return;
    }
    Request& req = pool[index];
    req.answered_at = at;
    req.response = std::move(resp);
    verify(req);
    std::lock_guard<std::mutex> lock(mutex_);
    req.answered = true;
    ++(warmup ? warm_answers_ : answers_);
    cv_.notify_all();
  }

  // The server solves A x = poisson2d_rhs(grid, grid, nu) for a width-1
  // request; the benchmark recomputes the true residual of the returned x.
  void verify(Request& req) const {
    const Response& r = req.response;
    if (r.str("status") != "converged" || r.num("converged") != 1.0) return;
    const index_t g = ops_.grids[req.spec];
    const auto& a = ops_.matrices[req.spec];
    if (index_t(r.x.size()) != a.rows()) return;
    const auto b = bkr::poisson2d_rhs(g, g, req.nu);
    req.residual = true_relative_residual(a, b.data(), r.x.data());
    req.verified = req.residual <= kResidualSlack * tol_;
    req.response.x = {};  // checked; the generator keeps no solutions
  }

  int fd_;
  std::vector<Request>& requests_;
  std::vector<Request>& warmups_;
  const Operators& ops_;
  double tol_;
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t answers_ = 0;
  size_t warm_answers_ = 0;
  std::vector<Response> stats_;
  bool eof_ = false;
  size_t unmatched_ = 0;  // reader thread only
  std::thread thread_;
};

std::string request_line(const std::string& id, const std::string& tenant, index_t grid,
                         const std::string& method, double nu, double tol, bool hold) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"op\":\"solve\",\"id\":\"%s\",\"tenant\":\"%s\",\"matrix\":\"poisson2d:%lld\","
                "\"method\":\"%s\",\"nu\":%.17g,\"tol\":%.17g,\"return_x\":true%s}",
                id.c_str(), tenant.c_str(), static_cast<long long>(grid), method.c_str(), nu, tol,
                hold ? ",\"hold\":true" : "");
  return buf;
}

// The seeded open-loop schedule: rate x span arrivals, the i-th at a
// uniform time within the i-th of as many equal slots of the span. An
// arrival is one request or a hold+flush group of requests sharing spec
// and method, which the server solves as one block batch. The mix of
// specs, methods and group sizes is balanced and the seed only shuffles
// it; the source widths nu are stratified over [0.05, 0.5] on a log scale
// and shuffled. So every seed offers the same work in a different order,
// and latency quantiles differ between seeds only as much as the order
// makes them. (With independent uniform arrival times, a Poisson
// process, and independent widths, latency_p90_ms differed by up to 20%
// between seeds.)
std::vector<Request> make_schedule(const ServeSpec& spec, double span_s, InputRng& rng) {
  const std::vector<std::string> group_methods = {"gmres", "gcrodr", "pseudo_gcrodr"};
  const auto arrivals = size_t(std::lround(spec.rate_rps * span_s));
  const auto groups = size_t(std::lround(spec.group_share * double(arrivals)));
  struct Kind {
    size_t spec;
    std::string method;
    int members;
  };
  std::vector<Kind> kinds;
  const size_t nspecs = spec.grids.size();
  for (size_t i = 0; i < arrivals; ++i) {
    const size_t round = i / nspecs;
    if (i < groups)
      kinds.push_back({i % nspecs, group_methods[round % group_methods.size()],
                       spec.group_min + int(round % size_t(spec.group_max - spec.group_min + 1))});
    else
      kinds.push_back({i % nspecs, spec.methods[round % spec.methods.size()], 1});
  }
  rng.shuffle(kinds);
  std::vector<double> times(arrivals);
  for (size_t i = 0; i < arrivals; ++i)
    times[i] = (double(i) + rng.uniform()) * span_s / double(arrivals);
  size_t total = 0;
  for (const Kind& kind : kinds) total += size_t(kind.members);
  std::vector<double> nus(total);
  for (size_t k = 0; k < total; ++k)
    nus[k] = 0.05 * std::pow(10.0, (double(k) + rng.uniform()) / double(total));
  rng.shuffle(nus);

  std::vector<Request> out;
  for (size_t i = 0; i < arrivals; ++i) {
    const Kind& kind = kinds[i];
    for (int k = 0; k < kind.members; ++k) {
      Request r;
      r.id = "q" + std::to_string(out.size());
      r.due_s = times[i];
      r.spec = kind.spec;
      r.nu = nus[out.size()];
      r.method = kind.method;
      r.flush_after = kind.members > 1 && k + 1 == kind.members;
      const std::string tenant = "t" + std::to_string(rng.index(size_t(spec.tenants)));
      r.line = request_line(r.id, tenant, spec.grids[kind.spec], kind.method, r.nu, spec.tol,
                            kind.members > 1);
      out.push_back(std::move(r));
    }
  }
  return out;
}

// One warm-up gcrodr request per operator spec: the registry assembles
// each operator lazily and the first cache deposit happens here.
std::vector<Request> make_warmups(const ServeSpec& spec) {
  std::vector<Request> out;
  for (size_t s = 0; s < spec.grids.size(); ++s) {
    Request r;
    r.id = "w" + std::to_string(s);
    r.spec = s;
    r.nu = 0.1;
    r.method = "gcrodr";
    r.line = request_line(r.id, "warmup", spec.grids[s], r.method, r.nu, spec.tol, false);
    out.push_back(std::move(r));
  }
  return out;
}

// A spawned server whose warm-up requests have all completed. Stopping
// (or destroying) it ends the child before joining the reader, whose read
// returns only when the child's stdout closes.
class WarmServer {
 public:
  WarmServer(const RunArgs& args, int workers, std::vector<Request>& requests,
             std::vector<Request>& warmups, const Operators& ops, double tol)
      : start_(Clock::now()),
        proc_(args.serve_bin, workers),
        reader_(proc_.read_fd(), requests, warmups, ops, tol) {
    try {
      for (const auto& r : warmups)
        if (!proc_.send(r.line)) throw std::runtime_error("server closed its input during warm-up");
      if (!reader_.wait_answers(true, warmups.size(), start_ + std::chrono::seconds(30)))
        throw std::runtime_error("server warm-up did not complete");
      ready_ = Clock::now();
      for (const auto& r : warmups)
        if (!r.verified) throw std::runtime_error("warm-up request " + r.id + " failed");
    } catch (...) {
      // No destructor runs for a half-built object: end the child here so
      // the reader's join below returns.
      proc_.terminate();
      reader_.join();
      throw;
    }
  }
  WarmServer(const WarmServer&) = delete;
  WarmServer& operator=(const WarmServer&) = delete;
  ~WarmServer() {
    proc_.terminate();
    reader_.join();
  }

  // Clean shutdown; true when the server exited 0 within `timeout_s`.
  bool stop(double timeout_s, double* peak_rss_mb) {
    const bool ok = proc_.shutdown(timeout_s, peak_rss_mb);
    reader_.join();
    return ok;
  }

  [[nodiscard]] Clock::time_point started() const { return start_; }
  [[nodiscard]] Clock::time_point ready() const { return ready_; }
  ServerProcess& proc() { return proc_; }
  ResponseReader& reader() { return reader_; }

 private:
  Clock::time_point start_;
  Clock::time_point ready_;
  ServerProcess proc_;
  ResponseReader reader_;
};

}  // namespace

RunResult run_serve_open_loop(const RunArgs& args) {
  const ServeSpec spec = serve_spec(args.smoke);
  RunResult out;
  SpanRecorder rec(args.trace);
  ::signal(SIGPIPE, SIG_IGN);  // a dead server shows as a failed write, not a signal

  // Operators for the verifier, rebuilt from the same specs via fem.
  Operators ops;
  std::vector<double> assemble_s;
  for (const index_t g : spec.grids) {
    const auto t0 = Clock::now();
    ops.grids.push_back(g);
    ops.matrices.push_back(bkr::poisson2d(g, g));
    const auto t1 = Clock::now();
    rec.add("fem.assemble", t0, t1, -1, g);
    assemble_s.push_back(seconds_between(t0, t1));
  }

  const int hw = int(std::thread::hardware_concurrency());
  const int workers = std::max(1, std::min(spec.max_workers, hw - 1));
  const double span_s = spec.schedule_share * args.seconds;
  InputRng rng(args.seed);
  std::vector<Request> requests = make_schedule(spec, span_s, rng);
  std::vector<Request> warmups = make_warmups(spec);

  // Set-up: spawn to warm, several times; the last server takes the load.
  SpeedProbe probe(spec.calibrate);
  std::vector<double> setups, setup_probes, schedule_probes;
  std::unique_ptr<WarmServer> server;
  for (int i = 0; i < spec.setups; ++i) {
    if (server) server->stop(10.0, nullptr);
    server.reset();
    probe.sample(setup_probes);
    for (auto& r : warmups) r.answered = r.verified = false;  // reused across spawns
    server = std::make_unique<WarmServer>(args, workers, requests, warmups, ops, spec.tol);
    setups.push_back(seconds_between(server->started(), server->ready()));
    rec.add("serve.setup", server->started(), server->ready(), -1, i);
  }
  ServerProcess& proc = server->proc();
  ResponseReader& reader = server->reader();
  const auto stats = [&] {
    const size_t seen = reader.stats_seen();
    proc.send("{\"op\":\"stats\"}");
    return reader.wait_stats(seen, Clock::now() + std::chrono::seconds(10));
  };
  const Response before = stats();

  // The open loop: requests go out on schedule whatever the server does;
  // stdin stays open until every response is in (closing it early would
  // start the server's drain, which cancels what is still queued). The
  // speed probe samples on a thread of its own meanwhile; the server's
  // workers leave it a core.
  std::atomic<bool> sampler_failed{false};
  std::jthread sampler([&](std::stop_token stop) {
    try {
      while (!stop.stop_requested()) {
        probe.sample(schedule_probes);
        std::this_thread::sleep_for(kProbeInterval);
      }
    } catch (const std::exception&) {
      sampler_failed = true;
    }
  });
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  for (auto& r : requests) {
    r.due = at(r.due_s);
    std::this_thread::sleep_until(r.due);
    r.sent = Clock::now();
    proc.send(r.line);
    if (r.flush_after) proc.send("{\"op\":\"flush\"}");
  }
  reader.wait_answers(false, requests.size(), at(span_s + kResponseGraceSeconds));
  sampler.request_stop();
  sampler.join();
  if (sampler_failed) out.fail_check("speed probe failed");
  const Response after = stats();
  double peak_rss_mb = 0;
  if (!server->stop(10.0, &peak_rss_mb)) out.fail_check("bkr_serve did not exit cleanly");
  if (before.numbers.empty() || after.numbers.empty()) out.fail_check("stats op unanswered");
  if (reader.unmatched() != 0)
    out.fail_check(std::to_string(reader.unmatched()) + " unmatched response lines");

  // Per-request outcomes. A refused, failed, unanswered or wrong answer
  // fails and counts as missing the latency limit.
  const double limit_s = spec.latency_limit_ms / 1e3;
  std::vector<double> latency, solve_ms, wait_ms, iterations;
  int64_t good = 0, refused = 0, gcrodr_family = 0, warm = 0;
  double lag_max = 0, worst_ratio = 0;
  auto last = start;
  int64_t covered_ns = 0, latency_ns = 0;
  for (const auto& r : requests) {
    lag_max = std::max(lag_max, seconds_between(r.due, r.sent));
    const std::string status = r.answered ? r.response.str("status") : "unanswered";
    if (status == "overloaded" || status == "rejected") ++refused;
    out.op(r.verified);
    if (!r.answered) {
      latency.push_back(std::max(limit_s, seconds_between(r.due, Clock::now())));
      continue;
    }
    last = std::max(last, r.answered_at);
    const double lat = seconds_between(r.due, r.answered_at);
    latency.push_back(r.verified ? lat : std::max(lat, limit_s));
    if (r.verified && lat <= limit_s) ++good;
    if (!r.verified) continue;
    worst_ratio = std::max(worst_ratio, r.residual / spec.tol);
    const double solve = r.response.num("seconds");
    solve_ms.push_back(1e3 * solve);
    wait_ms.push_back(1e3 * (lat - solve));
    iterations.push_back(r.response.num("iterations"));
    if (r.method == "gcrodr" || r.method == "pseudo_gcrodr") {
      ++gcrodr_family;
      if (r.response.num("warm_start") == 1.0) ++warm;
    }
    if (args.trace) {
      // Spans are built after the schedule from timestamps that untraced
      // runs take as well, so tracing adds no work to the measured window.
      const int64_t id = int64_t(&r - requests.data());
      const int32_t root = rec.add("serve.request", r.due, r.answered_at, -1, id);
      const auto solve_start = r.answered_at - std::chrono::duration_cast<Clock::duration>(
                                                   std::chrono::duration<double>(solve));
      const int32_t children[] = {rec.add("gen.send", r.due, r.sent, root, id),
                                  rec.add("serve.wait", r.sent, solve_start, root, id),
                                  rec.add("serve.solve", solve_start, r.answered_at, root, id)};
      for (const int32_t c : children) covered_ns += std::max<int64_t>(0, rec.duration_ns(c));
      latency_ns += rec.duration_ns(root);
    }
  }
  std::fprintf(stderr, "serve-open-loop: %zu requests (%d workers), worst true residual %.3g x tol\n",
               requests.size(), workers, worst_ratio);

  if (!args.trace) {
    EndToEnd e;
    // Set-up and latency at the reference speed (calibrate.hpp);
    // the schedule's span and the goodput it bounds are wall time.
    const double schedule_f = probe.factor(schedule_probes);
    e.setup_s = median(setups) * probe.factor(setup_probes);
    e.solve_s = seconds_between(start, last);
    e.latency_p50_ms = 1e3 * quantile(latency, 0.5) * schedule_f;
    e.latency_p90_ms = 1e3 * quantile(latency, 0.9) * schedule_f;
    e.goodput_rps = double(good) / e.solve_s;
    e.peak_rss_mb = peak_rss_mb;
    report(out, e);
    std::fprintf(stderr,
                 "serve-open-loop: %zu latency samples, limit %.0f ms; raw p50 %.4g ms, p90 %.4g "
                 "ms; speed factor %.3f over %zu probes\n",
                 latency.size(), spec.latency_limit_ms, 1e3 * quantile(latency, 0.5),
                 1e3 * quantile(latency, 0.9), schedule_f, schedule_probes.size());
    return out;
  }

  Layers l;
  l.fem_assemble_s = std::accumulate(assemble_s.begin(), assemble_s.end(), 0.0);
  l.serve_solve_ms_p50 = median(solve_ms);
  l.serve_wait_ms_p50 = median(wait_ms);
  const int64_t batches = int64_t(after.num("batches") - before.num("batches"));
  l.serve_batches = batches;
  l.serve_batch_width_mean = batches > 0 ? double(solve_ms.size()) / double(batches) : 0.0;
  l.serve_refused = refused;
  l.serve_iterations_mean = mean(iterations);
  l.cache_hits = int64_t(after.num("cache_hits") - before.num("cache_hits"));
  l.cache_misses = int64_t(after.num("cache_misses") - before.num("cache_misses"));
  l.cache_hit_ratio = l.cache_hits + l.cache_misses > 0
                          ? double(l.cache_hits) / double(l.cache_hits + l.cache_misses)
                          : 0.0;
  l.serve_warm_ratio = gcrodr_family > 0 ? double(warm) / double(gcrodr_family) : 0.0;
  l.gen_lag_ms_max = 1e3 * lag_max;
  l.trace_overhead_ratio = 0.0;  // traced runs add no work to the schedule window (see above)
  l.trace_coverage = latency_ns > 0 ? double(covered_ns) / double(latency_ns) : 0.0;
  l.latency_samples = int64_t(latency.size());
  if (l.trace_coverage < kCoverageFloor || l.trace_coverage > 1.0)
    out.fail_check("trace.coverage " + std::to_string(l.trace_coverage) + " outside [" +
                   std::to_string(kCoverageFloor) + ", 1]");
  report(out, l);
  if (!write_trace_file(args.trace_out, args.workload, args.seed, rec, {}))
    out.fail_check("cannot write trace file " + args.trace_out);
  return out;
}

}  // namespace perfbench
