// End-to-end tests for tools/bkr_serve: the multi-tenant solve server
// (DESIGN.md §15). Each test forks the real binary (path injected by the
// build as BKR_SERVE_BINARY), drives its stdin/stdout pipes with
// newline-delimited JSON, and asserts on the response stream — the same
// transport a production client would use.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "core/recycle_cache.hpp"

namespace {

using Clock = std::chrono::steady_clock;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Field `key` of one response line, read with the project's JSON reader:
// "" (or `fallback`) when the line does not parse or lacks the field.
std::string str_field(const std::string& line, const std::string& key) {
  bkr::json::Value v;
  const bkr::json::Value* f =
      bkr::json::parse(line, &v) ? v.get(key, bkr::json::Type::String) : nullptr;
  return f == nullptr ? "" : f->text;
}

long long int_field(const std::string& line, const std::string& key, long long fallback = -1) {
  bkr::json::Value v;
  const bkr::json::Value* f =
      bkr::json::parse(line, &v) ? v.get(key, bkr::json::Type::Number) : nullptr;
  return f == nullptr ? fallback : static_cast<long long>(f->number);
}

// Fork/exec harness holding the child's stdin and stdout pipes.
class ServeProc {
 public:
  explicit ServeProc(const std::vector<std::string>& extra_args = {}) {
    ::signal(SIGPIPE, SIG_IGN);
    int to_child[2], from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> argv;
      static const char* bin = BKR_SERVE_BINARY;
      argv.push_back(const_cast<char*>(bin));
      for (const auto& a : extra_args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(bin, argv.data());
      std::perror("execv bkr_serve");
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
  }

  ~ServeProc() {
    if (in_fd_ >= 0) ::close(in_fd_);
    if (out_fd_ >= 0) ::close(out_fd_);
    if (pid_ > 0 && !waited_) {
      ::kill(pid_, SIGKILL);
      int st = 0;
      ::waitpid(pid_, &st, 0);
    }
  }

  [[nodiscard]] bool alive() const { return pid_ > 0 && in_fd_ >= 0; }

  void send(const std::string& line) {
    const std::string out = line + "\n";
    ASSERT_EQ(::write(in_fd_, out.data(), out.size()), ssize_t(out.size()));
  }

  void close_stdin() {
    if (in_fd_ >= 0) ::close(in_fd_);
    in_fd_ = -1;
  }

  void terminate() { ::kill(pid_, SIGTERM); }

  // Blocks until a full line arrives or the timeout lapses ("" on timeout
  // or EOF). Event lines (no "id") can be skipped by the callers that only
  // care about per-request responses.
  std::string read_line(int timeout_ms = 30000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return "";
      struct pollfd pfd{out_fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, int(left));
      if (rc <= 0) {
        if (rc < 0 && errno == EINTR) continue;
        return "";
      }
      char chunk[4096];
      const ssize_t got = ::read(out_fd_, chunk, sizeof chunk);
      if (got <= 0) return "";
      buffer_.append(chunk, size_t(got));
    }
  }

  // Next response that carries an "id" field (skips stats/event lines).
  std::string read_response(int timeout_ms = 30000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return "";
      const std::string line = read_line(int(left));
      if (line.empty()) return "";
      if (!str_field(line, "id").empty()) return line;
    }
  }

  int wait_exit(int timeout_ms = 30000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    int st = 0;
    while (Clock::now() < deadline) {
      const pid_t got = ::waitpid(pid_, &st, WNOHANG);
      if (got == pid_) {
        waited_ = true;
        return WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
      }
      ::usleep(10000);
    }
    return -1;
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  bool waited_ = false;
  std::string buffer_;
};

std::string solve_req(const std::string& id, const std::string& matrix,
                      const std::string& method, const std::string& extra = "") {
  return "{\"op\":\"solve\",\"id\":\"" + id + "\",\"matrix\":\"" + matrix +
         "\",\"method\":\"" + method + "\"" + (extra.empty() ? "" : "," + extra) + "}";
}

// A request that can never converge (tol=0 is the documented smoother
// mode) — the deterministic way to keep a worker lane busy.
std::string stuck_req(const std::string& id) {
  return solve_req(id, "poisson2d:64", "gmres", "\"tol\":0,\"max_iterations\":100000000");
}

TEST(Serve, ColdSolveThenWarmStartThroughSharedCache) {
  ServeProc srv({"-workers", "1"});
  ASSERT_TRUE(srv.alive());
  srv.send(solve_req("cold", "poisson2d:32", "gcrodr", "\"tenant\":\"a\""));
  const std::string r1 = srv.read_response();
  ASSERT_FALSE(r1.empty());
  EXPECT_EQ(str_field(r1, "status"), "converged");
  EXPECT_EQ(int_field(r1, "warm_start"), 0);
  const long long cold_iters = int_field(r1, "iterations");

  // Same operator from a different tenant: the recycle space deposited by
  // the first session must warm-start the second.
  srv.send(solve_req("warm", "poisson2d:32", "gcrodr", "\"tenant\":\"b\""));
  const std::string r2 = srv.read_response();
  ASSERT_FALSE(r2.empty());
  EXPECT_EQ(str_field(r2, "status"), "converged");
  EXPECT_EQ(int_field(r2, "warm_start"), 1);
  EXPECT_LT(int_field(r2, "iterations"), cold_iters);

  srv.send("{\"op\":\"shutdown\"}");
  EXPECT_EQ(srv.wait_exit(), 0);
}

TEST(Serve, HeldRequestsBatchIntoOneBlockSolveBitwiseEqualToSeparate) {
  // Two tenants share an operator; held requests flush into a single
  // width-2 pseudo-block solve. The pseudo-block lanes are arithmetically
  // independent, so each tenant's answer must be bitwise identical
  // (x_hash) to the width-1 solve it would have gotten alone.
  std::map<std::string, std::string> batched_hash;
  {
    ServeProc srv({"-workers", "1"});
    ASSERT_TRUE(srv.alive());
    srv.send(solve_req("a1", "poisson2d:32", "pseudo_gmres",
                       "\"tenant\":\"a\",\"nu\":0.1,\"hold\":true"));
    srv.send(solve_req("b1", "poisson2d:32", "pseudo_gmres",
                       "\"tenant\":\"b\",\"nu\":0.2,\"hold\":true"));
    srv.send("{\"op\":\"flush\"}");
    for (int i = 0; i < 2; ++i) {
      const std::string r = srv.read_response();
      ASSERT_FALSE(r.empty());
      EXPECT_EQ(str_field(r, "status"), "converged");
      EXPECT_EQ(int_field(r, "batch_width"), 2);  // really one block solve
      batched_hash[str_field(r, "id")] = str_field(r, "x_hash");
    }
    srv.send("{\"op\":\"shutdown\"}");
    EXPECT_EQ(srv.wait_exit(), 0);
  }
  ASSERT_EQ(batched_hash.size(), 2u);

  ServeProc srv({"-workers", "1"});
  ASSERT_TRUE(srv.alive());
  srv.send(solve_req("a1", "poisson2d:32", "pseudo_gmres", "\"tenant\":\"a\",\"nu\":0.1"));
  srv.send(solve_req("b1", "poisson2d:32", "pseudo_gmres", "\"tenant\":\"b\",\"nu\":0.2"));
  for (int i = 0; i < 2; ++i) {
    const std::string r = srv.read_response();
    ASSERT_FALSE(r.empty());
    EXPECT_EQ(int_field(r, "batch_width"), 1);
    EXPECT_EQ(str_field(r, "x_hash"), batched_hash[str_field(r, "id")]);
  }
  srv.send("{\"op\":\"shutdown\"}");
  EXPECT_EQ(srv.wait_exit(), 0);
}

TEST(Serve, QueueOverflowReturnsOverloadedWithoutBlocking) {
  // One lane, queue budget 2: a stuck request plus one queued fill the
  // budget, so the burst behind them must be refused immediately with
  // typed "overloaded" responses — never block, never starve.
  ServeProc srv({"-workers", "1", "-queue", "2"});
  ASSERT_TRUE(srv.alive());
  srv.send(stuck_req("stuck"));
  ::usleep(200000);  // let the lane pick the stuck solve up
  srv.send(solve_req("q1", "poisson2d:16", "cg"));
  srv.send(solve_req("q2", "poisson2d:16", "cg"));
  srv.send(solve_req("q3", "poisson2d:16", "cg"));

  int overloaded = 0;
  const auto start = Clock::now();
  for (int i = 0; i < 2; ++i) {
    const std::string r = srv.read_response(5000);
    ASSERT_FALSE(r.empty());
    EXPECT_EQ(str_field(r, "status"), "overloaded");
    EXPECT_EQ(str_field(r, "reason"), "queue-full");
    ++overloaded;
  }
  const auto waited =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start).count();
  EXPECT_EQ(overloaded, 2);
  EXPECT_LT(waited, 2000);  // refusals arrive while the lane is still busy

  // Cancelling the stuck solve lets the queued request drain normally.
  srv.send("{\"op\":\"cancel\",\"id\":\"stuck\"}");
  bool saw_cancelled = false, saw_q1 = false;
  for (int i = 0; i < 2; ++i) {
    const std::string r = srv.read_response();
    ASSERT_FALSE(r.empty());
    if (str_field(r, "id") == "stuck") {
      EXPECT_EQ(str_field(r, "status"), "cancelled");
      saw_cancelled = true;
    } else if (str_field(r, "id") == "q1") {
      EXPECT_EQ(str_field(r, "status"), "converged");
      saw_q1 = true;
    }
  }
  EXPECT_TRUE(saw_cancelled);
  EXPECT_TRUE(saw_q1);
  srv.send("{\"op\":\"shutdown\"}");
  EXPECT_EQ(srv.wait_exit(), 0);
}

TEST(Serve, TenantCapRefusesTypedNotBlocking) {
  ServeProc srv({"-workers", "1", "-tenant_cap", "1"});
  ASSERT_TRUE(srv.alive());
  srv.send(stuck_req("t1"));
  ::usleep(100000);
  srv.send(solve_req("t2", "poisson2d:16", "cg", "\"tenant\":\"default\""));
  const std::string r = srv.read_response(5000);
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(str_field(r, "id"), "t2");
  EXPECT_EQ(str_field(r, "status"), "overloaded");
  EXPECT_EQ(str_field(r, "reason"), "tenant-cap");
  // A different tenant is unaffected by the cap.
  srv.send(solve_req("u1", "poisson2d:16", "cg", "\"tenant\":\"other\""));
  srv.send("{\"op\":\"cancel\",\"id\":\"t1\"}");
  for (int i = 0; i < 2; ++i) ASSERT_FALSE(srv.read_response().empty());
  srv.send("{\"op\":\"shutdown\"}");
  EXPECT_EQ(srv.wait_exit(), 0);
}

TEST(Serve, TightDeadlineRefusedWithinAHundredMilliseconds) {
  ServeProc srv({"-workers", "1"});
  ASSERT_TRUE(srv.alive());
  // Warm-up on the same operator so the timed request measures the
  // deadline refusal, not the one-off matrix assembly.
  srv.send(solve_req("prep", "poisson2d:256", "cg", "\"tol\":0.5,\"max_iterations\":3"));
  ASSERT_FALSE(srv.read_response().empty());
  const auto start = Clock::now();
  srv.send(solve_req("t1", "poisson2d:256", "gmres", "\"tol\":1e-14,\"deadline_ms\":1"));
  const std::string r = srv.read_response(5000);
  const auto waited =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start).count();
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(str_field(r, "status"), "deadline-exceeded");
  EXPECT_LT(waited, 100);
  srv.send("{\"op\":\"shutdown\"}");
  EXPECT_EQ(srv.wait_exit(), 0);
}

TEST(Serve, DegradationLadderFallsBackGcrodrToGmres) {
  ServeProc srv({"-workers", "1"});
  ASSERT_TRUE(srv.alive());
  srv.send("{\"op\":\"degrade\",\"level\":3}");
  ::usleep(100000);  // the level is read at execution time
  srv.send(solve_req("d1", "poisson2d:32", "gcrodr"));
  const std::string r = srv.read_response();
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(str_field(r, "status"), "converged");
  EXPECT_EQ(str_field(r, "method"), "gmres");  // method-fallback rung
  EXPECT_EQ(int_field(r, "degraded"), 3);
  srv.send("{\"op\":\"shutdown\"}");
  EXPECT_EQ(srv.wait_exit(), 0);
}

TEST(Serve, SigtermDrainsInFlightWorkAndSnapshotsCache) {
  const std::string snap = temp_path("bkr_serve_sigterm.bkrc");
  std::remove(snap.c_str());
  {
    ServeProc srv({"-workers", "1", "-cache_file", snap, "-drain_ms", "500"});
    ASSERT_TRUE(srv.alive());
    // A completed recycling solve puts one space in the cache...
    srv.send(solve_req("warm", "poisson2d:16", "gcrodr"));
    ASSERT_EQ(str_field(srv.read_response(), "status"), "converged");
    // ...and a stuck request is mid-flight when SIGTERM lands.
    srv.send(stuck_req("stuck"));
    ::usleep(200000);
    srv.terminate();
    // Drain: the in-flight solve is cancelled at the drain deadline and
    // still gets its response before the process exits cleanly.
    const std::string r = srv.read_response(10000);
    ASSERT_FALSE(r.empty());
    EXPECT_EQ(str_field(r, "id"), "stuck");
    EXPECT_EQ(str_field(r, "status"), "cancelled");
    EXPECT_EQ(srv.wait_exit(10000), 0);
  }
  // The snapshot written during shutdown is a loadable cache image.
  bkr::RecycleCache loaded;
  ASSERT_TRUE(loaded.load(snap));
  EXPECT_GE(loaded.counters().entries, 1u);
  std::remove(snap.c_str());
}

TEST(Serve, MalformedAndInvalidRequestsAreRejectedTyped) {
  ServeProc srv({"-workers", "1"});
  ASSERT_TRUE(srv.alive());
  srv.send("this is not json");
  std::string r = srv.read_line(5000);
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(str_field(r, "status"), "rejected");
  srv.send(solve_req("bad", "poisson2d:32", "no_such_method"));
  r = srv.read_response(5000);
  EXPECT_EQ(str_field(r, "status"), "rejected");
  srv.send(solve_req("nomat", "not-a-spec", "cg"));
  r = srv.read_response(5000);
  EXPECT_EQ(str_field(r, "status"), "rejected");
  // Solve parameters no solver can run are rejected at admission, so
  // they never reach a solver and never count as its hard failures.
  for (const auto& [id, method, extra] :
       {std::tuple{"m-neg", "gmres", "\"m\":-3"}, std::tuple{"m-zero", "cg", "\"m\":0"},
        std::tuple{"m-one-gcrodr", "gcrodr", "\"m\":1"},
        std::tuple{"m-one-pseudo", "pseudo_gcrodr", "\"m\":1"},
        std::tuple{"budget-neg", "gmres", "\"max_iterations\":-1"},
        std::tuple{"tol-neg", "gcrodr", "\"tol\":-1e-8"},
        std::tuple{"tol-nan", "gcrodr", "\"tol\":nan"},
        // Integer fields that no int64_t holds (converting them would be
        // undefined behaviour).
        std::tuple{"nrhs-huge", "gmres", "\"nrhs\":1e30"},
        std::tuple{"m-nan", "gmres", "\"m\":nan"},
        std::tuple{"k-huge-neg", "gcrodr", "\"k\":-1e300"},
        std::tuple{"budget-huge", "gmres", "\"max_iterations\":1e19"},
        // A deadline the steady clock cannot add to the arrival time.
        std::tuple{"deadline-huge", "cg", "\"deadline_ms\":1e18"}}) {
    srv.send(solve_req(id, "poisson2d:16", method, extra));
    r = srv.read_response(5000);
    EXPECT_EQ(str_field(r, "status"), "rejected") << id;
    EXPECT_EQ(str_field(r, "error"), "bad solve request") << id;
  }
  // A degrade level outside int64_t is refused the same way.
  for (const char* level : {"1e30", "nan", "-1e300"}) {
    srv.send(std::string("{\"op\":\"degrade\",\"level\":") + level + "}");
    do {
      r = srv.read_line(5000);
    } while (!r.empty() && str_field(r, "status").empty());  // skip event lines
    EXPECT_EQ(str_field(r, "status"), "rejected") << level;
    EXPECT_EQ(str_field(r, "error"), "bad degrade request") << level;
  }
  // The degradation ladder did not move: a valid recycling solve runs at
  // level 0.
  srv.send(solve_req("valid", "poisson2d:16", "gcrodr"));
  r = srv.read_response(5000);
  EXPECT_EQ(str_field(r, "status"), "converged");
  EXPECT_EQ(int_field(r, "degraded"), 0);
  // Duplicate in-flight id.
  srv.send(stuck_req("dup"));
  ::usleep(100000);
  srv.send(stuck_req("dup"));
  r = srv.read_response(5000);
  EXPECT_EQ(str_field(r, "status"), "rejected");
  srv.send("{\"op\":\"cancel\",\"id\":\"dup\"}");
  ASSERT_FALSE(srv.read_response().empty());
  srv.send("{\"op\":\"shutdown\"}");
  EXPECT_EQ(srv.wait_exit(), 0);
}

// A control character in a request id comes back escaped, so every
// response line stays valid JSON.
TEST(Serve, ControlCharactersInIdsComeBackEscaped) {
  ServeProc srv({"-workers", "1"});
  ASSERT_TRUE(srv.alive());
  srv.send(solve_req("a\\tb", "poisson2d:16", "cg"));
  const std::string r = srv.read_response(5000);
  ASSERT_FALSE(r.empty());
  for (const char c : r) EXPECT_GE(static_cast<unsigned char>(c), 0x20) << r;
  EXPECT_EQ(str_field(r, "id"), "a\tb");
  EXPECT_EQ(str_field(r, "status"), "converged");
  srv.send("{\"op\":\"shutdown\"}");
  EXPECT_EQ(srv.wait_exit(), 0);
}

TEST(Serve, EofOnStdinShutsDownGracefully) {
  ServeProc srv({"-workers", "1"});
  ASSERT_TRUE(srv.alive());
  srv.send(solve_req("r1", "poisson2d:16", "cg"));
  ASSERT_EQ(str_field(srv.read_response(), "status"), "converged");
  srv.close_stdin();
  EXPECT_EQ(srv.wait_exit(), 0);
}

}  // namespace
