// Child processes under test (muerpd, and the harness itself in its
// set-up probe mode) and the open-loop HTTP scraper that reads them.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace muerpbench {

/// One spawned child: stdout on a pipe, stderr to a file. The destructor
/// kills and reaps a child that is still running, so no process outlives
/// the harness.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  bool spawn(const std::vector<std::string>& argv,
             const std::string& stderr_path, std::string* error);
  /// Reads stdout until a line starting with `prefix`; returns the rest of
  /// that line. Fails on EOF or after `timeout_ms`.
  bool wait_line(const std::string& prefix, int timeout_ms, std::string* rest,
                 std::string* error);
  /// Non-blocking reap; true once the child has exited.
  bool poll_exit();
  /// Blocks up to `timeout_ms` for the child to exit.
  bool wait_exit(int timeout_ms);

  int exit_code() const { return exit_code_; }
  std::uint64_t exit_ns() const { return exit_ns_; }
  double cpu_ms() const;      // user + system of the exited child
  double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  bool exited_ = false;
  int exit_code_ = -1;
  std::uint64_t exit_ns_ = 0;
  rusage usage_{};
  std::string buffer_;
};

/// Scrape results pooled over every request of a run.
struct ScrapeLog {
  std::vector<std::string> routes;
  std::uint64_t period_ns = 0;  // one request per period
  std::size_t next_route = 0;
  std::vector<Samples> latency_ms;  // per route, due time -> response
  std::vector<Samples> bytes;       // per route, response body size
  Samples lag_ms;                   // due time -> send
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ended = 0;  // requests cut off by the service exiting
  std::string first_error;
  /// Traced runs keep every answered request (route, due, done) so the
  /// caller can turn them into spans.
  struct Request {
    std::size_t route = 0;
    std::uint64_t due_ns = 0;
    std::uint64_t done_ns = 0;
  };
  bool keep_requests = false;
  std::vector<Request> requests;

  ScrapeLog(std::vector<std::string> route_list, double hz);
  Samples pooled_latency_ms() const;
  /// Latency samples of the route whose target starts with `prefix`.
  const Samples& route_latency(const std::string& prefix) const;
  const Samples& route_bytes(const std::string& prefix) const;
};

/// Open-loop scraper: one GET every log.period_ns on a fixed grid starting at
/// `start_ns`, round-robin over log.routes, one connection at a time. Each
/// request is timed from its due time, so a stall is charged to every
/// request it delays. Stops when `stop()` returns true (checked before
/// every send). A transport error or non-200 answer is a failure unless
/// `service_ended()` says the service had exited, in which case the request
/// is discarded and the loop ends.
void scrape_open_loop(std::uint16_t port, std::uint64_t start_ns, ScrapeLog& log,
                      const std::function<bool()>& stop,
                      const std::function<bool()>& service_ended);

/// Polls GET /healthz until it answers 200 or `timeout_ms` passes.
bool wait_healthy(std::uint16_t port, int timeout_ms, std::string* error);

}  // namespace muerpbench
