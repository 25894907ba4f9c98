#include "process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "ctl/client.hpp"

extern char** environ;

namespace muerpbench {

ChildProcess::~ChildProcess() {
  if (pid_ > 0 && !exited_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

bool ChildProcess::spawn(const std::vector<std::string>& argv,
                         const std::string& stderr_path, std::string* error) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    pid_ = -1;
    *error = "spawn " + argv[0] + ": " + std::strerror(rc);
    return false;
  }
  stdout_fd_ = pipe_fds[0];
  return true;
}

bool ChildProcess::wait_line(const std::string& prefix, int timeout_ms,
                             std::string* rest, std::string* error) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  for (;;) {
    std::size_t line_start = 0;
    for (std::size_t nl; (nl = buffer_.find('\n', line_start)) != std::string::npos;
         line_start = nl + 1) {
      const std::string line = buffer_.substr(line_start, nl - line_start);
      if (line.rfind(prefix, 0) == 0) {
        *rest = line.substr(prefix.size());
        buffer_.erase(0, nl + 1);
        return true;
      }
    }
    buffer_.erase(0, line_start);
    const std::uint64_t now = now_ns();
    if (now >= deadline) {
      *error = "timed out waiting for '" + prefix + "'";
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int wait_ms = static_cast<int>((deadline - now) / 1'000'000ull) + 1;
    if (::poll(&pfd, 1, wait_ms) < 0 && errno != EINTR) {
      *error = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    if (pfd.revents == 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = "child closed stdout before '" + prefix + "'";
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool ChildProcess::poll_exit() {
  if (exited_ || pid_ <= 0) return true;
  int status = 0;
  const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage_);
  if (r != pid_) return false;
  exited_ = true;
  exit_ns_ = now_ns();
  exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return true;
}

bool ChildProcess::wait_exit(int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  while (!poll_exit()) {
    if (now_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

double ChildProcess::cpu_ms() const {
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage_.ru_utime) + ms(usage_.ru_stime);
}

double ChildProcess::peak_rss_mb() const {
  return static_cast<double>(usage_.ru_maxrss) / 1024.0;
}

ScrapeLog::ScrapeLog(std::vector<std::string> route_list, double hz)
    : routes(std::move(route_list)),
      period_ns(static_cast<std::uint64_t>(1e9 / hz)),
      latency_ms(routes.size()),
      bytes(routes.size()) {}

Samples ScrapeLog::pooled_latency_ms() const {
  Samples all;
  for (const Samples& s : latency_ms) all.append(s);
  return all;
}

const Samples& ScrapeLog::route_latency(const std::string& prefix) const {
  static const Samples kEmpty;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (routes[i].rfind(prefix, 0) == 0) return latency_ms[i];
  }
  return kEmpty;
}

const Samples& ScrapeLog::route_bytes(const std::string& prefix) const {
  static const Samples kEmpty;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (routes[i].rfind(prefix, 0) == 0) return bytes[i];
  }
  return kEmpty;
}

void scrape_open_loop(std::uint16_t port, std::uint64_t start_ns, ScrapeLog& log,
                      const std::function<bool()>& stop,
                      const std::function<bool()>& service_ended) {
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t due = start_ns + k * log.period_ns;
    for (std::uint64_t now = now_ns(); now < due; now = now_ns()) {
      if (stop()) return;
      const std::uint64_t wait = std::min<std::uint64_t>(due - now, 1'000'000);
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
    if (stop()) return;
    const std::size_t route = log.next_route;
    const std::uint64_t sent = now_ns();
    muerp::ctl::HttpResult result;
    std::string error;
    const bool ok =
        muerp::ctl::http_get("127.0.0.1", port, log.routes[route], &result, &error);
    const std::uint64_t done = now_ns();
    if (!ok || result.status != 200) {
      if (service_ended()) {
        ++log.ended;
        return;
      }
      ++log.attempted;
      ++log.failed;
      if (log.first_error.empty()) {
        log.first_error = log.routes[route] + ": " +
                          (ok ? "HTTP " + std::to_string(result.status) : error);
      }
    } else {
      ++log.attempted;
      log.latency_ms[route].add(static_cast<double>(done - due) / 1e6);
      log.bytes[route].add(static_cast<double>(result.body.size()));
      log.lag_ms.add(static_cast<double>(sent - due) / 1e6);
      if (log.keep_requests) log.requests.push_back({route, due, done});
    }
    log.next_route = (route + 1) % log.routes.size();
  }
}

bool wait_healthy(std::uint16_t port, int timeout_ms, std::string* error) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  for (;;) {
    muerp::ctl::HttpResult result;
    if (muerp::ctl::http_get("127.0.0.1", port, "/healthz", &result, error) &&
        result.status == 200) {
      return true;
    }
    if (now_ns() >= deadline) {
      if (error->empty()) *error = "/healthz answered " + std::to_string(result.status);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace muerpbench
