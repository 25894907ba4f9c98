#include "support/telemetry/http_exporter.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include "support/json.hpp"
#include "support/telemetry/export.hpp"
#include "support/telemetry/log.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/timeseries.hpp"
#include "support/telemetry/trace.hpp"

namespace muerp::support::telemetry {

namespace {

/// Outcome of reading one request off a connection.
enum class ReadStatus { kOk, kEmpty, kHeadTooLarge, kBodyTooLarge };

const char* reason_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 401:
      return "Unauthorized";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

/// Case-insensitive header lookup in a raw header block; the trimmed value,
/// or empty when absent. `want` must be lowercase.
std::string header_of(std::string_view head, std::string_view want) {
  std::size_t pos = 0;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      std::string name(line.substr(0, colon));
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (name == want) {
        std::string value(line.substr(colon + 1));
        const std::size_t first = value.find_first_not_of(" \t");
        if (first == std::string::npos) return {};
        const std::size_t last = value.find_last_not_of(" \t\r");
        return value.substr(first, last - first + 1);
      }
    }
    pos = eol + 2;
  }
  return {};
}

/// Case-insensitive Content-Length lookup in a raw header block; -1 when
/// absent or malformed.
long content_length_of(std::string_view head) {
  const std::string value = header_of(head, "content-length");
  if (value.empty()) return -1;
  char* end = nullptr;
  const long n = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || n < 0) return -1;
  return n;
}

/// Reads one full request: head up to CRLFCRLF under the head budget, then
/// Content-Length body bytes under the body budget. GETs have no body and
/// end at the blank line, exactly as before. EINTR is retried; a timeout
/// (EAGAIN under SO_RCVTIMEO) ends the read with whatever arrived so far.
ReadStatus read_request(int fd, std::size_t max_head_bytes,
                        std::size_t max_body_bytes, HttpRequest* request) {
  std::string buffer;
  char chunk[1024];
  std::size_t head_end;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (buffer.size() >= max_head_bytes) return ReadStatus::kHeadTooLarge;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, timed out, or errored
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  if (buffer.empty()) return ReadStatus::kEmpty;
  if (head_end == std::string::npos) head_end = buffer.size();

  const std::size_t eol = std::min(buffer.find("\r\n"), head_end);
  const std::string request_line = buffer.substr(0, eol);
  std::istringstream parse(request_line);
  parse >> request->method >> request->path;
  if (const std::size_t q = request->path.find('?');
      q != std::string::npos) {
    request->query = request->path.substr(q + 1);
    request->path.resize(q);
  }

  const std::string_view headers =
      std::string_view(buffer).substr(eol, head_end - eol);
  request->authorization = header_of(headers, "authorization");
  const long declared = content_length_of(headers);
  if (declared <= 0) return ReadStatus::kOk;
  if (static_cast<std::size_t>(declared) > max_body_bytes) {
    return ReadStatus::kBodyTooLarge;
  }
  const std::size_t body_start =
      std::min(head_end + 4, buffer.size());
  request->body = buffer.substr(body_start);
  while (request->body.size() < static_cast<std::size_t>(declared)) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // truncated body: serve what arrived
    request->body.append(chunk, static_cast<std::size_t>(n));
  }
  if (request->body.size() > static_cast<std::size_t>(declared)) {
    request->body.resize(static_cast<std::size_t>(declared));
  }
  return ReadStatus::kOk;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // peer gone or send timeout — nothing to salvage
    sent += static_cast<std::size_t>(n);
  }
}

/// %XX-decodes one query component ('+' means space per form encoding).
std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

/// First value of `key` in a raw "a=1&b=2" query string, decoded; empty
/// when absent.
std::string query_param(std::string_view query, std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return url_decode(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return {};
}

/// Strictly positive seconds, or `fallback` when the parameter is absent;
/// NaN flags a malformed value.
double seconds_param(std::string_view query, std::string_view key,
                     double fallback) {
  const std::string raw = query_param(query, key);
  if (raw.empty()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0' || !std::isfinite(value) ||
      value <= 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return value;
}

}  // namespace

std::string http_query_param(std::string_view query, std::string_view key) {
  return query_param(query, key);
}

std::string HttpExporter::response(int status, const char* content_type,
                                   const std::string& body,
                                   const std::string& extra_headers) {
  std::ostringstream out;
  out << "HTTP/1.1 " << status << ' ' << reason_phrase(status) << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << extra_headers << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

HttpExporter::HttpExporter() : HttpExporter(Options()) {}

HttpExporter::HttpExporter(Options options) : options_(std::move(options)) {
  register_builtin_routes();
}

HttpExporter::~HttpExporter() { stop(); }

void HttpExporter::register_builtin_routes() {
  add_route("GET", "/metrics", [](const HttpRequest&) {
    return response(200, "text/plain; version=0.0.4; charset=utf-8",
                    to_openmetrics(capture_process()));
  });
  add_route("GET", "/healthz",
            [this](const HttpRequest&) { return respond_health(); });
  add_route("GET", "/snapshot.json", [](const HttpRequest&) {
    const std::vector<LogEvent> events = recent_log_events();
    return response(200, "application/json",
                    snapshot_document(capture_process(), events));
  });
  add_route("GET", "/api/v1/range", [this](const HttpRequest& request) {
    return respond_range(request.query);
  });
  add_route("GET", "/api/v1/metrics",
            [this](const HttpRequest&) { return respond_series_index(); });
  add_route("GET", "/",
            [this](const HttpRequest&) { return respond_index(); });
}

bool HttpExporter::start(std::string* error) {
  if (running_.load()) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    if (error != nullptr) {
      *error = "invalid bind address '" + options_.bind_address + "'";
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port_ = ntohs(bound.sin_port);

  start_ns_ = monotonic_now_ns();
  running_.store(true);
  acceptor_ = std::thread([this] { serve(); });
  return true;
}

void HttpExporter::stop() {
  if (!running_.exchange(false)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  // shutdown() wakes the blocking accept() (returns with an error on
  // Linux); close() alone can leave it sleeping.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpExporter::add_route(std::string method, std::string path,
                             RouteHandler handler) {
  const std::lock_guard<std::mutex> lock(routes_mutex_);
  for (Route& route : routes_) {
    if (route.method == method && route.path == path) {
      route.handler = std::move(handler);
      return;
    }
  }
  routes_.push_back(Route{std::move(method), std::move(path),
                          std::move(handler), false});
}

void HttpExporter::add_prefix_route(std::string method, std::string prefix,
                                    RouteHandler handler) {
  const std::lock_guard<std::mutex> lock(routes_mutex_);
  for (Route& route : routes_) {
    if (route.prefix && route.method == method && route.path == prefix) {
      route.handler = std::move(handler);
      return;
    }
  }
  routes_.push_back(Route{std::move(method), std::move(prefix),
                          std::move(handler), true});
}

void HttpExporter::set_health_fields(
    std::function<void(std::string&)> appender) {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  health_appender_ = std::move(appender);
}

void HttpExporter::set_time_series(const TimeSeriesStore* store) {
  time_series_.store(store);
}

void HttpExporter::serve() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) break;
      if (errno == EINTR) continue;
      break;  // listening socket gone
    }
    if (options_.recv_timeout_ms > 0) {
      timeval timeout{};
      timeout.tv_sec = options_.recv_timeout_ms / 1000;
      timeout.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    }
    HttpRequest request;
    const ReadStatus status =
        read_request(fd, options_.max_request_bytes, options_.max_body_bytes,
                     &request);
    if (status == ReadStatus::kHeadTooLarge) {
      send_all(fd,
               response(431, "text/plain", "request head too large\n"));
    } else if (status == ReadStatus::kBodyTooLarge) {
      send_all(fd,
               response(413, "text/plain", "request body too large\n"));
    } else if (status == ReadStatus::kOk) {
      send_all(fd, respond(request));
    }
    // kEmpty: the client connected and sent nothing before closing or
    // timing out — drop it without counting a request.
    ::close(fd);
    if (status != ReadStatus::kEmpty) requests_.fetch_add(1);
  }
}

std::string HttpExporter::respond(const HttpRequest& request) {
  RouteHandler handler;
  std::string allow;
  {
    const std::lock_guard<std::mutex> lock(routes_mutex_);
    for (const Route& route : routes_) {
      if (route.prefix || route.path != request.path) continue;
      if (route.method == request.method) {
        handler = route.handler;
        break;
      }
      // Path exists under another method — collect it for Allow:.
      if (!allow.empty()) allow += ", ";
      allow += route.method;
    }
    if (!handler && allow.empty()) {
      // No exact route: longest matching prefix route wins.
      std::size_t best = 0;
      for (const Route& route : routes_) {
        if (!route.prefix || route.method != request.method) continue;
        if (request.path.compare(0, route.path.size(), route.path) != 0) {
          continue;
        }
        if (route.path.size() >= best) {
          best = route.path.size();
          handler = route.handler;
        }
      }
    }
  }
  if (handler) return handler(request);
  if (!allow.empty()) {
    return response(405, "application/json",
                    "{\"error\": " +
                        json::quote("method " + request.method +
                                    " not allowed here; use " + allow) +
                        "}\n",
                    "Allow: " + allow + "\r\n");
  }
  return respond_not_found();
}

std::string HttpExporter::respond_health() {
  std::string body = "{\"status\": \"ok\"";
  body += ", \"uptime_s\": ";
  json::append_number(
      body, static_cast<double>(monotonic_now_ns() - start_ns_) / 1e9);
  body += ", \"requests\": " + std::to_string(requests_.load());
  body += ", \"telemetry\": ";
  body += MUERP_TELEMETRY_ENABLED ? "true" : "false";
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    if (health_appender_) health_appender_(body);
  }
  body += "}\n";
  return response(200, "application/json", body);
}

std::string HttpExporter::respond_index() {
  std::string body =
      "muerp telemetry endpoint\n"
      "  /metrics         Prometheus text exposition\n"
      "  /healthz         health JSON\n"
      "  /snapshot.json   metrics + recent events JSON\n"
      "  /api/v1/range    windowed time series "
      "(?metric=...&window=<s>&step=<s>)\n"
      "  /api/v1/metrics  names the time-series store has history for\n";
  // Routes mounted by the owning tool, so `curl /` stays a full sitemap.
  const std::lock_guard<std::mutex> lock(routes_mutex_);
  for (const Route& route : routes_) {
    if (route.method == "GET") continue;
    body += "  " + route.path + "  (" + route.method + ")\n";
  }
  return response(200, "text/plain", body);
}

std::string HttpExporter::respond_not_found() {
  std::string paths;
  {
    const std::lock_guard<std::mutex> lock(routes_mutex_);
    for (const Route& route : routes_) {
      if (route.path == "/") continue;
      if (!paths.empty()) paths += ", ";
      paths += route.path;
    }
  }
  return response(404, "text/plain", "unknown path; try " + paths + "\n");
}

std::string HttpExporter::respond_range(const std::string& query) {
  const TimeSeriesStore* store = time_series_.load();
  if (store == nullptr) {
    return response(404, "application/json",
                    "{\"error\": \"no time-series store attached\"}\n");
  }
  const std::string metric = query_param(query, "metric");
  if (metric.empty()) {
    return response(400, "application/json",
                    "{\"error\": \"missing ?metric=\"}\n");
  }
  const double window_s = seconds_param(query, "window", 60.0);
  const double step_s = seconds_param(query, "step", 1.0);
  if (!(window_s > 0.0) || !(step_s > 0.0) || window_s > 86400.0 ||
      step_s > window_s) {
    return response(
        400, "application/json",
        "{\"error\": \"window/step must satisfy 0 < step <= window <= "
        "86400 seconds\"}\n");
  }
  const auto window_ns = static_cast<std::uint64_t>(window_s * 1e9);
  const auto step_ns = static_cast<std::uint64_t>(step_s * 1e9);
  const RangeSeries series = store->range(metric, window_ns, step_ns);

  std::string body = "{\"metric\": ";
  json::append_quoted(body, metric);
  body += ", \"kind\": \"";
  body += metric_kind_name(series.kind);
  body += "\", \"window_s\": ";
  json::append_number(body, window_s);
  body += ", \"step_s\": ";
  json::append_number(body, step_s);
  body += ", \"samples\": " + std::to_string(store->size());
  body += ", \"points\": [";
  const bool histogram = series.kind == MetricKind::kHistogram;
  for (std::size_t i = 0; i < series.points.size(); ++i) {
    const RangePoint& p = series.points[i];
    if (i != 0) body += ", ";
    body += "{\"t_s\": ";
    json::append_number(body, p.t_s);
    body += ", \"value\": ";
    json::append_number(body, p.value);
    if (histogram) {
      body += ", \"p50\": ";
      json::append_number(body, p.p50);
      body += ", \"p95\": ";
      json::append_number(body, p.p95);
      body += ", \"p99\": ";
      json::append_number(body, p.p99);
    }
    body += '}';
  }
  body += "]}\n";
  return response(200, "application/json", body);
}

std::string HttpExporter::respond_series_index() {
  const TimeSeriesStore* store = time_series_.load();
  if (store == nullptr) {
    return response(404, "application/json",
                    "{\"error\": \"no time-series store attached\"}\n");
  }
  std::string body = "{\"samples\": " + std::to_string(store->size());
  body += ", \"capacity\": " + std::to_string(store->capacity());
  body += ", \"metrics\": [";
  const std::vector<MetricEntry> entries = store->metrics();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) body += ", ";
    body += "{\"name\": ";
    json::append_quoted(body, entries[i].name);
    body += ", \"kind\": \"";
    body += metric_kind_name(entries[i].kind);
    body += "\"}";
  }
  body += "]}\n";
  return response(200, "application/json", body);
}

}  // namespace muerp::support::telemetry
