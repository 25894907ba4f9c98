#include "ctl/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "support/json.hpp"

namespace muerp::ctl {

namespace {

bool send_request(const std::string& host, std::uint16_t port,
                  const std::string& request, HttpResult* out,
                  std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "socket: " + std::string(std::strerror(errno));
    return false;
  }
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    *error = "endpoint host must be an IPv4 address, got '" + host + "'";
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    *error = "connect " + host + ":" + std::to_string(port) + ": " +
             std::strerror(errno);
    ::close(fd);
    return false;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = "send: " + std::string(std::strerror(errno));
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      *error = "recv: " + std::string(std::strerror(errno));
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (response.rfind("HTTP/1.", 0) != 0) {
    *error = "malformed response";
    return false;
  }
  out->status = std::atoi(response.c_str() + 9);
  const std::size_t head_end = response.find("\r\n\r\n");
  out->body = head_end == std::string::npos ? std::string()
                                            : response.substr(head_end + 4);
  return true;
}

}  // namespace

bool parse_endpoint(const std::string& endpoint, std::string* host,
                    std::uint16_t* port, std::string* error) {
  std::string host_part = "127.0.0.1";
  std::string port_part = endpoint;
  const std::size_t colon = endpoint.rfind(':');
  if (colon != std::string::npos) {
    host_part = endpoint.substr(0, colon);
    port_part = endpoint.substr(colon + 1);
  }
  if (host_part.empty() || port_part.empty() ||
      port_part.find_first_not_of("0123456789") != std::string::npos) {
    *error = "endpoint must be 'host:port' or 'port', got '" + endpoint + "'";
    return false;
  }
  const long value = std::strtol(port_part.c_str(), nullptr, 10);
  if (value <= 0 || value > 65535) {
    *error = "endpoint port out of range: '" + port_part + "'";
    return false;
  }
  *host = host_part;
  *port = static_cast<std::uint16_t>(value);
  return true;
}

bool http_get(const std::string& host, std::uint16_t port,
              const std::string& target, HttpResult* out,
              std::string* error) {
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  return send_request(host, port, request, out, error);
}

bool http_post(const std::string& host, std::uint16_t port,
               const std::string& target, const std::string& body,
               HttpResult* out, std::string* error,
               const std::string& bearer_token) {
  std::string request = "POST " + target + " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n";
  if (!bearer_token.empty()) {
    request += "Authorization: Bearer " + bearer_token + "\r\n";
  }
  request += "Content-Type: application/json\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
  return send_request(host, port, request, out, error);
}

bool ctl_request(const std::string& endpoint, const std::string& cmd,
                 const std::string& args_json, HttpResult* out,
                 std::string* error, const std::string& bearer_token) {
  std::string host;
  std::uint16_t port = 0;
  if (!parse_endpoint(endpoint, &host, &port, error)) return false;
  std::string body = "{\"cmd\": " + support::json::quote(cmd);
  if (!args_json.empty()) body += ", \"args\": " + args_json;
  body += "}";
  return http_post(host, port, "/api/v1/ctl", body, out, error, bearer_token);
}

}  // namespace muerp::ctl
