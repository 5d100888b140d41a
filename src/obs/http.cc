#include "obs/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

namespace srda {
namespace obs {
namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Status";
  }
}

// Sends the whole buffer, riding out short writes and EINTR.
bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads until the blank line ending the request headers (bodies are
// ignored; the server only answers GETs). Caps the request at 64 KiB.
bool ReadRequestHead(int fd, std::string* out) {
  char buffer[4096];
  while (out->find("\r\n\r\n") == std::string::npos &&
         out->find("\n\n") == std::string::npos) {
    if (out->size() > 64 * 1024) return false;
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    out->append(buffer, static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

std::string HttpGet(int port, const std::string& path, double timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!SendAll(fd, request.data(), request.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

bool ParseHttpResponse(const std::string& raw, int* status,
                       std::string* body) {
  // "HTTP/1.x NNN text\r\n"
  if (raw.compare(0, 5, "HTTP/") != 0) return false;
  const size_t space = raw.find(' ');
  if (space == std::string::npos || space + 4 > raw.size()) return false;
  int parsed = 0;
  for (int i = 1; i <= 3; ++i) {
    const char c = raw[space + i];
    if (c < '0' || c > '9') return false;
    parsed = parsed * 10 + (c - '0');
  }
  if (status != nullptr) *status = parsed;
  if (body != nullptr) {
    const size_t header_end = raw.find("\r\n\r\n");
    *body = header_end == std::string::npos ? "" : raw.substr(header_end + 4);
  }
  return true;
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& path, Handler handler) {
  handlers_[path] = std::move(handler);
}

bool HttpServer::Start(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  // Loopback only: this is process telemetry, not a public listener.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  stop_requested_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread(&HttpServer::Loop, this);
  return true;
}

void HttpServer::Stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_relaxed);
}

void HttpServer::Loop() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    // Poll with a short timeout so Stop() is noticed without a wake-up
    // connection.
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 50);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    ServeConnection(fd);
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  // A stuck client must not wedge the accept loop.
  struct timeval tv;
  tv.tv_sec = 2;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  std::string head;
  if (!ReadRequestHead(fd, &head)) return;
  // Request line: METHOD SP path SP version.
  const size_t line_end = head.find('\n');
  std::string line = head.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  HttpResponse response;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response.status = 400;
    response.body = "malformed request line\n";
  } else if (line.substr(0, sp1) != "GET") {
    response.status = 405;
    response.body = "only GET is served\n";
  } else {
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const size_t query = path.find('?');
    if (query != std::string::npos) path = path.substr(0, query);
    const auto it = handlers_.find(path);
    if (it == handlers_.end()) {
      response.status = 404;
      response.body = "no handler for " + path + "\n";
    } else {
      response = it->second(path);
    }
  }
  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                response.status, StatusText(response.status),
                response.content_type.c_str(), response.body.size());
  if (SendAll(fd, header, std::strlen(header))) {
    SendAll(fd, response.body.data(), response.body.size());
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace srda
