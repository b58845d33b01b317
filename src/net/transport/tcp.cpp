#include "net/transport/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "tensor/check.h"

namespace adafl::net::transport {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ADAFL_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                  "tcp: fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Remaining milliseconds until `deadline`, clamped to >= 0.
int ms_until(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/// Polls `fd` for `events` until the deadline; returns revents (0 on
/// timeout).
short poll_fd(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    struct pollfd p{};
    p.fd = fd;
    p.events = events;
    const int rc = ::poll(&p, 1, ms_until(deadline));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return 0;
    return p.revents;
  }
}

}  // namespace

std::chrono::milliseconds BackoffPolicy::delay(int attempt) const {
  const double cap = static_cast<double>(max.count());
  double d = static_cast<double>(initial.count()) *
             std::pow(multiplier, static_cast<double>(attempt));
  // pow overflows to +inf for large attempts, and initial=0 with +inf yields
  // NaN; casting either to int64 is UB. Clamp in double space: any
  // non-finite or negative product saturates at the cap.
  if (!(d >= 0.0)) d = cap;
  d = std::min(d, cap);
  return std::chrono::milliseconds(static_cast<std::int64_t>(d));
}

TcpTransport::TcpTransport(int fd, std::string peer_desc)
    : fd_(fd), peer_(std::move(peer_desc)) {
  ADAFL_CHECK_MSG(fd_ >= 0, "TcpTransport: invalid fd");
  set_nonblocking(fd_);
  set_nodelay(fd_);
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  closed_ = true;
}

std::unique_ptr<TcpTransport> TcpTransport::connect(
    const std::string& host, std::uint16_t port,
    std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  struct addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr)
    return nullptr;

  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    set_nonblocking(fd);
    const int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc == 0) break;  // immediate (loopback)
    if (errno == EINPROGRESS) {
      const short ev = poll_fd(fd, POLLOUT, deadline);
      int err = 0;
      socklen_t len = sizeof(err);
      if ((ev & POLLOUT) &&
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 &&
          err == 0)
        break;  // connected
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) return nullptr;
  return std::make_unique<TcpTransport>(fd,
                                        host + ":" + std::to_string(port));
}

bool TcpTransport::send(const Frame& f) {
  if (closed_) return false;
  const auto encoded = encode_frame(f);
  const auto deadline = Clock::now() + send_timeout_;
  std::size_t off = 0;
  while (off < encoded.size()) {
    const ssize_t n = ::send(fd_, encoded.data() + off, encoded.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!(poll_fd(fd_, POLLOUT, deadline) & POLLOUT)) {
        close();  // send deadline expired: treat the peer as gone
        return false;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    close();  // EPIPE / ECONNRESET / anything else fatal
    return false;
  }
  return true;
}

std::optional<Frame> TcpTransport::recv(std::chrono::milliseconds timeout) {
  if (auto f = parser_.next()) return f;
  if (closed_) return std::nullopt;
  const auto deadline = Clock::now() + timeout;
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      // consume() throws CheckError on a malformed stream; the caller
      // drops the connection.
      parser_.consume(std::span<const std::uint8_t>(
          chunk, static_cast<std::size_t>(n)));
      if (auto f = parser_.next()) return f;
      continue;
    }
    if (n == 0) {  // orderly peer shutdown
      close();
      return std::nullopt;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const short ev = poll_fd(fd_, POLLIN, deadline);
      if (ev & (POLLIN | POLLHUP | POLLERR)) continue;
      return std::nullopt;  // timeout
    }
    close();  // hard error
    return std::nullopt;
  }
}

TcpListener::TcpListener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ADAFL_CHECK_MSG(fd >= 0, "tcp: socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ADAFL_CHECK_MSG(false, "tcp: bind/listen on port " << port
                                                       << " failed: " << err);
  }
  set_nonblocking(fd);
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    ::close(fd);
    ADAFL_CHECK_MSG(false, "tcp: getsockname failed");
  }
  port_ = ntohs(addr.sin_port);
  fd_.store(fd);
}

TcpListener::~TcpListener() {
  close();
  // Only here is the descriptor actually released: by the time the listener
  // is destroyed no accept() can be running, so the number cannot be
  // recycled under a concurrent poll.
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

void TcpListener::close() {
  if (closed_.exchange(true)) return;
  // shutdown() wakes any accept() blocked in poll (accept then fails with
  // EINVAL) without invalidating the fd number a concurrent accept() holds.
  const int fd = fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

std::unique_ptr<TcpTransport> TcpListener::accept(
    std::chrono::milliseconds timeout) {
  const int fd = fd_.load();
  if (fd < 0 || closed_.load()) return nullptr;
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    if (closed_.load()) return nullptr;
    struct sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int cfd =
        ::accept(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
    if (cfd >= 0) {
      char ip[INET_ADDRSTRLEN] = "?";
      ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
      return std::make_unique<TcpTransport>(
          cfd, std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port)));
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const short ev = poll_fd(fd, POLLIN, deadline);
      if (closed_.load()) return nullptr;  // closed concurrently
      if (ev & POLLIN) continue;
      return nullptr;  // timeout
    }
    return nullptr;  // listener shut down or fatal error
  }
}

}  // namespace adafl::net::transport
