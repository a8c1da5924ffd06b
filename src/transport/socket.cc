#include "transport/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace slb::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Waits for `events` on `fd`; returns false on timeout. EINTR retries
/// do not extend the deadline beyond sloppiness we can live with here.
bool poll_for(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) throw_errno("poll");
  }
}

}  // namespace

void ignore_sigpipe() {
  // signal() is async-signal-safe enough for an idempotent SIG_IGN; the
  // senders also pass MSG_NOSIGNAL, so this is belt-and-braces for any
  // plain write() path (e.g. write_all in the workers).
  ::signal(SIGPIPE, SIG_IGN);
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener() {
  fd_ = Fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd_.valid()) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd_.get(), 16) != 0) throw_errno("listen");
}

Fd Listener::accept_one(int timeout_ms) {
  if (timeout_ms >= 0 && !poll_for(fd_.get(), POLLIN, timeout_ms)) {
    throw std::runtime_error("accept: timed out waiting for a peer");
  }
  const int fd = ::accept(fd_.get(), nullptr, nullptr);
  if (fd < 0) throw_errno("accept");
  return Fd(fd);
}

Fd connect_loopback(std::uint16_t port, int timeout_ms) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (timeout_ms < 0) {
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throw_errno("connect");
    }
    return fd;
  }

  // Bounded connect: non-blocking connect, poll for writability, read the
  // outcome from SO_ERROR, then restore blocking mode.
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  if (::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno("fcntl(F_SETFL)");
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) throw_errno("connect");
    if (!poll_for(fd.get(), POLLOUT, timeout_ms)) {
      throw std::runtime_error("connect: timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      throw_errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      throw std::runtime_error(std::string("connect: ") +
                               std::strerror(err));
    }
  }
  if (::fcntl(fd.get(), F_SETFL, flags) != 0) throw_errno("fcntl(F_SETFL)");
  return fd;
}

void set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

void set_send_buffer(int fd, int bytes) {
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) != 0) {
    throw_errno("setsockopt(SO_SNDBUF)");
  }
}

void set_recv_buffer(int fd, int bytes) {
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) != 0) {
    throw_errno("setsockopt(SO_RCVBUF)");
  }
}

std::ptrdiff_t send_some(int fd, const void* buf, std::size_t len) {
  const ssize_t n = ::send(fd, buf, len, MSG_DONTWAIT | MSG_NOSIGNAL);
  if (n >= 0) return n;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
  if (errno == EPIPE || errno == ECONNRESET) return kPeerGone;
  throw_errno("send");
}

void write_all(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const char*>(buf);
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, p + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        throw ConnectionLost(std::string("write: ") + std::strerror(errno));
      }
      throw_errno("write");
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace slb::net
