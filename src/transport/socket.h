// RAII TCP sockets over loopback — the data transport layer of the
// threaded runtime.
//
// The paper's splitter talks to its worker PEs over per-connection TCP;
// we reproduce the same kernel path (socket buffers, flow control,
// blocking sends) with 127.0.0.1 connections inside one process. Send
// buffers are deliberately sized small so back pressure reaches the
// splitter quickly at benchmark scale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace slb::net {

/// Thrown when the peer end of a connection is gone (EPIPE / ECONNRESET /
/// EOF mid-frame). Callers that implement failover catch exactly this —
/// any other error still surfaces as a plain std::runtime_error.
struct ConnectionLost : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Process-wide SIGPIPE setup: a dead peer must surface as EPIPE on the
/// write, never as a process-killing signal. Idempotent; called by the
/// runtime's region bring-up and safe to call from anywhere.
void ignore_sigpipe();

/// Owning file descriptor with move-only semantics.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

/// A TCP listener bound to 127.0.0.1 on an ephemeral port.
class Listener {
 public:
  /// Creates, binds, and listens; throws std::runtime_error on failure.
  Listener();

  std::uint16_t port() const { return port_; }
  /// The listening socket itself, for callers that poll for arrivals.
  int fd() const { return fd_.get(); }

  /// Waits until one connection arrives and returns the connected socket.
  /// `timeout_ms < 0` blocks forever (the historical behavior);
  /// otherwise a peer that never shows up raises std::runtime_error after
  /// ~timeout_ms instead of hanging the caller (and CI) indefinitely.
  Fd accept_one(int timeout_ms = -1);

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:port; throws on failure. `timeout_ms >= 0` bounds
/// the wait for connection establishment (non-blocking connect + poll).
Fd connect_loopback(std::uint16_t port, int timeout_ms = -1);

/// Socket-option helpers (throw on failure).
void set_nodelay(int fd);
void set_send_buffer(int fd, int bytes);
void set_recv_buffer(int fd, int bytes);

/// send_some's result when the peer is gone (EPIPE/ECONNRESET).
inline constexpr std::ptrdiff_t kPeerGone = -1;

/// One non-blocking send (never waits, never raises SIGPIPE): returns the
/// number of bytes the kernel accepted (> 0), 0 when the send would block
/// (the socket buffer is full), or kPeerGone. Other errors throw. The
/// caller decides whether and how long to wait for POLLOUT — the runtime's
/// splitter does so in its one deadline-bounded poll and charges the wait
/// to the connection's blocking counter (paper Section 3).
std::ptrdiff_t send_some(int fd, const void* buf, std::size_t len);

/// Writes exactly `len` bytes with plain blocking sends (used by workers,
/// where blocking time is not measured). Throws ConnectionLost when the
/// peer is gone (EPIPE/ECONNRESET), std::runtime_error otherwise.
void write_all(int fd, const void* buf, std::size_t len);

}  // namespace slb::net
