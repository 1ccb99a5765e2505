// Minimal POSIX TCP helpers for the socket trace transport.
//
// Deliberately tiny: an RAII fd, a listener with ephemeral-port discovery
// (bind port 0, read the kernel's choice back), a blocking connect, and
// the two IO shapes the trace layer needs — send-everything (sender side)
// and read-whatever-is-available-now (receiver side, so a tail consumer
// can distinguish "no data yet" from peer EOF without blocking the merge
// poll loop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace jig::net {

// Owns a socket fd; closes on destruction.  Movable, not copyable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();
  // O_NONBLOCK on the fd; ReadSome then reports would-block as 0 bytes.
  void SetNonBlocking();

 private:
  int fd_ = -1;
};

// TCP listener bound to host:port.  port == 0 asks the kernel for an
// ephemeral port; port() reports the actual one either way.  Throws
// std::runtime_error when the address cannot be bound.
class Listener {
 public:
  Listener(const std::string& host, std::uint16_t port);

  std::uint16_t port() const { return port_; }
  int fd() const { return sock_.fd(); }  // to poll() for queued peers
  // Waits up to timeout_ms for a peer (<= 0: block indefinitely).  Throws
  // std::runtime_error on timeout or accept failure.
  Socket Accept(int timeout_ms = -1);
  // Non-blocking accept: the connection waiting right now, or an invalid
  // Socket if none is queued.  A poll loop calls this every round to pick
  // up re-dialing senders without ever stalling the merge.
  Socket TryAccept();

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

// Blocking connect.  Throws std::runtime_error on failure (connection
// refused, unresolvable host, ...).
Socket ConnectTo(const std::string& host, std::uint16_t port);

// Sends all n bytes (blocking).  Throws std::runtime_error if the peer
// goes away mid-send.
void SendAll(Socket& sock, const void* data, std::size_t n);

// Result of a non-blocking read attempt.
struct ReadResult {
  std::size_t n = 0;    // bytes placed into the buffer (0: nothing now)
  bool eof = false;     // peer closed its write side
};

// Reads whatever is available right now, up to cap bytes, without
// blocking (the socket must be non-blocking).  Throws std::runtime_error
// on a hard socket error (ECONNRESET is reported as eof, not an error:
// to a trace consumer both mean "the sender is gone").
ReadResult ReadSome(Socket& sock, void* buf, std::size_t cap);

}  // namespace jig::net
