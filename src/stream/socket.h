#ifndef SQLINK_STREAM_SOCKET_H_
#define SQLINK_STREAM_SOCKET_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "common/result.h"

struct iovec;  // <sys/uio.h>; kept out of this header.

namespace sqlink {

/// Thin RAII wrapper over a connected TCP socket with whole-buffer
/// send/receive. Move-only. All streaming-transfer traffic (coordinator
/// control plane and SQL→ML data plane) flows through these.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket();

  TcpSocket(TcpSocket&& other) noexcept { *this = std::move(other); }
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends the entire buffer: SendAllIov of one buffer.
  Status SendAll(std::string_view data);

  /// Sends two buffers back-to-back (frame header + payload) without
  /// concatenating them: SendAllIov of two buffers.
  Status SendAllV(std::string_view a, std::string_view b);

  /// General scatter-gather send of `count` buffers via sendmsg, looping
  /// over partial writes and EINTR; SIGPIPE is suppressed so a dead peer
  /// surfaces as a Status, not a signal. The mux write coalescer batches
  /// frames from many channels into one call. `iov` is consumed (entries
  /// are advanced over partial writes).
  Status SendAllIov(::iovec* iov, size_t count);

  /// Receives exactly `n` bytes into `*out` (resized). The buffer grows as
  /// bytes arrive, never to `n` up front. A clean remote close before any
  /// byte yields kNetworkError with message "closed"; a passed receive
  /// deadline yields kUnavailable.
  Status RecvExactly(size_t n, std::string* out);

  /// Absolute deadline for every later RecvExactly on this socket: each
  /// blocking recv(2) waits only for what is left of it, so a peer that
  /// trickles bytes cannot stretch it. time_point::max() (the default)
  /// waits forever.
  void SetRecvDeadline(std::chrono::steady_clock::time_point deadline);

  /// Non-blocking receive of up to `max` bytes appended to `*out`. Returns
  /// the byte count: 0 when nothing is pending. A clean remote close sets
  /// `*eof` (when provided) and returns 0 so the caller can finish parsing
  /// bytes it already buffered; without `eof` — and for resets always — it
  /// yields kNetworkError. Used by senders draining acks between frames.
  Result<size_t> TryRecv(size_t max, std::string* out, bool* eof = nullptr);

  /// Half-closes both directions, unblocking a peer thread stuck in
  /// RecvExactly on this socket without racing its reads (the fd stays
  /// valid until Close).
  void ShutdownBoth();

  /// Shuts down the read side only: a thread blocked in RecvExactly on this
  /// socket wakes as if the peer had closed, and sends still go out. Safe
  /// to call from another thread, like ShutdownBoth.
  void ShutdownRead();

  void Close();

 private:
  /// Points SO_RCVTIMEO at what is left of the receive deadline;
  /// kUnavailable once it has passed.
  Status ArmRecvTimeout();

  int fd_ = -1;
  std::chrono::steady_clock::time_point recv_deadline_ =
      std::chrono::steady_clock::time_point::max();
};

/// Listening TCP socket bound to 127.0.0.1 (the simulated cluster runs on
/// loopback). Port 0 picks an ephemeral port.
class TcpListener {
 public:
  static Result<TcpListener> Listen(int port);

  TcpListener() = default;
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Blocks for the next connection. Returns kCancelled after Close().
  Result<TcpSocket> Accept();

  /// Unblocks pending Accepts. Safe to call from another thread while an
  /// Accept is blocked (the usual shutdown pattern) — the fd slot is
  /// atomic, and the blocked accept(2) wakes with an error it maps to
  /// kCancelled.
  void Close();

  int port() const { return port_; }
  bool valid() const { return fd_.load(std::memory_order_acquire) >= 0; }

 private:
  std::atomic<int> fd_{-1};
  int port_ = 0;
};

/// Connects to host:port. Only loopback/hostname resolution via IPv4.
Result<TcpSocket> TcpConnect(const std::string& host, int port);

}  // namespace sqlink

#endif  // SQLINK_STREAM_SOCKET_H_
