#include "stream/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/status_macros.h"

namespace sqlink {

namespace {

constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// RecvExactly's first buffer size, which fits every data frame at the
/// default 4 KB send buffer in one resize. Longer messages double the
/// buffer as their bytes arrive, so a length read off the wire never sizes
/// an allocation ahead of the data.
constexpr size_t kRecvFirstStepBytes = 64 << 10;

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// A peer that died mid-transfer shows up as ECONNRESET (or EPIPE when
/// MSG_NOSIGNAL suppressed the signal). Name the condition so recovery code
/// can match on "connection reset" instead of a raw strerror string.
Status PeerError(const char* what) {
  if (errno == ECONNRESET || errno == EPIPE) {
    return Status::NetworkError(std::string(what) +
                                ": connection reset by peer");
  }
  return Status::NetworkError(ErrnoMessage(what));
}

/// MSG_NOSIGNAL covers send(); ignore SIGPIPE process-wide as well so a
/// write on a reset connection via any other path can never kill the
/// process. Installed once, on first socket use.
void IgnoreSigpipeOnce() {
  static const bool installed = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
}

}  // namespace

TcpSocket::~TcpSocket() { Close(); }

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    recv_deadline_ = other.recv_deadline_;
  }
  return *this;
}

Status TcpSocket::SendAll(std::string_view data) {
  iovec iov{const_cast<char*>(data.data()), data.size()};
  return SendAllIov(&iov, 1);
}

Status TcpSocket::SendAllV(std::string_view a, std::string_view b) {
  iovec iov[2] = {{const_cast<char*>(a.data()), a.size()},
                  {const_cast<char*>(b.data()), b.size()}};
  return SendAllIov(iov, 2);
}

Status TcpSocket::SendAllIov(::iovec* iov, size_t count) {
  if (!valid()) return Status::NetworkError("send on closed socket");
  switch (SQLINK_FAILPOINT("stream.socket.send")) {
    case FailpointOutcome::kNone:
      break;
    case FailpointOutcome::kError:
      return Status::NetworkError("failpoint: injected send error");
    case FailpointOutcome::kClose:
      Close();
      return Status::NetworkError("failpoint: send socket closed");
  }
  IgnoreSigpipeOnce();
  // Linux caps one sendmsg at IOV_MAX (1024) entries; a coalescer batch of
  // hundreds of tiny frames still fits in one call.
  constexpr size_t kMaxPerCall = 1024;
  size_t first = 0;
  while (first < count) {
    if (iov[first].iov_len == 0) {
      ++first;
      continue;
    }
    msghdr msg{};
    msg.msg_iov = &iov[first];
    msg.msg_iovlen = std::min(count - first, kMaxPerCall);
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return PeerError("send");
    }
    size_t advanced = static_cast<size_t>(n);
    while (first < count && advanced >= iov[first].iov_len) {
      advanced -= iov[first].iov_len;
      iov[first].iov_len = 0;
      ++first;
    }
    if (first < count && advanced > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + advanced;
      iov[first].iov_len -= advanced;
    }
  }
  return Status::OK();
}

Status TcpSocket::RecvExactly(size_t n, std::string* out) {
  if (!valid()) return Status::NetworkError("recv on closed socket");
  switch (SQLINK_FAILPOINT("stream.socket.recv")) {
    case FailpointOutcome::kNone:
      break;
    case FailpointOutcome::kError:
      return Status::NetworkError("failpoint: injected recv error");
    case FailpointOutcome::kClose:
      Close();
      return Status::NetworkError("failpoint: recv socket closed");
  }
  out->resize(std::min(n, kRecvFirstStepBytes));
  size_t received = 0;
  while (received < n) {
    if (received == out->size()) {
      out->resize(std::min(n, 2 * out->size()));
    }
    if (recv_deadline_ != kNoDeadline) RETURN_IF_ERROR(ArmRecvTimeout());
    const ssize_t got =
        ::recv(fd_, out->data() + received, out->size() - received, 0);
    if (got < 0) {
      // EAGAIN: SO_RCVTIMEO ran out; the next pass reports the deadline.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return PeerError("recv");
    }
    if (got == 0) {
      return Status::NetworkError(received == 0 ? "closed"
                                                : "closed mid-message");
    }
    received += static_cast<size_t>(got);
  }
  return Status::OK();
}

Result<size_t> TcpSocket::TryRecv(size_t max, std::string* out, bool* eof) {
  if (!valid()) return Status::NetworkError("recv on closed socket");
  const size_t base = out->size();
  out->resize(base + max);
  for (;;) {
    const ssize_t got = ::recv(fd_, out->data() + base, max, MSG_DONTWAIT);
    if (got < 0) {
      if (errno == EINTR) continue;
      out->resize(base);
      if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
      return PeerError("recv");
    }
    if (got == 0) {
      out->resize(base);
      if (eof != nullptr) {
        *eof = true;
        return size_t{0};
      }
      return Status::NetworkError("closed");
    }
    out->resize(base + static_cast<size_t>(got));
    return static_cast<size_t>(got);
  }
}

void TcpSocket::SetRecvDeadline(std::chrono::steady_clock::time_point deadline) {
  if (deadline == kNoDeadline && recv_deadline_ != kNoDeadline) {
    const timeval forever{};  // A zero timeout: recv(2) blocks forever.
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &forever, sizeof(forever));
  }
  recv_deadline_ = deadline;
}

Status TcpSocket::ArmRecvTimeout() {
  const auto left = recv_deadline_ - std::chrono::steady_clock::now();
  if (left <= std::chrono::steady_clock::duration::zero()) {
    return Status::Unavailable("receive deadline passed");
  }
  // A zero timeval means "no timeout", so wait at least 1 us.
  const int64_t micros = std::max<int64_t>(
      1, std::chrono::duration_cast<std::chrono::microseconds>(left).count());
  const timeval timeout{static_cast<time_t>(micros / 1000000),
                        static_cast<suseconds_t>(micros % 1000000)};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return Status::OK();
}

void TcpSocket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpSocket::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void TcpSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::~TcpListener() { Close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_.exchange(-1, std::memory_order_acq_rel)),
      port_(other.port_) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1, std::memory_order_acq_rel),
              std::memory_order_release);
    port_ = other.port_;
  }
  return *this;
}

Result<TcpListener> TcpListener::Listen(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::NetworkError(ErrnoMessage("socket"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::NetworkError(ErrnoMessage("bind"));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::NetworkError(ErrnoMessage("listen"));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status::NetworkError(ErrnoMessage("getsockname"));
  }
  TcpListener listener;
  listener.fd_.store(fd, std::memory_order_release);
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<TcpSocket> TcpListener::Accept() {
  // One load per call: a concurrent Close() swaps the slot to -1 and closes
  // the fd, waking this accept with EBADF/EINVAL below.
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return Status::Cancelled("listener closed");
  if (SQLINK_FAILPOINT("stream.socket.accept") != FailpointOutcome::kNone) {
    return Status::NetworkError("failpoint: injected accept error");
  }
  for (;;) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) {
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpSocket(client);
    }
    if (errno == EINTR) continue;
    if (errno == EBADF || errno == EINVAL) {
      return Status::Cancelled("listener closed");
    }
    return Status::NetworkError(ErrnoMessage("accept"));
  }
}

void TcpListener::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() unblocks threads stuck in accept().
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Result<TcpSocket> TcpConnect(const std::string& host, int port) {
  if (SQLINK_FAILPOINT("stream.socket.connect") != FailpointOutcome::kNone) {
    return Status::NetworkError("failpoint: injected connect error (" + host +
                                ":" + std::to_string(port) + ")");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::NetworkError(ErrnoMessage("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  // The simulated cluster's node names all resolve to loopback.
  if (host.empty() || host == "localhost" || host.rfind("node", 0) == 0) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot resolve host: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string message = ErrnoMessage("connect");
    ::close(fd);
    return Status::NetworkError(message + " (" + host + ":" +
                                std::to_string(port) + ")");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpSocket(fd);
}

}  // namespace sqlink
