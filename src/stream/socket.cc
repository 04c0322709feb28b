#include "stream/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/failpoint.h"

namespace sqlink {

namespace {

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
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status TcpSocket::SendAll(std::string_view data) {
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
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return PeerError("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status TcpSocket::SendAllV(std::string_view a, std::string_view b) {
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
  iovec iov[2];
  iov[0].iov_base = const_cast<char*>(a.data());
  iov[0].iov_len = a.size();
  iov[1].iov_base = const_cast<char*>(b.data());
  iov[1].iov_len = b.size();
  size_t first = 0;
  while (first < 2) {
    if (iov[first].iov_len == 0) {
      ++first;
      continue;
    }
    msghdr msg{};
    msg.msg_iov = &iov[first];
    msg.msg_iovlen = 2 - first;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return PeerError("send");
    }
    size_t advanced = static_cast<size_t>(n);
    while (first < 2 && advanced >= iov[first].iov_len) {
      advanced -= iov[first].iov_len;
      iov[first].iov_len = 0;
      ++first;
    }
    if (first < 2 && advanced > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + advanced;
      iov[first].iov_len -= advanced;
    }
  }
  return Status::OK();
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
    const ssize_t got =
        ::recv(fd_, out->data() + received, out->size() - received, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
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

void TcpSocket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
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
