#ifndef SQLINK_NET_CONN_POOL_H_
#define SQLINK_NET_CONN_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/mux.h"
#include "stream/socket.h"

namespace sqlink {

/// Shared data connections per sink peer.
inline constexpr int kMuxConnsPerPeer = 4;

/// The window a pooled reader advertises in kOpenChannel: the sink's sender
/// keeps at most this many data bytes sent and not yet acked on the
/// channel, plus one frame. A sender whose window is full parks alone;
/// socket-mates keep flowing.
inline constexpr int64_t kMuxChannelWindowBytes = int64_t{4} << 20;

/// Pool slots per peer: kMuxConnsPerPeer unless a test forced another size.
int MuxConnsPerPeer();

/// Test hook: > 0 = forced pool size, <= 0 = back to kMuxConnsPerPeer.
void SetMuxConnsPerPeerForTest(int conns);

/// Reader-side pool of shared mux connections, at most MuxConnsPerPeer()
/// per sink endpoint. Channels land on a connection by hash of their
/// affinity key (the split id), so a reconnecting reader re-multiplexes
/// onto the same socket and 64 concurrent queries to one sink open at most
/// the pool's worth of sockets, not 64.
class MuxConnPool {
 public:
  /// Process-wide pool (the reader side of every transfer shares it).
  static MuxConnPool& Global();

  /// Opens a logical channel to the sink partition `sink_key` behind
  /// host:port, dialing a shared connection lazily if the affinity slot is
  /// empty or its connection has died. The embedded HELLO opens the stream;
  /// the sink answers on the channel (kResume first).
  Result<std::shared_ptr<MuxChannel>> OpenChannel(const std::string& host,
                                                  int port, uint64_t sink_key,
                                                  uint64_t affinity,
                                                  const HelloMessage& hello);

  /// Drops every pooled connection (tests that restart sinks on new ports).
  void ResetForTest();

 private:
  MuxConnPool() = default;

  std::mutex mu_;
  /// "host:port" → fixed slots of shared connections (lazily dialed).
  std::unordered_map<std::string, std::vector<std::shared_ptr<MuxConn>>>
      peers_;
};

/// Sink-side counterpart: ONE process-wide listener accepting the shared
/// mux connections for every sink partition in the process. Each partition
/// registers an open-channel handler and advertises the returned sink_key
/// (via coordinator registration) so readers can route kOpenChannel frames
/// to it: all partitions share the pool's connections.
class MuxSinkServer {
 public:
  /// Called on a connection's demux thread for each kOpenChannel routed to
  /// this sink_key. Must not block (hand the channel to a queue).
  using ChannelHandler = MuxConn::OpenHandler;

  static MuxSinkServer& Global();

  /// Starts the shared listener on first call; returns its port.
  Result<int> EnsureStarted();

  /// Registers a partition's handler; returns its routing key (never 0).
  uint64_t Register(ChannelHandler handler);

  /// Unregisters; late kOpenChannel frames for the key are rejected with
  /// kUnavailable (retryable — the reader re-dials after the sink rebinds).
  void Unregister(uint64_t sink_key);

 private:
  MuxSinkServer() = default;

  void AcceptLoop();
  void Dispatch(std::shared_ptr<MuxChannel> channel,
                const OpenChannelMessage& msg);

  std::mutex mu_;
  TcpListener listener_;
  bool started_ = false;
  int port_ = 0;
  uint64_t next_key_ = 1;
  std::unordered_map<uint64_t, ChannelHandler> handlers_;
  std::vector<std::shared_ptr<MuxConn>> conns_;
};

}  // namespace sqlink

#endif  // SQLINK_NET_CONN_POOL_H_
