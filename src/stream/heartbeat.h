#ifndef SQLINK_STREAM_HEARTBEAT_H_
#define SQLINK_STREAM_HEARTBEAT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/result.h"
#include "stream/socket.h"
#include "stream/wire.h"

namespace sqlink {

/// Process-wide registry of shared heartbeat connections, one per
/// coordinator endpoint. Senders acquire a refcounted handle when built and
/// drop it after the farewell beat; the last drop closes the socket. Only
/// the *connection* is shared — every lease keeps its own beat thread and
/// self-fencing clock, so one frozen sender cannot stall its socket-mates'
/// liveness.
class HeartbeatBus {
 public:
  /// One shared coordinator connection. Exchange() runs the whole
  /// send+reply round trip under the connection mutex, so concurrent
  /// senders' beats interleave at exchange granularity (the coordinator
  /// answers each heartbeat frame statelessly).
  class Conn {
   public:
    Conn(std::string host, int port);
    ~Conn();

    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    /// One beat: dials lazily, sends, and returns the reply frame. A
    /// transport error closes the socket; the next beat re-dials.
    Result<Frame> Exchange(const HeartbeatMessage& beat);

    /// Drops the socket (protocol desync); the next beat re-dials.
    void Invalidate();

   private:
    const std::string host_;
    const int port_;
    std::mutex mu_;
    TcpSocket socket_;  ///< Lazily dialed, re-dialed after errors.
  };

  static HeartbeatBus& Global();

  /// Refcounted handle to host:port's shared connection.
  std::shared_ptr<Conn> Acquire(const std::string& host, int port);

 private:
  HeartbeatBus() = default;

  std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<Conn>> conns_;
};

/// The participant half of the coordinator's lease protocol: a background
/// thread that renews a sink's or reader's lease every interval on the
/// coordinator's shared HeartbeatBus connection, and watches the replies
/// for revocation.
///
/// A lease is lost three ways, all surfaced through revoked()/status():
///  - the coordinator fenced this holder (a newer epoch owns the split);
///  - the coordinator broadcast a query abort (typed kAborted status);
///  - self-fencing: no successful ack within the lease TTL — the holder
///    must assume the coordinator already reassigned its split and stop
///    producing side effects *before* a replacement starts.
class HeartbeatSender {
 public:
  struct Options {
    std::string coordinator_host;
    int coordinator_port = 0;
    int interval_ms = 0;  ///< <= 0 disables heartbeats entirely.
    uint8_t role = HeartbeatMessage::kSink;
    int id = 0;           ///< Split id (reader) or SQL worker id (sink).
    int64_t epoch = 1;
    /// Failpoint evaluated before each beat (delay specs simulate a stalled
    /// participant); empty = none.
    std::string failpoint_name;
    /// Invoked once, from the heartbeat thread, when the lease is lost.
    std::function<void()> on_revoked;
  };

  /// Lease TTL as a multiple of the heartbeat interval — shared with the
  /// coordinator's reaper so self-fencing always precedes reassignment
  /// (the reaper adds a grace period on top).
  static constexpr int kLeaseIntervals = 3;

  explicit HeartbeatSender(Options options);
  ~HeartbeatSender();

  HeartbeatSender(const HeartbeatSender&) = delete;
  HeartbeatSender& operator=(const HeartbeatSender&) = delete;

  /// Starts the beat loop (no-op when interval_ms <= 0).
  void Start();

  /// Stops the loop. A bye other than kAlive is delivered best-effort as a
  /// final beat so the coordinator drops (kCompleted) or immediately
  /// reassigns (kFailed) the lease instead of waiting out the TTL.
  /// Idempotent; kAlive simulates a crash — the lease just expires.
  void Stop(uint8_t bye);

  /// Reader progress carried in each beat (observability).
  void set_applied_seq(uint64_t seq) {
    applied_seq_.store(seq, std::memory_order_relaxed);
  }

  bool enabled() const { return options_.interval_ms > 0; }
  bool revoked() const { return revoked_.load(std::memory_order_acquire); }
  /// Why the lease was lost (OK while the lease is healthy).
  Status status() const;

 private:
  void Loop();
  /// One beat on the shared connection (re-dialed on error).
  Status BeatOnce(uint8_t bye);
  void MarkRevoked(Status status);

  Options options_;
  std::atomic<uint64_t> applied_seq_{0};
  std::atomic<bool> revoked_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  Status status_;
  std::shared_ptr<HeartbeatBus::Conn> bus_;  ///< Null when disabled.
  std::thread thread_;
};

}  // namespace sqlink

#endif  // SQLINK_STREAM_HEARTBEAT_H_
