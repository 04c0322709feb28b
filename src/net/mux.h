#ifndef SQLINK_NET_MUX_H_
#define SQLINK_NET_MUX_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "stream/socket.h"
#include "stream/wire.h"

namespace sqlink {

class MuxConn;

/// One logical sink→reader transfer stream, multiplexed onto a shared
/// connection. The sink's sender and the reader speak the §6 frame protocol
/// (kResume/kData/kEnd + kDataAck/kAck) through it: frames travel
/// wrapped in kChannelData with a one-byte inner-type prefix. The channel
/// has no flow control of its own: the sink's sender bounds its unacked
/// data frames by the reader's window (OpenChannelMessage::window_bytes)
/// and waits for acks in Recv, so one slow reader parks only its own
/// sender, never its socket-mates.
///
/// Threading: Send and Recv/TryRecv each have one caller at a time (they
/// may be different threads); Shutdown may race both.
class MuxChannel final {
 public:
  MuxChannel(std::shared_ptr<MuxConn> conn, uint32_t id);
  ~MuxChannel();

  /// Sends one frame. `seq` = 0 for frames outside the replay protocol.
  /// Stamps the calling thread's current trace span.
  Status Send(FrameType type, std::string_view payload, uint64_t seq);

  /// Blocks for the next frame. A peer that closed the channel (or a dead
  /// transport) surfaces as a non-OK status.
  Status Recv(Frame* frame);

  /// Non-blocking receive: true = a frame was produced, false = nothing
  /// pending right now. `*closed` is set when the peer has closed cleanly
  /// and every buffered frame has been drained (no more will arrive). A
  /// broken transport is an error only once buffered frames are exhausted.
  Result<bool> TryRecv(Frame* frame, bool* closed);

  /// Closes this channel only — never the shared socket — waking any thread
  /// parked in Recv, and telling the peer best-effort why. Safe to call
  /// from any thread, more than once.
  void Shutdown(const Status& status);

  uint32_t id() const { return id_; }

  // --- Called by MuxConn's demux thread. ---
  void OnFrame(Frame&& frame);
  /// Peer sent kCloseChannel; `status` is OK for a clean close.
  void RemoteClose(const Status& status);
  /// The shared connection died; every Send/Recv fails with `status`.
  void Fail(const Status& status);

 private:
  /// Marks the channel closed, wakes every waiter, optionally notifies the
  /// peer (kCloseChannel) and always deregisters from the connection.
  void CloseInternal(const Status& status, bool notify_peer);

  const std::shared_ptr<MuxConn> conn_;
  const uint32_t id_;

  std::mutex mu_;
  std::condition_variable inbox_cv_;
  std::deque<Frame> inbox_;
  bool closed_ = false;        ///< Local close/shutdown or transport death.
  bool remote_closed_ = false; ///< Peer sent kCloseChannel.
  Status close_status_;        ///< Why the peer closed (OK = clean close).
  Status state_;               ///< Why the channel is unusable (OK = alive).
};

/// One shared sink→reader TCP connection carrying many channels. Owns the
/// socket, a demux thread (routes inbound frames to channel inboxes), and a
/// write-side coalescer: concurrent senders enqueue frames and the first
/// becomes the flusher, batching everything queued — across channels — into
/// one scatter-gather sendmsg (net.mux.coalesced_frames counts batched
/// frames; stream.wire.send_frame_micros times each send).
class MuxConn : public std::enable_shared_from_this<MuxConn> {
 public:
  /// Invoked on the demux thread for every kOpenChannel (server side).
  using OpenHandler = std::function<void(std::shared_ptr<MuxChannel>,
                                         const OpenChannelMessage&)>;

  /// Wraps `socket` and starts the demux thread. `on_open` = nullptr for
  /// the client (reader) side, which opens channels itself.
  static std::shared_ptr<MuxConn> Spawn(TcpSocket socket, OpenHandler on_open);

  ~MuxConn();

  /// Client side: allocates a channel id, registers the channel, and sends
  /// kOpenChannel. The sink's first frame on the channel answers the
  /// embedded HELLO (kResume), or kCloseChannel rejects it.
  Result<std::shared_ptr<MuxChannel>> OpenChannel(
      const OpenChannelMessage& msg);

  /// Kills the connection: every channel and queued write fails with
  /// `status`, and the socket is shut down (waking the demux thread).
  void Shutdown(const Status& status);

  bool dead() const { return dead_.load(std::memory_order_acquire); }
  size_t open_channels() const;

  // --- Internal (MuxChannel). ---
  /// Sends one wrapped frame: inner >= 0 wraps it as kChannelData with that
  /// inner type byte; inner < 0 sends `outer` verbatim (control frames).
  /// `truncate` (from a mid-frame failpoint) ships only half the frame and
  /// kills the connection. Blocks until the frame is on the wire.
  Status EnqueueWrite(FrameType outer, uint32_t channel, uint64_t seq,
                      int inner, std::string_view payload, bool truncate);
  void ReleaseChannel(uint32_t id);

 private:
  MuxConn(TcpSocket socket, OpenHandler on_open);

  void RecvLoop();
  void Fail(const Status& status);
  std::shared_ptr<MuxChannel> FindChannel(uint32_t id);

  /// One frame waiting in the coalescer. `head` holds the encoded wire
  /// header (+ inner type byte for kChannelData); the payload stays a view
  /// because the enqueuing thread blocks until the flusher finishes it.
  struct PendingWrite {
    char head[kFrameHeaderBytes + 1];
    size_t head_len = 0;
    std::string_view payload;
    bool truncate = false;
    bool done = false;
    Status status;
  };

  TcpSocket socket_;
  OpenHandler on_open_;
  std::atomic<bool> dead_{false};

  std::mutex write_mu_;
  std::condition_variable write_cv_;
  std::deque<PendingWrite*> write_queue_;
  bool flusher_active_ = false;
  Status death_status_;  ///< Valid once dead_.

  mutable std::mutex channels_mu_;
  std::unordered_map<uint32_t, std::weak_ptr<MuxChannel>> channels_;
  uint32_t next_id_ = 1;
};

}  // namespace sqlink

#endif  // SQLINK_NET_MUX_H_
