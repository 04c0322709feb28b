#include "net/mux.h"

#include <sys/uio.h>

#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace sqlink {

namespace {

struct MuxMetrics {
  Gauge* open_channels;
  Gauge* conns;
  Counter* coalesced_frames;
  Counter* frames_sent;
  Counter* bytes_sent;
  Histogram* send_micros;

  static const MuxMetrics& Get() {
    static const MuxMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      return MuxMetrics{
          registry.GetGauge("net.mux.open_channels"),
          registry.GetGauge("net.mux.conns"),
          registry.GetCounter("net.mux.coalesced_frames"),
          // Shared with SendFrame: a frame is a frame on any socket.
          registry.GetCounter("stream.wire.frames_sent"),
          registry.GetCounter("stream.wire.bytes_sent"),
          registry.GetHistogram("stream.wire.send_frame_micros")};
    }();
    return metrics;
  }
};

/// The data-plane frame types a kChannelData frame may wrap.
bool IsChannelFrameType(FrameType type) {
  return type == FrameType::kResume || type == FrameType::kData ||
         type == FrameType::kEnd || type == FrameType::kError ||
         type == FrameType::kDataAck || type == FrameType::kAck;
}

Status ChannelClosedByPeer(const Status& close_status) {
  if (!close_status.ok()) return close_status;
  return Status::NetworkError("closed");
}

}  // namespace

// --- MuxChannel -------------------------------------------------------------

MuxChannel::MuxChannel(std::shared_ptr<MuxConn> conn, uint32_t id)
    : conn_(std::move(conn)), id_(id) {
  MuxMetrics::Get().open_channels->Increment();
}

MuxChannel::~MuxChannel() { CloseInternal(Status::OK(), /*notify_peer=*/true); }

Status MuxChannel::Send(FrameType type, std::string_view payload,
                        uint64_t seq) {
  // Frame-level fault surface of the data plane: an error spec fails this
  // send, a close spec truncates the frame and kills the shared connection.
  FailpointOutcome outcome = SQLINK_FAILPOINT("stream.wire.send_frame");
  if (outcome == FailpointOutcome::kNone && type == FrameType::kData) {
    outcome = SQLINK_FAILPOINT("stream.wire.send_data");
  }
  if (outcome == FailpointOutcome::kError) {
    return Status::NetworkError("failpoint: injected frame send error");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!state_.ok()) return state_;
    if (remote_closed_) return ChannelClosedByPeer(close_status_);
  }
  return conn_->EnqueueWrite(FrameType::kChannelData, id_, seq,
                             static_cast<int>(type), payload,
                             outcome == FailpointOutcome::kClose);
}

Status MuxChannel::Recv(Frame* frame) {
  std::unique_lock<std::mutex> lock(mu_);
  inbox_cv_.wait(lock, [this] {
    return !inbox_.empty() || !state_.ok() || remote_closed_;
  });
  if (inbox_.empty()) {
    if (!state_.ok()) return state_;
    return ChannelClosedByPeer(close_status_);
  }
  *frame = std::move(inbox_.front());
  inbox_.pop_front();
  return Status::OK();
}

Result<bool> MuxChannel::TryRecv(Frame* frame, bool* closed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (inbox_.empty()) {
    if (!state_.ok()) return state_;
    if (remote_closed_) *closed = true;
    return false;
  }
  *frame = std::move(inbox_.front());
  inbox_.pop_front();
  return true;
}

void MuxChannel::Shutdown(const Status& status) {
  CloseInternal(
      status.ok() ? Status::NetworkError("channel shut down") : status,
      /*notify_peer=*/true);
}

void MuxChannel::OnFrame(Frame&& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  inbox_.push_back(std::move(frame));
  inbox_cv_.notify_one();
}

void MuxChannel::RemoteClose(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || remote_closed_) return;
  remote_closed_ = true;
  close_status_ = status;
  inbox_cv_.notify_all();
}

void MuxChannel::Fail(const Status& status) {
  CloseInternal(status.ok() ? Status::NetworkError("mux connection failed")
                            : status,
                /*notify_peer=*/false);
}

void MuxChannel::CloseInternal(const Status& status, bool notify_peer) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
    state_ = status.ok() ? Status::NetworkError("channel closed") : status;
    inbox_cv_.notify_all();
  }
  MuxMetrics::Get().open_channels->Decrement();
  if (notify_peer && !conn_->dead()) {
    const std::string payload = status.ok() ? "" : EncodeStatus(status);
    (void)conn_->EnqueueWrite(FrameType::kCloseChannel, id_, /*seq=*/0,
                              /*inner=*/-1, payload, /*truncate=*/false);
  }
  conn_->ReleaseChannel(id_);
}

// --- MuxConn ----------------------------------------------------------------

std::shared_ptr<MuxConn> MuxConn::Spawn(TcpSocket socket, OpenHandler on_open) {
  auto conn = std::shared_ptr<MuxConn>(
      new MuxConn(std::move(socket), std::move(on_open)));
  // Detached: the thread keeps the connection alive via its own shared_ptr
  // and exits when the socket dies or is shut down.
  std::thread([conn] { conn->RecvLoop(); }).detach();
  return conn;
}

MuxConn::MuxConn(TcpSocket socket, OpenHandler on_open)
    : socket_(std::move(socket)), on_open_(std::move(on_open)) {
  MuxMetrics::Get().conns->Increment();
}

MuxConn::~MuxConn() {
  if (!dead_.load(std::memory_order_acquire)) {
    MuxMetrics::Get().conns->Decrement();
  }
  socket_.Close();
}

Result<std::shared_ptr<MuxChannel>> MuxConn::OpenChannel(
    const OpenChannelMessage& msg) {
  std::shared_ptr<MuxChannel> channel;
  uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(channels_mu_);
    if (dead()) return Status::NetworkError("mux connection failed");
    id = next_id_++;
    channel = std::make_shared<MuxChannel>(shared_from_this(), id);
    channels_[id] = channel;
  }
  const Status sent = EnqueueWrite(FrameType::kOpenChannel, id, /*seq=*/0,
                                   /*inner=*/-1, msg.Encode(),
                                   /*truncate=*/false);
  if (!sent.ok()) {
    channel->Fail(sent);
    return sent;
  }
  return channel;
}

void MuxConn::Shutdown(const Status& status) {
  socket_.ShutdownBoth();  // Wakes the demux thread, which runs Fail().
  Fail(status.ok() ? Status::NetworkError("mux connection shut down")
                   : status);
}

size_t MuxConn::open_channels() const {
  std::lock_guard<std::mutex> lock(channels_mu_);
  return channels_.size();
}

Status MuxConn::EnqueueWrite(FrameType outer, uint32_t channel, uint64_t seq,
                             int inner, std::string_view payload,
                             bool truncate) {
  PendingWrite pending;
  const size_t inner_bytes = inner >= 0 ? 1 : 0;
  EncodeFrameHeader(pending.head, outer,
                    static_cast<uint32_t>(payload.size() + inner_bytes), seq,
                    channel, Tracer::CurrentContext());
  if (inner >= 0) pending.head[kFrameHeaderBytes] = static_cast<char>(inner);
  pending.head_len = kFrameHeaderBytes + inner_bytes;
  pending.payload = payload;
  pending.truncate = truncate;

  std::unique_lock<std::mutex> lock(write_mu_);
  if (dead()) {
    // death_status_ is written under this mutex; a racing Fail() may have
    // set dead_ but not the status yet.
    return death_status_.ok() ? Status::NetworkError("mux connection failed")
                              : death_status_;
  }
  write_queue_.push_back(&pending);
  // Group commit: whoever finds no active flusher becomes it and drains the
  // queue — including frames enqueued by other channels meanwhile — with one
  // scatter-gather send per batch. Everyone else waits for their frame.
  while (flusher_active_) {
    if (pending.done) return pending.status;
    write_cv_.wait(lock);
  }
  if (pending.done) return pending.status;
  flusher_active_ = true;
  while (!write_queue_.empty()) {
    std::vector<PendingWrite*> batch(write_queue_.begin(), write_queue_.end());
    write_queue_.clear();
    if (dead()) {
      for (PendingWrite* w : batch) {
        w->status = death_status_;
        w->done = true;
      }
      break;
    }
    lock.unlock();

    Status status;
    // A truncating write (mid-frame failpoint) must be the last thing on the
    // wire: flush everything before it, ship half of it, kill the socket.
    size_t cut = batch.size();
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i]->truncate) {
        cut = i;
        break;
      }
    }
    std::vector<::iovec> iov;
    iov.reserve(cut * 2);
    size_t wire_bytes = 0;
    for (size_t i = 0; i < cut; ++i) {
      PendingWrite* w = batch[i];
      iov.push_back({const_cast<char*>(w->head), w->head_len});
      wire_bytes += w->head_len + w->payload.size();
      if (!w->payload.empty()) {
        iov.push_back(
            {const_cast<char*>(w->payload.data()), w->payload.size()});
      }
    }
    if (!iov.empty()) {
      Stopwatch timer;
      status = socket_.SendAllIov(iov.data(), iov.size());
      if (status.ok()) {
        const MuxMetrics& metrics = MuxMetrics::Get();
        metrics.send_micros->Record(timer.ElapsedMicros());
        if (cut > 1) metrics.coalesced_frames->Add(static_cast<int64_t>(cut));
        metrics.frames_sent->Add(static_cast<int64_t>(cut));
        metrics.bytes_sent->Add(static_cast<int64_t>(wire_bytes));
      }
    }
    if (status.ok() && cut < batch.size()) {
      PendingWrite* w = batch[cut];
      const size_t total = w->head_len + w->payload.size();
      const size_t half = total / 2;
      if (half <= w->head_len) {
        (void)socket_.SendAll(std::string_view(w->head, half));
      } else {
        (void)socket_.SendAllV(std::string_view(w->head, w->head_len),
                               w->payload.substr(0, half - w->head_len));
      }
      // ShutdownBoth, not Close: the conn's RecvLoop may be blocked in
      // recv() on this fd. close() neither wakes it nor sends a FIN while
      // the syscall pins the socket, and it frees the fd number for reuse —
      // a zombie RecvLoop on a recycled fd steals frames from whoever owns
      // it next. shutdown() wakes the local reader and FINs the peer; the
      // fd itself is released by the MuxConn destructor.
      socket_.ShutdownBoth();
      status = Status::NetworkError("failpoint: connection dropped mid-frame");
    }

    lock.lock();
    for (PendingWrite* w : batch) {
      w->status = status;
      w->done = true;
    }
    write_cv_.notify_all();
    if (!status.ok()) {
      lock.unlock();
      Fail(status);
      lock.lock();
      break;
    }
  }
  flusher_active_ = false;
  write_cv_.notify_all();
  return pending.status;
}

void MuxConn::ReleaseChannel(uint32_t id) {
  std::lock_guard<std::mutex> lock(channels_mu_);
  channels_.erase(id);
}

std::shared_ptr<MuxChannel> MuxConn::FindChannel(uint32_t id) {
  std::lock_guard<std::mutex> lock(channels_mu_);
  auto it = channels_.find(id);
  if (it == channels_.end()) return nullptr;
  std::shared_ptr<MuxChannel> channel = it->second.lock();
  if (channel == nullptr) channels_.erase(it);
  return channel;
}

void MuxConn::RecvLoop() {
  Frame frame;
  std::string scratch;
  for (;;) {
    // Chaos surface for the shared connection itself: killing it here must
    // fail every multiplexed channel at once (the recovery the chaos test
    // asserts on).
    switch (SQLINK_FAILPOINT("net.mux.recv")) {
      case FailpointOutcome::kNone:
        break;
      case FailpointOutcome::kError:
      case FailpointOutcome::kClose:
        // ShutdownBoth (via Fail), not Close: a flusher thread may be
        // mid-send on this fd, and close() would free the fd number under
        // it. Fail() shuts the socket down; the destructor closes the fd.
        Fail(Status::NetworkError("failpoint: mux connection killed"));
        return;
    }
    const Status status = RecvFrameInto(&socket_, &frame, &scratch);
    if (!status.ok()) {
      Fail(status);
      return;
    }
    switch (frame.type) {
      case FrameType::kOpenChannel: {
        auto decoded = OpenChannelMessage::Decode(frame.payload);
        if (!decoded.ok()) {
          Fail(decoded.status());
          return;
        }
        std::shared_ptr<MuxChannel> channel;
        {
          std::lock_guard<std::mutex> lock(channels_mu_);
          channel = std::make_shared<MuxChannel>(shared_from_this(),
                                                 frame.channel);
          channels_[frame.channel] = channel;
        }
        if (on_open_ != nullptr) {
          on_open_(channel, *decoded);
        } else {
          channel->Shutdown(
              Status::InvalidArgument("unexpected kOpenChannel on client"));
        }
        break;
      }
      case FrameType::kChannelData: {
        if (frame.payload.empty()) {
          Fail(Status::DataLoss("empty kChannelData frame"));
          return;
        }
        std::shared_ptr<MuxChannel> channel = FindChannel(frame.channel);
        if (channel == nullptr) break;  // Late frame for a closed channel.
        const auto inner_type = static_cast<FrameType>(frame.payload[0]);
        if (!IsChannelFrameType(inner_type)) {
          // Only this channel is at fault; its socket-mates keep flowing.
          channel->Shutdown(Status::DataLoss(
              "unknown frame type " +
              std::to_string(static_cast<uint8_t>(inner_type)) +
              " on mux channel"));
          break;
        }
        Frame inner;
        inner.type = inner_type;
        inner.payload.assign(frame.payload, 1, std::string::npos);
        inner.seq = frame.seq;
        inner.channel = frame.channel;
        inner.trace = frame.trace;
        channel->OnFrame(std::move(inner));
        break;
      }
      case FrameType::kCloseChannel: {
        std::shared_ptr<MuxChannel> channel = FindChannel(frame.channel);
        if (channel == nullptr) break;
        channel->RemoteClose(frame.payload.empty()
                                 ? Status::OK()
                                 : DecodeStatusPayload(frame.payload));
        ReleaseChannel(frame.channel);
        break;
      }
      default:
        Fail(Status::DataLoss("unexpected frame type on mux connection"));
        return;
    }
  }
}

void MuxConn::Fail(const Status& status) {
  const Status death = status.ok()
                           ? Status::NetworkError("mux connection failed")
                           : status;
  std::vector<std::shared_ptr<MuxChannel>> channels;
  {
    std::lock_guard<std::mutex> lock(channels_mu_);
    if (dead_.exchange(true, std::memory_order_acq_rel)) return;
    for (auto& [id, weak] : channels_) {
      if (auto channel = weak.lock()) channels.push_back(std::move(channel));
    }
    channels_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    death_status_ = death;
    for (PendingWrite* w : write_queue_) {
      w->status = death;
      w->done = true;
    }
    write_queue_.clear();
    write_cv_.notify_all();
  }
  socket_.ShutdownBoth();
  MuxMetrics::Get().conns->Decrement();
  for (auto& channel : channels) channel->Fail(death);
}

}  // namespace sqlink
