#include "stream/sql_stream_input_format.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/retry_policy.h"
#include "common/status_macros.h"
#include "common/trace.h"
#include "net/conn_pool.h"
#include "net/mux.h"
#include "stream/coordinator.h"
#include "stream/heartbeat.h"
#include "table/row_codec.h"

namespace sqlink {

namespace {

RetryPolicy::Options ReconnectBackoffOptions(int split_id) {
  RetryPolicy::Options options;
  options.initial_delay_ms = 5;
  options.max_delay_ms = 200;
  options.seed = static_cast<uint64_t>(split_id);
  return options;
}

/// Receives one split's row stream from its SQL worker, with §6 recovery
/// (reconnect + sequence-numbered replay + dedupe), liveness heartbeats
/// when the coordinator leases, and fault injection.
///
/// Exactly-once apply protocol: every kData frame carries a monotonic
/// sequence number. The reader acknowledges frame N (cumulative kDataAck)
/// only after every row of N has been handed to the ML job, drops frames
/// with seq <= last applied as duplicates, and treats a sequence gap as a
/// transport failure. On reconnect it offers its last applied sequence in
/// HELLO; the sink replays exactly the unseen suffix.
///
/// One ack per drained inbox: the cumulative ack goes out when the channel's
/// inbox is empty, just before the reader blocks in Recv, or once the
/// applied frames it does not cover reach kAckEveryBytes. A sender parked on
/// a full window therefore always gets its ack: the reader drains what was
/// sent and acks before it waits for more.
class StreamRecordReader final : public ml::RecordReader {
 public:
  StreamRecordReader(std::string coordinator_host, int coordinator_port,
                     StreamSplitInfo split, StreamReaderOptions options,
                     int heartbeat_ms, MetricsRegistry* metrics)
      : coordinator_host_(std::move(coordinator_host)),
        coordinator_port_(coordinator_port),
        split_(std::move(split)),
        // Precomputed so the per-row failpoint probe costs one atomic load
        // (the macro skips the name expression when nothing is armed).
        row_failpoint_name_("stream.reader.row.split" +
                            std::to_string(split_.split_id)),
        kill_failpoint_name_("stream.reader.kill.split" +
                             std::to_string(split_.split_id)),
        options_(options),
        metrics_(metrics),
        bytes_received_(metrics != nullptr
                            ? metrics->GetCounter("stream.bytes_received")
                            : nullptr),
        rows_delivered_(metrics != nullptr
                            ? metrics->GetCounter("stream.reader.rows_delivered")
                            : nullptr),
        frames_deduped_(
            MetricsRegistry::Global().GetCounter("transfer.frames_deduped")),
        reconnect_backoff_(ReconnectBackoffOptions(split_.split_id)) {
    if (heartbeat_ms > 0) {
      HeartbeatSender::Options beat;
      beat.coordinator_host = coordinator_host_;
      beat.coordinator_port = coordinator_port_;
      beat.interval_ms = heartbeat_ms;
      beat.role = HeartbeatMessage::kReader;
      beat.id = split_.split_id;
      beat.epoch = split_.epoch;
      beat.failpoint_name = "stream.reader.heartbeat.split" +
                            std::to_string(split_.split_id);
      heartbeat_ = std::make_unique<HeartbeatSender>(std::move(beat));
    }
  }

  ~StreamRecordReader() override {
    PublishDelivered();
    CloseStreamSpan(/*error=*/!done_);
    CloseChannel(done_ ? Status::OK()
                       : Status::Cancelled("reader destroyed mid-split"));
    if (heartbeat_ != nullptr) {
      // A reader that dies without completing releases its lease for
      // immediate reassignment instead of waiting out the TTL.
      heartbeat_->Stop(done_ ? HeartbeatMessage::kCompleted
                             : HeartbeatMessage::kFailed);
    }
  }

  Status Open() override {
    if (heartbeat_ != nullptr) heartbeat_->Start();
    if (connected_ || done_) return Status::OK();
    for (;;) {
      const Status status = Connect(/*restart=*/ever_connected_);
      if (status.ok()) return Status::OK();
      RETURN_IF_ERROR(HandleFailure(status));
    }
  }

  uint64_t resume_row_count() const override { return resume_rows_; }

  Result<bool> Next(Row* out) override {
    for (;;) {
      if (done_) return false;
      if (heartbeat_ != nullptr && heartbeat_->revoked()) {
        // Fenced or aborted: stop applying *now* — a replacement reader may
        // be about to resume this partition.
        CloseChannel(heartbeat_->status());
        connected_ = false;
        return heartbeat_->status();
      }
      if (!connected_) {
        RETURN_IF_ERROR(Open());
        continue;
      }
      auto row = NextFromConnection(out);
      if (row.ok()) {
        if (!*row) {
          done_ = true;
          CloseStreamSpan(/*error=*/false);
          return false;
        }
        ++delivered_;
        RETURN_IF_ERROR(ProbeDeliveryFailpoints());
        return true;
      }
      RETURN_IF_ERROR(HandleFailure(row.status()));
    }
  }

 private:
  /// Applied-but-unacked frame bytes that force an ack even while frames
  /// wait in the inbox: 1/16 of the window the reader advertises, so a busy
  /// reader frees its sender's window long before it fills. A window below
  /// 16 frames acks every frame.
  static constexpr uint64_t kAckEveryBytes =
      static_cast<uint64_t>(kMuxChannelWindowBytes) / 16;

  /// Adds the rows delivered since the last call to the process-wide
  /// counter: once per committed frame and once at close, not per row.
  void PublishDelivered() {
    if (rows_delivered_ == nullptr || delivered_ == published_) return;
    rows_delivered_->Add(static_cast<int64_t>(delivered_ - published_));
    published_ = delivered_;
  }

  /// Fault injection after a delivery. "row": drop the connection and
  /// recover locally. "kill": the reader dies mid-split — no local recovery;
  /// its split must be reassigned to a survivor.
  Status ProbeDeliveryFailpoints() {
    if (SQLINK_FAILPOINT(kill_failpoint_name_) != FailpointOutcome::kNone) {
      CloseChannel(Status::Unavailable("failpoint: reader killed mid-split"));
      connected_ = false;
      if (heartbeat_ != nullptr) {
        heartbeat_->Stop(HeartbeatMessage::kFailed);
      }
      return Status::Unavailable("failpoint: reader killed mid-split");
    }
    if (SQLINK_FAILPOINT(row_failpoint_name_) != FailpointOutcome::kNone) {
      CloseChannel(Status::NetworkError("injected connection failure"));
      connected_ = false;
      RETURN_IF_ERROR(
          HandleFailure(Status::NetworkError("injected connection failure")));
    }
    return Status::OK();
  }

  /// Resolves the SQL endpoint (via the coordinator on reconnects) and
  /// performs the HELLO / RESUME / SCHEMA handshake.
  Status Connect(bool restart) {
    if (SQLINK_FAILPOINT("stream.reader.connect") != FailpointOutcome::kNone) {
      return Status::NetworkError("failpoint: injected reader connect error");
    }
    std::string host = split_.host;
    int port = split_.port;
    uint64_t sink_key = split_.sink_key;
    if (restart) {
      // §6: report the failure; the coordinator answers with the endpoint
      // of the (restarted) SQL worker to resume from.
      ASSIGN_OR_RETURN(
          std::string reply,
          CallCoordinator(coordinator_host_, coordinator_port_,
                          FrameType::kReportFailure,
                          ReportFailureMessage{split_.split_id}.Encode(),
                          FrameType::kMatch));
      ASSIGN_OR_RETURN(MatchMessage match, MatchMessage::Decode(reply));
      host = match.host;
      port = match.port;
      // A restarted sink re-registers under a fresh mux routing key; the
      // re-match carries the current one.
      sink_key = match.sink_key;
      if (metrics_ != nullptr) {
        metrics_->GetCounter("stream.reconnects")->Increment();
      }
    }
    HelloMessage hello;
    hello.split_id = split_.split_id;
    // A reader that held this connection before resumes from its own
    // applied position; a fresh one (first connect, or a replacement after
    // reassignment) lets the sink decide from its cumulative ack.
    hello.resume_seq =
        ever_connected_ ? static_cast<int64_t>(last_applied_seq_) : -1;
    // The HELLO rides inside kOpenChannel on a pooled shared connection;
    // the sink's partition handler answers on the channel (kResume first).
    ASSIGN_OR_RETURN(
        channel_, MuxConnPool::Global().OpenChannel(
                      host, port, sink_key,
                      /*affinity=*/static_cast<uint64_t>(split_.split_id),
                      hello));

    Frame resume_frame;
    RETURN_IF_ERROR(channel_->Recv(&resume_frame));
    if (resume_frame.type != FrameType::kResume) {
      if (resume_frame.type == FrameType::kError) {
        return DecodeStatusPayload(resume_frame.payload);
      }
      return Status::NetworkError("expected resume frame");
    }
    ASSIGN_OR_RETURN(ResumeMessage resume,
                     ResumeMessage::Decode(resume_frame.payload));
    if (!ever_connected_) {
      // Inherit the channel position: rows [1, resume_rows] were applied by
      // a previous incarnation and stay in the partition buffer (the runner
      // truncates it to exactly this count).
      last_applied_seq_ = resume.resume_seq;
      applied_rows_ = resume.resume_rows;
      resume_rows_ = resume.resume_rows;
    } else if (resume.resume_seq > last_applied_seq_) {
      return Status::DataLoss("sink resumed at frame " +
                              std::to_string(resume.resume_seq) +
                              " but reader applied only through " +
                              std::to_string(last_applied_seq_));
    }

    // The per-connection span parents to the *sender's* span carried in the
    // resume frame header: the SQL worker's trace continues on the ML side.
    CloseStreamSpan(/*error=*/false);
    stream_span_.emplace("reader.stream", resume_frame.trace);
    stream_span_->AddAttribute("split", split_.split_id);
    stream_span_->AddAttribute("restart", restart ? 1 : 0);
    stream_span_->AddAttribute("resume_seq",
                               static_cast<int64_t>(last_applied_seq_));
    connected_ = true;
    ever_connected_ = true;
    if (batch_pending_) {
      // The connection dropped while the staged frame was only partially
      // handed to the ML job. Those delivered rows stay in the partition,
      // and the frame was never committed or acked, so the sink will replay
      // it; remember the delivered prefix so the replay skips exactly it.
      skip_seq_ = batch_seq_;
      skip_rows_ = batch_index_;
    }
    batch_.clear();
    batch_index_ = 0;
    batch_pending_ = false;
    pending_ack_ = false;
    unacked_bytes_ = 0;
    return Status::OK();
  }

  /// Acknowledges the last fully-consumed frame. Called only once every row
  /// of that frame has been returned from Next — i.e. applied by the ML job
  /// — so the sink never trims a frame whose rows could still be lost.
  Status FlushAck() {
    if (!pending_ack_) return Status::OK();
    pending_ack_ = false;
    unacked_bytes_ = 0;
    RETURN_IF_ERROR(
        channel_->Send(FrameType::kDataAck, "", last_applied_seq_));
    if (heartbeat_ != nullptr) heartbeat_->set_applied_seq(last_applied_seq_);
    return Status::OK();
  }

  /// Next row from the live connection; false at clean end-of-stream.
  Result<bool> NextFromConnection(Row* out) {
    for (;;) {
      if (batch_index_ < batch_.size()) {
        *out = std::move(batch_[batch_index_++]);
        return true;
      }
      ASSIGN_OR_RETURN(bool live, AdvanceToStagedFrame());
      if (!live) return false;
    }
  }

  /// Marks a frame of `bytes` applied (or a duplicate dropped) and owed an
  /// ack.
  void OweAck(size_t bytes) {
    pending_ack_ = true;
    unacked_bytes_ += bytes;
  }

  /// Receives the next frame into frame_, sending the owed cumulative ack
  /// first only if the frames it covers reached kAckEveryBytes or the inbox
  /// is empty and the reader is about to block.
  Status RecvNext() {
    if (unacked_bytes_ >= kAckEveryBytes) RETURN_IF_ERROR(FlushAck());
    bool closed = false;
    ASSIGN_OR_RETURN(bool got, channel_->TryRecv(&frame_, &closed));
    if (got) return Status::OK();
    RETURN_IF_ERROR(FlushAck());
    return channel_->Recv(&frame_);
  }

  /// Commits the fully-delivered staged frame and receives until the next
  /// data frame is staged. Returns false at clean end-of-stream.
  Result<bool> AdvanceToStagedFrame() {
    if (batch_pending_) {
      // Every row of the staged frame has been handed to the ML job: only
      // now does the durable cursor advance. Committing at decode time
      // instead would make a reconnect resume past rows that were decoded
      // but never delivered.
      last_applied_seq_ = batch_seq_;
      applied_rows_ += batch_.size();
      batch_pending_ = false;
      OweAck(batch_bytes_);
      PublishDelivered();
    }
    for (;;) {
      RETURN_IF_ERROR(RecvNext());
      switch (frame_.type) {
        case FrameType::kData: {
          if (SQLINK_FAILPOINT("stream.reader.frame") !=
              FailpointOutcome::kNone) {
            return Status::NetworkError("failpoint: injected frame error");
          }
          if (frame_.seq <= last_applied_seq_) {
            // At-least-once delivery: a replayed frame this reader already
            // applied. Drop it whole; the re-ack lets the sink trim it.
            frames_deduped_->Increment();
            OweAck(frame_.payload.size());
            continue;
          }
          if (frame_.seq != last_applied_seq_ + 1) {
            return Status::NetworkError(
                "sequence gap: expected frame " +
                std::to_string(last_applied_seq_ + 1) + ", got " +
                std::to_string(frame_.seq));
          }
          Decoder decoder(frame_.payload);
          RETURN_IF_ERROR(RowCodec::DecodeRows(&decoder, &batch_));
          batch_index_ = 0;
          if (frame_.seq == skip_seq_ && skip_rows_ > 0) {
            // Replay of the frame that was in flight when the previous
            // connection dropped: its first skip_rows_ rows already reached
            // the partition, so deliver only the tail.
            batch_index_ = std::min<size_t>(skip_rows_, batch_.size());
          }
          skip_seq_ = 0;
          skip_rows_ = 0;
          batch_seq_ = frame_.seq;
          batch_bytes_ = frame_.payload.size();
          batch_pending_ = true;
          if (bytes_received_ != nullptr) {
            bytes_received_->Add(static_cast<int64_t>(frame_.payload.size()));
          }
          if (options_.consume_delay_micros_per_frame > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                options_.consume_delay_micros_per_frame));
          }
          return true;
        }
        case FrameType::kEnd: {
          if (frame_.seq != last_applied_seq_) {
            return Status::NetworkError(
                "sequence gap at end of stream: sender closed at frame " +
                std::to_string(frame_.seq) + ", reader applied through " +
                std::to_string(last_applied_seq_));
          }
          Decoder decoder(frame_.payload);
          ASSIGN_OR_RETURN(uint64_t expected, decoder.GetVarint64());
          if (expected != applied_rows_) {
            return Status::DataLoss(
                "stream row count mismatch: applied " +
                std::to_string(applied_rows_) + ", sender sent " +
                std::to_string(expected));
          }
          if (heartbeat_ != nullptr && heartbeat_->revoked()) {
            // Fenced during the finale: do NOT confirm — the sink must keep
            // its log for the replacement reader.
            return heartbeat_->status();
          }
          // Confirm completion so the sender may release its retained
          // state; a sender tears down only after this acknowledgement.
          RETURN_IF_ERROR(channel_->Send(FrameType::kAck, "", 0));
          CompleteSplit();
          // Clean close: frees the channel's slot on the shared connection
          // now instead of at reader destruction.
          CloseChannel(Status::OK());
          connected_ = false;
          return false;
        }
        case FrameType::kError:
          return DecodeStatusPayload(frame_.payload);
        default:
          return Status::NetworkError("unexpected data frame type");
      }
    }
  }

  /// Tells the coordinator the split is fully applied. Lease bookkeeping,
  /// but also the sink's out-of-band final-ack signal: if the kAck died
  /// with a shared connection, the sink's reconnect wait polls the
  /// coordinator (kSplitStatus) and finds the completion here — so this
  /// must run even when heartbeats are disabled. Best-effort.
  void CompleteSplit() {
    const CompleteSplitMessage msg{split_.split_id, split_.epoch,
                                   applied_rows_};
    (void)CallCoordinator(coordinator_host_, coordinator_port_,
                          FrameType::kCompleteSplit, msg.Encode(),
                          FrameType::kAck);
  }

  /// Finishes the per-connection span, stamping the delivered-row count.
  void CloseStreamSpan(bool error) {
    if (!stream_span_.has_value()) return;
    stream_span_->AddAttribute("rows_delivered",
                               static_cast<int64_t>(delivered_));
    if (error) stream_span_->SetError();
    stream_span_.reset();
  }

  /// Drops the channel. A non-OK status shuts it down abortively
  /// (kCloseChannel tells the sink why; the shared socket is untouched);
  /// releasing a healthy channel closes it cleanly.
  void CloseChannel(const Status& status) {
    if (channel_ == nullptr) return;
    if (!status.ok()) channel_->Shutdown(status);
    channel_.reset();
  }

  Status HandleFailure(const Status& cause) {
    CloseChannel(cause);
    connected_ = false;
    CloseStreamSpan(/*error=*/true);
    if (heartbeat_ != nullptr && heartbeat_->revoked()) {
      return heartbeat_->status();
    }
    // Cancelled and Aborted are verdicts on the transfer, not faults of the
    // connection: a stopped or aborted coordinator answers the re-match with
    // one, and a sink unwinding a cancelled or aborted query closes the
    // channel with one. No reconnect can succeed after either.
    if (cause.IsCancelled() || cause.IsAborted()) return cause;
    if (reconnects_ >= options_.max_reconnects) return cause;
    ++reconnects_;
    LOG_WARNING() << "stream split " << split_.split_id
                  << " transfer failed (" << cause.message()
                  << "), attempting recovery " << reconnects_;
    if (!reconnect_backoff_.Backoff()) {
      // The backoff deadline bounds total recovery time even when
      // max_reconnects would allow further attempts.
      return cause;
    }
    return Status::OK();
  }

  std::string coordinator_host_;
  int coordinator_port_;
  StreamSplitInfo split_;
  const std::string row_failpoint_name_;
  const std::string kill_failpoint_name_;
  StreamReaderOptions options_;
  MetricsRegistry* metrics_;
  Counter* bytes_received_;
  Counter* rows_delivered_;
  Counter* frames_deduped_;
  std::optional<TraceSpan> stream_span_;
  std::unique_ptr<HeartbeatSender> heartbeat_;

  std::shared_ptr<MuxChannel> channel_;  // On a pooled mux connection.
  bool connected_ = false;
  bool ever_connected_ = false;
  bool done_ = false;
  Frame frame_;                    // Receive scratch reused across frames.
  std::vector<Row> batch_;         // Staged kData frame.
  size_t batch_index_ = 0;         // Next staged row to deliver.
  uint64_t batch_seq_ = 0;         // Frame the staged rows decoded from.
  size_t batch_bytes_ = 0;         // That frame's payload bytes.
  bool batch_pending_ = false;     // Staged but not fully delivered.
  uint64_t skip_seq_ = 0;          // Frame whose replay skips a prefix of
  uint64_t skip_rows_ = 0;         // skip_rows_ already-delivered rows.
  bool pending_ack_ = false;       // last_applied_seq_ not yet acked.
  uint64_t unacked_bytes_ = 0;     // Payload bytes pending_ack_ covers.
  uint64_t last_applied_seq_ = 0;  // Highest frame fully handed to the job.
  uint64_t applied_rows_ = 0;      // Rows in frames [1, last_applied_seq_].
  uint64_t resume_rows_ = 0;       // Partition truncation point (Open).
  uint64_t delivered_ = 0;         // Rows handed to the ML job by *this* reader.
  uint64_t published_ = 0;         // delivered_ already in rows_delivered_.
  int reconnects_ = 0;
  RetryPolicy reconnect_backoff_;
};

}  // namespace

SqlStreamInputFormat::SqlStreamInputFormat(std::string coordinator_host,
                                           int coordinator_port,
                                           StreamReaderOptions options)
    : coordinator_host_(std::move(coordinator_host)),
      coordinator_port_(coordinator_port),
      options_(options) {}

Result<std::vector<ml::InputSplitPtr>> SqlStreamInputFormat::GetSplits(
    const ml::JobContext& context) {
  (void)context;
  // Step 3: the customized getInputSplits contacts the coordinator. The
  // exchange is read-only on the coordinator, so dropped control
  // connections are simply retried with backoff. A kError reply carries the
  // coordinator's typed status: an aborted or stopped transfer answers
  // Cancelled or Aborted, which ends the retries at once.
  TraceSpan span("reader.get_splits");
  RetryPolicy retry(RetryPolicy::Options{});
  Result<SplitsMessage> exchange = retry.Run([&]() -> Result<SplitsMessage> {
    ASSIGN_OR_RETURN(std::string reply,
                     CallCoordinator(coordinator_host_, coordinator_port_,
                                     FrameType::kGetSplits, "",
                                     FrameType::kSplits));
    return SplitsMessage::Decode(reply);
  });
  if (!exchange.ok()) return exchange.status();
  SplitsMessage msg = exchange.MoveValue();
  schema_ = msg.schema;
  heartbeat_ms_ = msg.heartbeat_ms;
  std::vector<ml::InputSplitPtr> splits;
  splits.reserve(msg.splits.size());
  for (StreamSplitInfo& info : msg.splits) {
    splits.push_back(std::make_shared<StreamSplit>(std::move(info)));
  }
  return splits;
}

Result<std::unique_ptr<ml::RecordReader>> SqlStreamInputFormat::CreateReader(
    const ml::JobContext& context, const ml::InputSplit& split,
    int worker_id) {
  (void)worker_id;
  const auto* stream_split = dynamic_cast<const StreamSplit*>(&split);
  if (stream_split == nullptr) {
    return Status::InvalidArgument("SqlStreamInputFormat needs a StreamSplit");
  }
  return std::unique_ptr<ml::RecordReader>(new StreamRecordReader(
      coordinator_host_, coordinator_port_, stream_split->info(), options_,
      heartbeat_ms_, context.metrics));
}

Result<ml::ReassignedSplit> SqlStreamInputFormat::AcquireReassigned() {
  ASSIGN_OR_RETURN(std::string reply,
                   CallCoordinator(coordinator_host_, coordinator_port_,
                                   FrameType::kAcquireSplit, "",
                                   FrameType::kSplitGrant));
  ASSIGN_OR_RETURN(SplitGrantMessage grant, SplitGrantMessage::Decode(reply));
  ml::ReassignedSplit result;
  if (grant.granted) {
    result.index = grant.split.split_id;
    result.split = std::make_shared<StreamSplit>(std::move(grant.split));
  }
  return result;
}

void SqlStreamInputFormat::AbortTransfer(const Status& status) {
  (void)CallCoordinator(coordinator_host_, coordinator_port_,
                        FrameType::kAbortQuery, EncodeStatus(status),
                        FrameType::kAck);
}

}  // namespace sqlink
