#include "stream/stream_sink_udf.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/blocking_queue.h"
#include "common/coding.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/retry_policy.h"
#include "common/status_macros.h"
#include "common/trace.h"
#include "net/conn_pool.h"
#include "net/mux.h"
#include "sql/query_registry.h"
#include "stream/coordinator.h"
#include "stream/frame_log.h"
#include "stream/heartbeat.h"
#include "stream/wire.h"
#include "table/row_codec.h"

namespace sqlink {

namespace {

constexpr char kSinkUsage[] =
    "sql_stream_sink(query, host, port, command[, buffer_bytes, spill, "
    "reconnect_timeout_ms])";

/// How long DrainAcks reads the reader's frames.
enum class AckWait {
  kNone,   ///< Apply what has arrived; never block.
  kOne,    ///< Block for the next cumulative ack: the window is full.
  kFinal,  ///< Block for the reader's final kAck.
};

/// Applies the reader's acks on `channel` to `log`. Cumulative kDataAcks
/// arrive interleaved with (and independent of) the outbound data, so the
/// sender drains them without blocking between frames, and blocks only
/// while the reader's window is full or for the final kAck. A parked wait
/// wakes with the channel's status when the channel closes or is shut down.
/// A kError frame surfaces as its decoded typed status. A clean peer close
/// seen while draining is NOT an error: the send path discovers the closed
/// channel on its next write.
Status DrainAcks(MuxChannel* channel, FrameLog* log, AckWait wait,
                 Frame* frame) {
  for (;;) {
    if (wait == AckWait::kNone) {
      bool closed = false;
      ASSIGN_OR_RETURN(bool got, channel->TryRecv(frame, &closed));
      if (!got) return Status::OK();
    } else if (const Status status = channel->Recv(frame); !status.ok()) {
      if (wait == AckWait::kOne) return status;
      return Status::NetworkError("connection closed before final ack (" +
                                  status.message() + ")");
    }
    switch (frame->type) {
      case FrameType::kDataAck:
        log->Ack(frame->seq);
        if (wait == AckWait::kOne) return Status::OK();
        break;
      case FrameType::kAck:
        if (wait == AckWait::kFinal) return Status::OK();
        return Status::NetworkError("unexpected final ack mid-stream");
      case FrameType::kError:
        return DecodeStatusPayload(frame->payload);
      default:
        return Status::NetworkError("unexpected frame on ack channel");
    }
  }
}

/// A reader's data channel, routed to its sender by the HELLO split id.
struct Inbound {
  std::shared_ptr<MuxChannel> channel;
  int64_t resume_seq = -1;  ///< From HELLO: -1 = "sink decides".
  uint64_t window_bytes = 0;  ///< The reader's window, from kOpenChannel.
};

/// State shared with the MuxSinkServer handler, which can fire on a
/// connection's demux thread even as this transfer tears down — so it
/// owns the inboxes jointly and checks `closed` under the lock.
struct RouterState {
  std::mutex mu;
  bool closed = false;
  int first_split = 0;  ///< worker_id·k, once registration set `inboxes`.
  /// One per sender, k of them; empty until registration tells us k.
  std::vector<std::shared_ptr<BlockingQueue<Inbound>>> inboxes;
  /// Channels that opened before registration told us `k`, parked here
  /// so a reader racing the registration ack is not rejected outright
  /// (it may not retry).
  std::vector<std::pair<std::shared_ptr<MuxChannel>, OpenChannelMessage>>
      pending;

  /// Hands a channel to the sender of its HELLO's split, first_split + j,
  /// or parks it until registration. A channel for a split outside this
  /// worker's k is shut down, as is any once the routing closed. A full
  /// or closed inbox drops the Inbound, whose destructor closes the
  /// channel: the reader backs off and retries. The shared socket is
  /// untouched either way. Requires mu.
  void RouteLocked(std::shared_ptr<MuxChannel> channel,
                   const OpenChannelMessage& msg) {
    if (!closed && inboxes.empty()) {
      pending.emplace_back(std::move(channel), msg);
      return;
    }
    const int64_t slot = int64_t{msg.hello.split_id} - first_split;
    if (closed || slot < 0 || slot >= static_cast<int64_t>(inboxes.size())) {
      channel->Shutdown(Status::Unavailable(
          "sink not serving split " + std::to_string(msg.hello.split_id)));
      return;
    }
    (void)inboxes[static_cast<size_t>(slot)]->TryPush(
        Inbound{std::move(channel), msg.hello.resume_seq, msg.window_bytes});
  }
};

/// Channels the senders are actively serving, so an abort can shut each
/// LOGICAL channel down — waking a sender parked on a full window or the
/// final-ack wait — without ever touching the shared mux socket the
/// channel rides on (other queries keep flowing).
struct ActiveChannels {
  std::mutex mu;
  std::vector<std::shared_ptr<MuxChannel>> by_target;
  void Set(size_t j, std::shared_ptr<MuxChannel> channel) {
    std::lock_guard<std::mutex> lock(mu);
    by_target[j] = std::move(channel);
  }
  void ShutdownAll(const Status& status) {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& channel : by_target) {
      if (channel != nullptr) channel->Shutdown(status);
    }
  }
};

/// Waits for a data connection on `inbox`, pacing the poll with a backoff
/// policy so the total wait across reconnect attempts is deadline-capped
/// rather than one fixed-length block per attempt. Leaves `out` empty when
/// the inbox closes (shutdown). Between slices, `split_status` asks the
/// coordinator whether the split was already reported complete — a reader
/// whose final ack died with a shared connection finishes that way and
/// never reconnects; `*completed` signals that success to the caller. An
/// answer that is not transient, such as the query's abort, ends the wait
/// with its status: no reader is coming.
Status WaitForInbound(BlockingQueue<Inbound>* inbox, RetryPolicy* policy,
                      const std::function<Result<bool>()>& split_status,
                      std::optional<Inbound>* out, bool* completed) {
  for (;;) {
    const auto slice = policy->NextDelay();
    if (!slice.has_value()) {
      return Status::Unavailable("timed out waiting for ML worker");
    }
    bool timed_out = false;
    *out = inbox->PopFor(*slice, &timed_out);
    if (!timed_out) return Status::OK();
    const Result<bool> done = split_status();
    if (done.ok() && *done) {
      *completed = true;
      return Status::OK();
    }
    if (!done.ok() && !RetryPolicy::IsTransient(done.status())) {
      return done.status();
    }
  }
}

}  // namespace

Result<StreamSinkOptions> StreamSinkOptions::FromArgs(
    const std::vector<Value>& args, size_t first) {
  StreamSinkOptions options;
  if (args.size() > first && !args[first].is_null()) {
    if (!args[first].is_int64() || args[first].int64_value() <= 0) {
      return Status::InvalidArgument("buffer size must be a positive integer");
    }
    options.send_buffer_bytes = static_cast<size_t>(args[first].int64_value());
  }
  if (args.size() > first + 1) {
    if (!args[first + 1].is_int64()) {
      return Status::InvalidArgument("spill flag must be 0 or 1");
    }
    options.spill_enabled = args[first + 1].int64_value() != 0;
  }
  if (args.size() > first + 2) {
    if (!args[first + 2].is_int64() || args[first + 2].int64_value() <= 0) {
      return Status::InvalidArgument("reconnect timeout must be positive");
    }
    options.reconnect_timeout_ms =
        static_cast<int>(args[first + 2].int64_value());
  }
  if (args.size() > first + 3) {
    return Status::InvalidArgument(std::string("too many arguments: ") +
                                   kSinkUsage);
  }
  return options;
}

SchemaPtr SqlStreamSinkUdf::SummarySchema() {
  return Schema::Make({{"worker", DataType::kInt64},
                       {"rows_sent", DataType::kInt64},
                       {"bytes_sent", DataType::kInt64},
                       {"spilled_frames", DataType::kInt64}});
}

Result<SchemaPtr> SqlStreamSinkUdf::Bind(const SchemaPtr& input_schema,
                                         const std::vector<Value>& args) {
  if (input_schema == nullptr) {
    return Status::InvalidArgument("sql_stream_sink needs an input relation");
  }
  if (args.size() < 3 || !args[0].is_string() || !args[1].is_int64() ||
      !args[2].is_string()) {
    return Status::InvalidArgument(kSinkUsage);
  }
  coordinator_host_ = args[0].string_value();
  coordinator_port_ = static_cast<int>(args[1].int64_value());
  command_ = args[2].string_value();
  ASSIGN_OR_RETURN(options_, StreamSinkOptions::FromArgs(args, 3));
  input_schema_ = input_schema;
  return SummarySchema();
}

/// One SQL worker's transfer: Start registers and starts a sender thread
/// per frame log, Consume encodes rows from the input's typed columns into
/// the logs on the worker thread, Finish settles the transfer and appends
/// the summary row. Destroyed without Finish, it aborts the transfer.
class SqlStreamSinkUdf::Partition final : public TableUdfPartition {
 public:
  Partition(const SqlStreamSinkUdf* udf, const TableUdfContext& context)
      : udf_(udf), context_(context) {
    partition_span_.AddAttribute("worker", context.worker_id);
  }
  ~Partition() override;
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  /// Steps 1 and 7 of §3 and the start of step 8.
  Status Start();
  Status Consume(ColumnBatch input, ColumnBatch* output) override;
  Status Finish(ColumnBatch* output) override;

 private:
  /// One sender thread: serves target j's log to its (re)connecting reader.
  void RunSender(int j);
  /// Appends target j's batch to its log as one frame; a failed Append
  /// ends the transfer.
  Status Flush(size_t j);
  /// Wakes every parked sender (lease revoked, query cancelled, partition
  /// abandoned): cancels the logs, closes the inboxes, shuts the channels.
  void Unwind(const Status& why);
  /// Ends the transfer after the producer stopped with `produce_status`
  /// (from an Append on `target`'s log, if it failed): closes or cancels
  /// the logs, joins the senders, and broadcasts a failure's abort.
  Status Settle(Status produce_status, size_t target);

  const SqlStreamSinkUdf* udf_;
  const TableUdfContext context_;
  // Per-partition root of the SQL side of the trace, under the ambient
  // (transfer) context on whichever thread opens it. Every frame this worker
  // sends carries a descendant, so coordinator and reader join the trace.
  TraceSpan partition_span_{"sink.partition",
                            Tracer::Global().ambient_context()};
  std::shared_ptr<RouterState> router_;  ///< Set once routing is registered.
  uint64_t sink_key_ = 0;
  int first_split_ = 0;  ///< worker_id·k: the split sender 0 serves.
  std::vector<std::shared_ptr<BlockingQueue<Inbound>>> inboxes_;
  std::vector<std::unique_ptr<FrameLog>> logs_;
  ActiveChannels active_channels_;
  // After the logs, inboxes and channels its revocation callback unwinds,
  // so it stops before they die. Set once Start succeeded.
  std::optional<HeartbeatSender> heartbeat_;
  int64_t cancel_id_ = 0;
  std::atomic<int64_t> channels_served_{0};
  std::vector<Status> sender_status_;
  std::vector<std::thread> senders_;  ///< After all they use.
  std::vector<RowBatchEncoder> batchers_;
  size_t next_target_ = 0;
  int64_t rows_sent_ = 0;
  int64_t bytes_sent_ = 0;
  bool settled_ = false;
};

Status SqlStreamSinkUdf::Partition::Start() {
  // --- Step 1: register with the coordinator. ---
  //
  // Every partition in the process shares ONE listener (the MuxSinkServer)
  // and readers multiplex channels over the pooled connections to it; the
  // registration advertises this partition's routing key.
  ASSIGN_OR_RETURN(const int data_port,
                   MuxSinkServer::Global().EnsureStarted());
  // From here on the destructor unwinds the routing.
  router_ = std::make_shared<RouterState>();
  sink_key_ = MuxSinkServer::Global().Register(
      [router = router_](std::shared_ptr<MuxChannel> channel,
               const OpenChannelMessage& msg) {
        // Demux-thread context: route without blocking.
        std::lock_guard<std::mutex> lock(router->mu);
        router->RouteLocked(std::move(channel), msg);
      });

  const std::string my_host =
      context_.cluster != nullptr
          ? context_.cluster->HostName(context_.worker_id)
          : "localhost";

  RegisterSqlMessage registration;
  registration.worker_id = context_.worker_id;
  registration.num_workers = context_.num_workers;
  registration.host = my_host;
  registration.port = data_port;
  registration.command = udf_->command_;
  registration.schema = udf_->input_schema_;
  registration.sink_key = sink_key_;
  RegisterAckMessage registered;
  {
    TraceSpan register_span("sink.register");
    // Registration is idempotent on the coordinator, so transient failures
    // (dropped control connections, injected faults) are retried with
    // backoff rather than restarting the whole SQL task.
    RetryPolicy::Options retry_options;
    retry_options.deadline_ms = udf_->options_.reconnect_timeout_ms;
    retry_options.seed = static_cast<uint64_t>(context_.worker_id);
    RetryPolicy retry(retry_options);
    Result<std::string> ack = retry.Run([&]() -> Result<std::string> {
      if (SQLINK_FAILPOINT("stream.sink.register") != FailpointOutcome::kNone) {
        return Status::NetworkError("failpoint: injected registration error");
      }
      // A refusal (kError) is typed and ends the retries at once.
      return CallCoordinator(udf_->coordinator_host_, udf_->coordinator_port_,
                             FrameType::kRegisterSql, registration.Encode(),
                             FrameType::kAck);
    });
    if (!ack.ok()) return ack.status();
    ASSIGN_OR_RETURN(registered, RegisterAckMessage::Decode(*ack));
  }
  const int k = registered.splits_per_worker;
  first_split_ = context_.worker_id * k;

  // --- Step 7: route incoming data channels to their sender by HELLO
  // split id: sender j serves split first_split_ + j. Reconnects and §6
  // replacement readers arrive the same way, through the handler
  // registered above. ---
  for (int j = 0; j < k; ++j) {
    inboxes_.push_back(std::make_shared<BlockingQueue<Inbound>>(4));
  }
  {
    std::lock_guard<std::mutex> lock(router_->mu);
    router_->first_split = first_split_;
    router_->inboxes = inboxes_;
    // Route the channels that beat the registration ack here.
    for (auto& [channel, msg] : std::exchange(router_->pending, {})) {
      router_->RouteLocked(std::move(channel), msg);
    }
  }

  // --- Step 8: round-robin rows into per-target frame logs while sender
  // threads send them onto the channels. A log keeps each sent frame until
  // the reader's cumulative ack trims it. ---
  const std::string scratch_dir =
      context_.cluster != nullptr
          ? context_.cluster->NodeLocalDir(context_.worker_id)
          : "/tmp";
  for (int j = 0; j < k; ++j) {
    FrameLog::Options log_options;
    log_options.send_buffer_bytes = udf_->options_.send_buffer_bytes;
    log_options.spill_enabled = udf_->options_.spill_enabled;
    // The query id keeps scratch paths distinct when several queries run
    // concurrently on one engine — without it, two pipelines truncate and
    // delete each other's spill files.
    log_options.spill_path = scratch_dir + "/stream_spill_q" +
                             std::to_string(context_.query_id) + "_w" +
                             std::to_string(context_.worker_id) + "_t" +
                             std::to_string(j);
    // Per-query spill quota (serving layer): when exhausted, Append
    // degrades to backpressure instead of growing the shared spill directory.
    log_options.spill_budget = context_.spill_budget;
    logs_.push_back(std::make_unique<FrameLog>(log_options));
  }
  active_channels_.by_target.resize(static_cast<size_t>(k));

  // Sink lease: one heartbeat per SQL worker. Revocation means the
  // coordinator aborted the query (or fenced this sink) — unwind so
  // producer and senders stop promptly with a typed status. A sender
  // parked waiting for a (re)connect must wake too: an aborted query has
  // no replacement reader coming, so sleeping out the full reconnect
  // window would stall the drain.
  HeartbeatSender::Options beat_options;
  beat_options.coordinator_host = udf_->coordinator_host_;
  beat_options.coordinator_port = udf_->coordinator_port_;
  beat_options.interval_ms = registered.heartbeat_ms;
  beat_options.role = HeartbeatMessage::kSink;
  beat_options.id = context_.worker_id;
  beat_options.on_revoked = [this] {
    Unwind(Status::Aborted("sink lease revoked"));
  };
  heartbeat_.emplace(beat_options);
  heartbeat_->Start();

  // Per-query cancellation (client disconnect, deadline): same unwind as a
  // lease revocation. The destructor removes the callback (and waits out
  // any in-flight cancel pass) before the logs are destroyed.
  if (context_.cancellation != nullptr) {
    cancel_id_ = context_.cancellation->OnCancel(
        [this] { Unwind(Status::Cancelled("query cancelled")); });
  }

  sender_status_.resize(static_cast<size_t>(k));
  batchers_.resize(static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) {
    senders_.emplace_back([this, j] { RunSender(j); });
  }
  return Status::OK();
}

void SqlStreamSinkUdf::Partition::RunSender(int j) {
  static Counter* const replayed_counter =
      MetricsRegistry::Global().GetCounter("transfer.frames_replayed");
  static Counter* const window_stalls =
      MetricsRegistry::Global().GetCounter("net.mux.window_stalls");
  // The sender runs on its own thread, so it parents to the partition
  // span explicitly; frames it sends inherit this span's context.
  TraceSpan send_span("sink.send", partition_span_.context());
  send_span.AddAttribute("target", j);
  FrameLog* log = logs_[static_cast<size_t>(j)].get();
  const StreamSinkOptions& options = udf_->options_;

  // A reader that applied the whole stream can lose its final ack to a
  // dying shared connection: it reports kCompleteSplit to the
  // coordinator and never reconnects. Every wait for a (re)connect polls
  // that out-of-band signal for the split this sender serves, and the
  // query's abort with it: a reader that never connects ends the wait too.
  std::string request;
  PutVarint64(&request, static_cast<uint64_t>(first_split_ + j));
  auto split_status = [&]() -> Result<bool> {
    ASSIGN_OR_RETURN(
        std::string reply,
        CallCoordinator(udf_->coordinator_host_, udf_->coordinator_port_,
                        FrameType::kSplitStatus, request, FrameType::kAck));
    Decoder decoder(reply);
    ASSIGN_OR_RETURN(uint64_t done, decoder.GetVarint64());
    return done == 1;
  };

  // Serves one (re)connection: answer HELLO with the resume point, then
  // send the log from there on — the unacked suffix first, then live
  // frames — until the log is drained and the reader's final ack lands.
  auto serve = [&](const Inbound& conn) -> Status {
    MuxChannel* channel = conn.channel.get();
    Frame ack;  ///< Scratch reused across ack drains.
    channels_served_.fetch_add(1, std::memory_order_relaxed);
    // Publish the channel so an abort can wake this sender even while
    // it is parked on a full window or in the final-ack wait; clear it
    // on every exit path before the Inbound (and channel) dies.
    active_channels_.Set(static_cast<size_t>(j), conn.channel);
    struct ActiveGuard {
      ActiveChannels* active;
      size_t j;
      ~ActiveGuard() { active->Set(j, nullptr); }
    } active_guard{&active_channels_, static_cast<size_t>(j)};

    // The log forgets acked frames, and a reader can't skip frames it
    // never received: resume lands in [acked, sent]. Frames at or below
    // it were not sent on this channel, so the window starts empty.
    const uint64_t resume = log->Rewind(
        conn.resume_seq < 0 ? 0 : static_cast<uint64_t>(conn.resume_seq));
    ASSIGN_OR_RETURN(uint64_t resume_rows, log->RowsThrough(resume));
    ResumeMessage resume_msg;
    resume_msg.resume_seq = resume;
    resume_msg.resume_rows = resume_rows;
    RETURN_IF_ERROR(channel->Send(FrameType::kResume, resume_msg.Encode(), 0));

    // A frame stays in the log until acked, so one that dies on the
    // wire is sent again from the next connection's resume point. While
    // the bytes in flight fill the reader's window, wait on the channel
    // for its next ack; with nothing in flight a frame goes whatever its
    // size, so a window below one frame still moves a frame at a time.
    // Each park counts once, however many acks it takes to leave it.
    auto window_full = [&] {
      const uint64_t in_flight = log->state().in_flight_bytes;
      return in_flight > 0 && in_flight >= conn.window_bytes;
    };
    for (;;) {
      RETURN_IF_ERROR(DrainAcks(channel, log, AckWait::kNone, &ack));
      if (window_full()) {
        window_stalls->Increment();
        while (window_full()) {
          RETURN_IF_ERROR(DrainAcks(channel, log, AckWait::kOne, &ack));
        }
      }
      ASSIGN_OR_RETURN(std::optional<FrameLog::Read> read, log->Next());
      if (!read.has_value()) break;
      if (read->replay) replayed_counter->Increment();
      RETURN_IF_ERROR(channel->Send(FrameType::kData, read->frame, read->seq));
    }

    // kEnd carries the last data sequence so the reader can detect a
    // gap, and the channel's total row count for validation.
    const uint64_t last_seq = log->state().produced;
    ASSIGN_OR_RETURN(uint64_t total_rows, log->RowsThrough(last_seq));
    std::string end_payload;
    PutVarint64(&end_payload, total_rows);
    RETURN_IF_ERROR(channel->Send(FrameType::kEnd, end_payload, last_seq));
    return DrainAcks(channel, log, AckWait::kFinal, &ack);
  };

  auto run = [&]() -> Status {
    // Bounded wait shared across every (re)connect: a dead ML job
    // becomes an error, not a hang.
    RetryPolicy::Options wait_options;
    wait_options.deadline_ms = options.reconnect_timeout_ms;
    wait_options.jitter = 0.0;
    RetryPolicy wait_policy(wait_options);
    for (;;) {
      std::optional<Inbound> conn;
      bool acked_via_coordinator = false;
      RETURN_IF_ERROR(WaitForInbound(inboxes_[static_cast<size_t>(j)].get(),
                                     &wait_policy, split_status, &conn,
                                     &acked_via_coordinator));
      if (acked_via_coordinator) return Status::OK();
      if (!conn.has_value()) {
        return Status::Cancelled("no ML worker connected");
      }
      // An abort can race an inbound into the queue; serving it would
      // stream rows for a query that is already dead, retrying past
      // the transfer's end instead of honoring its deadline.
      if (heartbeat_->revoked()) return heartbeat_->status();
      if (context_.cancellation != nullptr &&
          context_.cancellation->cancelled()) {
        return context_.cancellation->status();
      }
      const Status status = serve(*conn);
      if (status.ok()) return status;
      if (heartbeat_->revoked()) return heartbeat_->status();
      if (!RetryPolicy::IsTransient(status)) return status;
      LOG_WARNING() << "stream sink worker " << context_.worker_id
                    << " target " << j
                    << " transfer failed, awaiting reconnect: " << status;
    }
  };
  Status status = run();
  if (heartbeat_->revoked()) status = heartbeat_->status();
  sender_status_[static_cast<size_t>(j)] = status;
  if (!status.ok()) {
    send_span.SetError();
    // Unblock the producer so the SQL side fails fast instead of
    // filling a log nobody drains.
    log->Cancel();
  }
}

Status SqlStreamSinkUdf::Partition::Flush(size_t j) {
  const uint64_t rows = batchers_[j].rows();
  std::string frame = FrameBufferPool::Global()->Acquire();
  batchers_[j].Flush(&frame);
  bytes_sent_ += static_cast<int64_t>(frame.size());
  const Status appended = logs_[j]->Append(std::move(frame), rows);
  return appended.ok() ? appended : Settle(appended, j);
}

Status SqlStreamSinkUdf::Partition::Consume(ColumnBatch input, ColumnBatch*) {
  // Rows go round-robin, one at a time, into per-target row batches; a
  // batch becomes a frame once it crosses the send buffer size.
  for (size_t r = 0; r < input.num_rows(); ++r) {
    RowBatchEncoder& batch = batchers_[next_target_];
    batch.Add(input, r);
    ++rows_sent_;
    if (batch.bytes() >= udf_->options_.send_buffer_bytes) {
      RETURN_IF_ERROR(Flush(next_target_));
    }
    next_target_ = (next_target_ + 1) % batchers_.size();
  }
  return Status::OK();
}

Status SqlStreamSinkUdf::Partition::Finish(ColumnBatch* output) {
  for (size_t j = 0; j < batchers_.size(); ++j) {
    if (!batchers_[j].empty()) RETURN_IF_ERROR(Flush(j));
  }
  RETURN_IF_ERROR(Settle(Status::OK(), 0));
  int64_t spilled_frames = 0;
  for (auto& log : logs_) spilled_frames += log->state().spilled_frames;

  static Counter* const rows_counter =
      MetricsRegistry::Global().GetCounter("stream.sink.rows_sent");
  static Counter* const bytes_counter =
      MetricsRegistry::Global().GetCounter("stream.sink.bytes_sent");
  rows_counter->Add(rows_sent_);
  bytes_counter->Add(bytes_sent_);
  partition_span_.AddAttribute("rows_sent", rows_sent_);
  partition_span_.AddAttribute("bytes_sent", bytes_sent_);
  partition_span_.AddAttribute("spilled_frames", spilled_frames);
  // Attribute the transfer to its owning query so the /queries ops endpoint
  // shows live transfer progress next to the query's operator stats.
  if (context_.query_id != 0) {
    partition_span_.AddAttribute("query_id",
                                 static_cast<int64_t>(context_.query_id));
    if (QueryRecordPtr record =
            QueryRegistry::Global().Find(context_.query_id)) {
      record->transfer_rows.fetch_add(rows_sent_, std::memory_order_relaxed);
      record->transfer_bytes.fetch_add(bytes_sent_, std::memory_order_relaxed);
      record->transfer_spilled_frames.fetch_add(spilled_frames,
                                                std::memory_order_relaxed);
      record->transfer_channels.fetch_add(
          channels_served_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }
  return output->AppendRow(Row{Value::Int64(context_.worker_id),
                               Value::Int64(rows_sent_),
                               Value::Int64(bytes_sent_),
                               Value::Int64(spilled_frames)});
}

void SqlStreamSinkUdf::Partition::Unwind(const Status& why) {
  for (auto& log : logs_) log->Cancel();
  for (auto& inbox : inboxes_) inbox->Close();
  active_channels_.ShutdownAll(why);
}

Status SqlStreamSinkUdf::Partition::Settle(Status produce_status,
                                           size_t target) {
  settled_ = true;
  for (auto& log : logs_) {
    if (produce_status.ok()) {
      log->Close();
    } else {
      log->Cancel();
    }
  }
  for (std::thread& sender : senders_) sender.join();

  Status transfer_status = produce_status;
  if (transfer_status.IsCancelled() && !sender_status_[target].ok()) {
    // The log's failed sender cancelled it, which is all the producer's
    // Append saw: report the sender's own error.
    transfer_status = sender_status_[target];
  }
  if (transfer_status.ok()) {
    for (const Status& status : sender_status_) {
      if (!status.ok()) {
        transfer_status = status;
        break;
      }
    }
  }
  if (heartbeat_->revoked()) transfer_status = heartbeat_->status();
  if (!transfer_status.ok() && context_.cancellation != nullptr &&
      context_.cancellation->cancelled()) {
    // Surface the typed cancellation status (kCancelled / deadline) instead
    // of the generic "frame log cancelled" the unwind produced.
    transfer_status = context_.cancellation->status();
  }
  if (!transfer_status.ok()) {
    // The SQL side is done for: broadcast the abort so readers and the
    // runner drain promptly. A reader re-matching to this sink gets the
    // abort instead of spending its reconnects on a sender that is gone,
    // and a leased one stops at its next beat instead of a TTL later.
    heartbeat_->Stop(HeartbeatMessage::kAlive);
    if (!heartbeat_->revoked()) {
      (void)CallCoordinator(udf_->coordinator_host_, udf_->coordinator_port_,
                            FrameType::kAbortQuery,
                            EncodeStatus(transfer_status), FrameType::kAck);
    }
    return transfer_status;
  }
  heartbeat_->Stop(HeartbeatMessage::kCompleted);
  return Status::OK();
}

SqlStreamSinkUdf::Partition::~Partition() {
  if (heartbeat_.has_value() && !settled_) {
    // Finish never ran: an upstream error, a cancellation or a LIMIT
    // stopped the worker. Wake every parked sender and abort the transfer;
    // a cancelled query's abort carries its cancellation status.
    const Status stopped = Status::Aborted("SQL worker stopped early");
    Unwind(stopped);
    (void)Settle(stopped, 0);
  }
  if (heartbeat_.has_value() && context_.cancellation != nullptr) {
    context_.cancellation->RemoveCallback(cancel_id_);
  }
  if (router_ != nullptr) {
    // Unwind the routing: stop taking channels, reject the parked ones, and
    // wake senders waiting on an inbox.
    MuxSinkServer::Global().Unregister(sink_key_);
    std::lock_guard<std::mutex> lock(router_->mu);
    router_->closed = true;
    for (auto& [channel, msg] : router_->pending) {
      channel->Shutdown(Status::Unavailable("sink not serving"));
    }
    router_->pending.clear();
    for (auto& inbox : router_->inboxes) inbox->Close();
  }
}

Result<TableUdfPartitionPtr> SqlStreamSinkUdf::Open(
    const TableUdfContext& context) {
  auto partition = std::make_unique<Partition>(this, context);
  RETURN_IF_ERROR(partition->Start());
  return TableUdfPartitionPtr(std::move(partition));
}

Status RegisterStreamSinkUdf(SqlEngine* engine) {
  Status registered = engine->table_udfs()->Register(
      "sql_stream_sink", [] { return std::make_shared<SqlStreamSinkUdf>(); });
  // Concurrent transfers race to register first; losing the race is fine.
  if (registered.IsAlreadyExists()) return Status::OK();
  return registered;
}

}  // namespace sqlink
