#include "stream/coordinator.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "stream/heartbeat.h"

namespace sqlink {

namespace {

/// A handler's reply: a frame of `type` carrying `payload`.
Frame Reply(FrameType type, std::string payload = {}) {
  Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  return frame;
}

const char* SplitStateName(SplitState state) {
  switch (state) {
    case SplitState::kUnassigned:
      return "unassigned";
    case SplitState::kAssigned:
      return "assigned";
    case SplitState::kSuspect:
      return "suspect";
    case SplitState::kReassignable:
      return "reassignable";
    case SplitState::kCompleted:
      return "completed";
  }
  return "?";
}

}  // namespace

Result<std::unique_ptr<StreamCoordinator>> StreamCoordinator::Start(
    Options options) {
  auto coordinator =
      std::unique_ptr<StreamCoordinator>(new StreamCoordinator(options));
  RETURN_IF_ERROR(coordinator->Serve());
  return coordinator;
}

Status StreamCoordinator::Serve() {
  ASSIGN_OR_RETURN(listener_, TcpListener::Listen(options_.port));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (options_.heartbeat_ms > 0) {
    reaper_thread_ = std::thread([this] { ReaperLoop(); });
  }
  return Status::OK();
}

std::string StreamCoordinator::Checkpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  PutVarint64Signed(&out, expected_sql_workers_);
  PutVarint64(&out, sql_workers_.size());
  for (const auto& [worker_id, registration] : sql_workers_) {
    PutLengthPrefixed(&out, registration.Encode());
  }
  out.push_back(splits_ready_ ? 1 : 0);
  if (splits_ready_) {
    PutLengthPrefixed(&out, splits_.Encode());
  }
  return out;
}

Result<std::unique_ptr<StreamCoordinator>> StreamCoordinator::Resume(
    Options options, std::string_view checkpoint) {
  auto coordinator =
      std::unique_ptr<StreamCoordinator>(new StreamCoordinator(options));
  {
    Decoder decoder(checkpoint);
    ASSIGN_OR_RETURN(int64_t expected, decoder.GetVarint64Signed());
    coordinator->expected_sql_workers_ = static_cast<int>(expected);
    ASSIGN_OR_RETURN(uint64_t workers, decoder.GetVarint64());
    for (uint64_t i = 0; i < workers; ++i) {
      ASSIGN_OR_RETURN(std::string_view encoded, decoder.GetLengthPrefixed());
      ASSIGN_OR_RETURN(RegisterSqlMessage registration,
                       RegisterSqlMessage::Decode(encoded));
      coordinator->sql_workers_[registration.worker_id] = registration;
    }
    ASSIGN_OR_RETURN(uint8_t ready, decoder.GetByte());
    if (ready != 0) {
      ASSIGN_OR_RETURN(std::string_view encoded, decoder.GetLengthPrefixed());
      ASSIGN_OR_RETURN(coordinator->splits_, SplitsMessage::Decode(encoded));
      // Readers beat at this coordinator's interval, not the checkpoint's.
      coordinator->splits_.heartbeat_ms = options.heartbeat_ms;
      coordinator->splits_ready_ = true;
      coordinator->split_runtime_.resize(coordinator->splits_.splits.size());
      for (size_t i = 0; i < coordinator->splits_.splits.size(); ++i) {
        coordinator->split_runtime_[i].epoch =
            coordinator->splits_.splits[i].epoch;
      }
    }
  }
  RETURN_IF_ERROR(coordinator->Serve());
  return coordinator;
}

StreamCoordinator::~StreamCoordinator() { Stop(); }

void StreamCoordinator::Stop() {
  std::thread launcher;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    launcher = std::move(launcher_thread_);
    splits_ready_cv_.notify_all();
    reaper_cv_.notify_all();
  }
  // The ML launcher goes first, while the listener still answers: its
  // split fetch, re-matches and acquires now get a typed Cancelled and end
  // at once. Behind a closed listener they would see a refused connection,
  // which is transient, and retry out their whole budget.
  if (launcher.joinable()) launcher.join();
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (reaper_thread_.joinable()) reaper_thread_.join();
  decltype(handlers_) handlers;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    handlers.swap(handlers_);
  }
  // Persistent heartbeat connections keep handlers parked in RecvFrame;
  // shutting the sockets down unblocks them so the joins finish.
  for (auto& [id, handler] : handlers) {
    if (auto socket = handler.second.lock()) socket->ShutdownBoth();
  }
  for (auto& [id, handler] : handlers) handler.first.join();
}

void StreamCoordinator::Abort(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  AbortLocked(std::move(status));
}

Status StreamCoordinator::ServingStatusLocked() const {
  if (aborted_) return abort_status_;
  if (stopped_) return Status::Cancelled("coordinator stopped");
  return Status::OK();
}

void StreamCoordinator::AbortLocked(Status status) {
  if (aborted_) return;
  aborted_ = true;
  abort_status_ = status.ok() ? Status::Aborted("query aborted") : status;
  LOG_ERROR() << "coordinator aborting query: " << abort_status_;
  MetricsRegistry::Global().GetCounter("coordinator.aborts")->Increment();
  // Wake barrier waiters so GetSplits/matchmaking surface the abort instead
  // of timing out.
  splits_ready_cv_.notify_all();
}

std::chrono::milliseconds StreamCoordinator::LeaseTtl() const {
  return std::chrono::milliseconds(int64_t{options_.heartbeat_ms} *
                                   HeartbeatSender::kLeaseIntervals);
}

int StreamCoordinator::registered_sql_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sql_workers_.size());
}

void StreamCoordinator::AcceptLoop() {
  for (;;) {
    auto socket = listener_.Accept();
    if (!socket.ok()) return;  // Closed.
    auto shared = std::make_shared<TcpSocket>(std::move(*socket));
    std::weak_ptr<TcpSocket> weak = shared;
    std::lock_guard<std::mutex> lock(handlers_mu_);
    for (const std::thread::id& id : finished_) {
      auto it = handlers_.find(id);
      it->second.first.join();
      handlers_.erase(it);
    }
    finished_.clear();
    // The thread cannot report itself finished before it is registered:
    // reporting takes handlers_mu_, held here until the emplace. The socket
    // closes when the thread ends.
    std::thread handler([this, shared = std::move(shared)] {
      HandleConnection(shared.get());
      std::lock_guard<std::mutex> finished_lock(handlers_mu_);
      finished_.push_back(std::this_thread::get_id());
    });
    const std::thread::id id = handler.get_id();
    handlers_.emplace(id, std::make_pair(std::move(handler), std::move(weak)));
  }
}

void StreamCoordinator::HandleConnection(TcpSocket* socket) {
  // Per request type: the handler span, the request counter, the failpoint
  // that drops the request unanswered (null: none of either), the handler.
  struct Route {
    FrameType type;
    const char* span;
    const char* counter;
    const char* drop_failpoint;
    Result<Frame> (StreamCoordinator::*handle)(const Frame& request);
  };
  static constexpr Route kRoutes[] = {
      {FrameType::kRegisterSql, "coordinator.register_sql",
       "coordinator.register_sql.count", "coordinator.register_sql",
       &StreamCoordinator::HandleRegisterSql},
      {FrameType::kGetSplits, "coordinator.get_splits",
       "coordinator.get_splits.count", "coordinator.get_splits",
       &StreamCoordinator::HandleGetSplits},
      {FrameType::kReportFailure, "coordinator.rematch",
       "coordinator.rematch.count", "coordinator.match",
       &StreamCoordinator::HandleReportFailure},
      {FrameType::kHeartbeat, "coordinator.heartbeat", nullptr, nullptr,
       &StreamCoordinator::HandleHeartbeat},
      {FrameType::kAcquireSplit, "coordinator.acquire_split", nullptr,
       nullptr, &StreamCoordinator::HandleAcquireSplit},
      {FrameType::kCompleteSplit, "coordinator.complete_split", nullptr,
       nullptr, &StreamCoordinator::HandleCompleteSplit},
      {FrameType::kSplitStatus, "coordinator.split_status",
       "coordinator.split_status.count", nullptr,
       &StreamCoordinator::HandleSplitStatus},
      {FrameType::kAbortQuery, "coordinator.abort_query", nullptr, nullptr,
       &StreamCoordinator::HandleAbortQuery},
  };
  // Any other frame is no request; it is answered with kError.
  static constexpr Route kNoRequest = {FrameType::kError, "coordinator.unknown",
                                       nullptr, nullptr, nullptr};
  // A connection carries a sequence of requests: one-shot callers
  // (CallCoordinator) send a single frame and close; heartbeat senders keep
  // theirs open for the whole transfer.
  //
  // The gauge counts connections that carried at least one heartbeat: with
  // the shared heartbeat bus it stays at one per peer process no matter how
  // many leases beat over it.
  Gauge* const heartbeat_conns =
      MetricsRegistry::Global().GetGauge("coordinator.heartbeat_conns");
  bool counted_heartbeat_conn = false;
  for (;;) {
    Result<Frame> request = RecvFrame(socket, kMaxRequestFrameBytes);
    if (!request.ok()) {
      // An oversized request is answered before any of its payload is read;
      // the connection is then mid-frame, so it ends either way. Any other
      // failure is a peer that closed, or Stop shutting us down.
      if (request.status().IsInvalidArgument()) {
        (void)SendFrame(socket, FrameType::kError,
                        EncodeStatus(request.status()));
      }
      break;
    }
    const Route* route = &kNoRequest;
    for (const Route& candidate : kRoutes) {
      if (candidate.type == request->type) route = &candidate;
    }
    // The handler span continues the trace carried in the frame header: its
    // parent is the remote caller's span, so one query's trace crosses the
    // control plane.
    TraceSpan span(route->span, request->trace);
    if (route->counter != nullptr) {
      MetricsRegistry::Global().GetCounter(route->counter)->Increment();
    }
    if (route->drop_failpoint != nullptr &&
        SQLINK_FAILPOINT(route->drop_failpoint) != FailpointOutcome::kNone) {
      // Close the connection with the request unanswered, as a coordinator
      // that crashed after reading it would. The participant sees a dead
      // connection and retries; every request that can be dropped is
      // idempotent (registration is a map overwrite).
      break;
    }
    if (request->type == FrameType::kHeartbeat && !counted_heartbeat_conn) {
      counted_heartbeat_conn = true;
      heartbeat_conns->Increment();
    }
    Stopwatch timer;
    Result<Frame> reply =
        route->handle != nullptr ? (this->*route->handle)(*request)
                                 : Result<Frame>(Status::InvalidArgument(
                                       "unexpected control frame"));
    MetricsRegistry::Global()
        .GetHistogram("coordinator.handler_micros")
        ->Record(timer.ElapsedMicros());
    if (!reply.ok()) {
      span.SetError();
      LOG_WARNING() << "coordinator handler: " << reply.status();
      reply = Reply(FrameType::kError, EncodeStatus(reply.status()));
    }
    if (!SendFrame(socket, reply->type, reply->payload).ok()) break;
  }
  if (counted_heartbeat_conn) heartbeat_conns->Decrement();
}

void StreamCoordinator::ReaperLoop() {
  const auto ttl = LeaseTtl();
  const auto grace = ttl / 2;
  const auto tick =
      std::max(ttl / 4, std::chrono::milliseconds::zero()) +
      std::chrono::milliseconds(1);
  Counter* const missed =
      MetricsRegistry::Global().GetCounter("transfer.heartbeat_missed");
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopped_) {
    reaper_cv_.wait_for(lock, tick, [this] { return stopped_; });
    if (stopped_) return;
    const auto now = std::chrono::steady_clock::now();
    // Reader leases drive the split state machine.
    for (size_t i = 0; i < split_runtime_.size(); ++i) {
      SplitRuntime& rt = split_runtime_[i];
      if (!rt.leased || now <= rt.deadline) continue;
      if (rt.state == SplitState::kAssigned) {
        rt.state = SplitState::kSuspect;
        rt.deadline = now + grace;
        missed->Increment();
        LOG_WARNING() << "split " << i << " reader missed its heartbeat "
                      << "deadline; suspect (epoch " << rt.epoch << ")";
      } else if (rt.state == SplitState::kSuspect) {
        ReleaseSplitLocked(i, "heartbeat timeout");
      }
    }
    // A sink holds the only copy of its partition's stream — losing one is
    // unrecoverable, so the query aborts.
    for (auto it = sink_leases_.begin(); it != sink_leases_.end();) {
      SinkLease& lease = it->second;
      if (now <= lease.deadline) {
        ++it;
        continue;
      }
      if (!lease.suspect) {
        lease.suspect = true;
        lease.deadline = now + grace;
        missed->Increment();
        LOG_WARNING() << "sql worker " << it->first
                      << " missed its heartbeat deadline; suspect";
        ++it;
        continue;
      }
      AbortLocked(Status::Aborted("sql worker " + std::to_string(it->first) +
                                  " lost (heartbeat timeout)"));
      it = sink_leases_.erase(it);
    }
  }
}

void StreamCoordinator::ReleaseSplitLocked(size_t i, const std::string& reason) {
  SplitRuntime& rt = split_runtime_[i];
  rt.leased = false;
  ++rt.epoch;  // Fence the previous owner immediately.
  ++rt.reassignments;
  if (rt.reassignments > options_.max_split_reassignments) {
    AbortLocked(Status::Aborted(
        "split " + std::to_string(i) + " exhausted its reassignment budget (" +
        std::to_string(options_.max_split_reassignments) + "): " + reason));
    return;
  }
  rt.state = SplitState::kReassignable;
  LOG_WARNING() << "split " << i << " released (" << reason
                << "); reassignable at epoch " << rt.epoch << " (budget "
                << rt.reassignments << "/"
                << options_.max_split_reassignments << ")";
}

Result<Frame> StreamCoordinator::HandleRegisterSql(const Frame& request) {
  ASSIGN_OR_RETURN(RegisterSqlMessage msg,
                   RegisterSqlMessage::Decode(request.payload));
  // Worker ids 0..n-1 number the splits: sender j of worker w serves
  // split w·k + j.
  if (msg.num_workers < 1 || msg.worker_id < 0 ||
      msg.worker_id >= msg.num_workers) {
    return Status::InvalidArgument(
        "SQL worker id " + std::to_string(msg.worker_id) + " outside [0, " +
        std::to_string(msg.num_workers) + ")");
  }
  const int k = std::max(1, options_.splits_per_worker);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::Cancelled("coordinator stopped");
    if (expected_sql_workers_ == 0) {
      expected_sql_workers_ = msg.num_workers;
    } else if (expected_sql_workers_ != msg.num_workers) {
      return Status::InvalidArgument("inconsistent SQL worker count");
    }
    sql_workers_[msg.worker_id] = msg;
    if (splits_ready_) {
      // Re-registration after the split table was built: a restarted worker
      // comes back on a fresh endpoint and mux routing key, and re-matches
      // (kReportFailure) must hand readers the current ones.
      for (StreamSplitInfo& split : splits_.splits) {
        if (split.sql_worker == msg.worker_id) {
          split.host = msg.host;
          split.port = msg.port;
          split.sink_key = msg.sink_key;
        }
      }
    }
    if (static_cast<int>(sql_workers_.size()) == expected_sql_workers_ &&
        !splits_ready_) {
      // All registered (step 1 complete): build the split table — m = n·k
      // splits in n groups, each split located at its SQL worker's host —
      // and launch the ML job (step 2).
      splits_.schema = msg.schema;
      splits_.heartbeat_ms = options_.heartbeat_ms;
      for (const auto& [worker_id, worker] : sql_workers_) {
        for (int j = 0; j < k; ++j) {
          splits_.splits.push_back(StreamSplitInfo{
              worker_id * k + j, worker_id, worker.host, worker.port,
              /*epoch=*/1, worker.sink_key});
        }
      }
      split_runtime_.assign(splits_.splits.size(), SplitRuntime{});
      splits_ready_ = true;
      splits_ready_cv_.notify_all();
      // Started under mu_ so Stop() either finds the thread to join or
      // keeps it from starting.
      if (options_.ml_launcher) {
        launcher_thread_ = std::thread(
            [this, command = msg.command] { options_.ml_launcher(command); });
      }
    }
  }
  // The ack tells the SQL worker how many ML connections to expect and how
  // often to renew its lease.
  return Reply(FrameType::kAck,
               RegisterAckMessage{k, options_.heartbeat_ms}.Encode());
}

Status StreamCoordinator::WaitForSplits() {
  static Histogram* const barrier_wait =
      MetricsRegistry::Global().GetHistogram("coordinator.barrier_wait_micros");
  Stopwatch timer;
  std::unique_lock<std::mutex> lock(mu_);
  const bool ready = splits_ready_cv_.wait_for(
      lock, std::chrono::milliseconds(options_.barrier_timeout_ms),
      [this] { return splits_ready_ || stopped_ || aborted_; });
  barrier_wait->Record(timer.ElapsedMicros());
  RETURN_IF_ERROR(ServingStatusLocked());
  if (!ready) return Status::Unavailable("timed out waiting for SQL workers");
  return Status::OK();
}

Result<Frame> StreamCoordinator::HandleGetSplits(const Frame&) {
  RETURN_IF_ERROR(WaitForSplits());
  std::lock_guard<std::mutex> lock(mu_);
  RETURN_IF_ERROR(ServingStatusLocked());
  return Reply(FrameType::kSplits, splits_.Encode());
}

Result<Frame> StreamCoordinator::HandleReportFailure(const Frame& request) {
  ASSIGN_OR_RETURN(ReportFailureMessage msg,
                   ReportFailureMessage::Decode(request.payload));
  RETURN_IF_ERROR(WaitForSplits());
  std::lock_guard<std::mutex> lock(mu_);
  RETURN_IF_ERROR(ServingStatusLocked());
  if (msg.split_id < 0 ||
      static_cast<size_t>(msg.split_id) >= splits_.splits.size()) {
    return Status::InvalidArgument("unknown split id " +
                                   std::to_string(msg.split_id));
  }
  // §6 re-match: the current endpoint of the split's SQL worker, which a
  // restarted worker has re-registered.
  const StreamSplitInfo& split =
      splits_.splits[static_cast<size_t>(msg.split_id)];
  return Reply(FrameType::kMatch,
               MatchMessage{split.host, split.port, split.sink_key}.Encode());
}

Result<Frame> StreamCoordinator::HandleHeartbeat(const Frame& request) {
  ASSIGN_OR_RETURN(HeartbeatMessage msg,
                   HeartbeatMessage::Decode(request.payload));
  const auto ttl = LeaseTtl();
  std::lock_guard<std::mutex> lock(mu_);
  if (aborted_) return abort_status_;
  const auto now = std::chrono::steady_clock::now();
  if (msg.role == HeartbeatMessage::kSink) {
    if (msg.bye != HeartbeatMessage::kAlive) {
      sink_leases_.erase(msg.id);
    } else {
      sink_leases_[msg.id] = SinkLease{now + ttl, /*suspect=*/false};
    }
    return Reply(FrameType::kAck);
  }
  // Reader lease for one split.
  if (!splits_ready_ || msg.id < 0 ||
      static_cast<size_t>(msg.id) >= split_runtime_.size()) {
    return Status::InvalidArgument("heartbeat for unknown split " +
                                   std::to_string(msg.id));
  }
  SplitRuntime& rt = split_runtime_[static_cast<size_t>(msg.id)];
  if (rt.state == SplitState::kCompleted) {
    return Reply(FrameType::kAck);
  }
  if (msg.epoch < rt.epoch) {
    // A fenced ("zombie") owner: its lease lapsed and the split moved on.
    return Status::Cancelled("lease revoked: split " + std::to_string(msg.id) +
                             " now at epoch " + std::to_string(rt.epoch) +
                             " (" + SplitStateName(rt.state) + ")");
  }
  if (msg.bye == HeartbeatMessage::kFailed) {
    ReleaseSplitLocked(static_cast<size_t>(msg.id), "reader reported failure");
    if (aborted_) return abort_status_;
    return Reply(FrameType::kAck);
  }
  if (msg.bye == HeartbeatMessage::kCompleted) {
    rt.leased = false;  // kCompleteSplit marks the state; just drop the lease.
    return Reply(FrameType::kAck);
  }
  rt.state = SplitState::kAssigned;  // Also recovers a kSuspect lease.
  rt.leased = true;
  rt.deadline = now + ttl;
  rt.applied_seq = msg.applied_seq;
  return Reply(FrameType::kAck);
}

Result<Frame> StreamCoordinator::HandleAcquireSplit(const Frame& request) {
  RETURN_IF_ERROR(WaitForSplits());
  SplitGrantMessage grant;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RETURN_IF_ERROR(ServingStatusLocked());
    for (size_t i = 0; i < split_runtime_.size(); ++i) {
      SplitRuntime& rt = split_runtime_[i];
      if (rt.state != SplitState::kReassignable) continue;
      // Hand the split to the caller with a generous first deadline: the
      // replacement still has to dial the SQL worker before its first beat.
      rt.state = SplitState::kAssigned;
      rt.leased = true;
      rt.deadline = std::chrono::steady_clock::now() + 2 * LeaseTtl();
      grant.granted = true;
      grant.split = splits_.splits[i];
      grant.split.epoch = rt.epoch;
      TraceSpan span("recover_split", request.trace);
      span.AddAttribute("split", static_cast<int64_t>(i));
      span.AddAttribute("epoch", rt.epoch);
      MetricsRegistry::Global()
          .GetCounter("transfer.splits_reassigned")
          ->Increment();
      LOG_INFO() << "split " << i << " reassigned at epoch " << rt.epoch;
      break;
    }
  }
  return Reply(FrameType::kSplitGrant, grant.Encode());
}

Result<Frame> StreamCoordinator::HandleCompleteSplit(const Frame& request) {
  ASSIGN_OR_RETURN(CompleteSplitMessage msg,
                   CompleteSplitMessage::Decode(request.payload));
  std::lock_guard<std::mutex> lock(mu_);
  if (!splits_ready_ || msg.split_id < 0 ||
      static_cast<size_t>(msg.split_id) >= split_runtime_.size()) {
    return Status::InvalidArgument("completion for unknown split " +
                                   std::to_string(msg.split_id));
  }
  SplitRuntime& rt = split_runtime_[static_cast<size_t>(msg.split_id)];
  if (msg.epoch < rt.epoch && rt.state != SplitState::kCompleted) {
    // A fenced owner finished the whole stream before noticing revocation.
    // Its rows were all applied (recovery is sequential: no replacement ran
    // concurrently), so the completion is accepted — rejecting it would
    // strand a Reassignable split whose producer has already torn down.
    LOG_WARNING() << "accepting completion of split " << msg.split_id
                  << " from fenced epoch " << msg.epoch << " (current "
                  << rt.epoch << ")";
  }
  rt.state = SplitState::kCompleted;
  rt.leased = false;
  rt.applied_seq = std::max(rt.applied_seq, msg.rows);
  return Reply(FrameType::kAck);
}

Result<Frame> StreamCoordinator::HandleSplitStatus(const Frame& request) {
  Decoder decoder(request.payload);
  ASSIGN_OR_RETURN(uint64_t split_id, decoder.GetVarint64());
  std::lock_guard<std::mutex> lock(mu_);
  const bool completed = splits_ready_ && split_id < split_runtime_.size() &&
                         split_runtime_[static_cast<size_t>(split_id)].state ==
                             SplitState::kCompleted;
  // A sink waiting for its reader to reconnect ends the wait with the
  // abort: no reader is coming.
  if (!completed) RETURN_IF_ERROR(ServingStatusLocked());
  std::string payload;
  PutVarint64(&payload, completed ? 1 : 0);
  return Reply(FrameType::kAck, std::move(payload));
}

Result<Frame> StreamCoordinator::HandleAbortQuery(const Frame& request) {
  std::lock_guard<std::mutex> lock(mu_);
  AbortLocked(DecodeStatusPayload(request.payload));
  return Reply(FrameType::kAck);
}

Result<std::string> CallCoordinator(const std::string& host, int port,
                                    FrameType request,
                                    std::string_view payload,
                                    FrameType reply) {
  ASSIGN_OR_RETURN(TcpSocket socket, TcpConnect(host, port));
  RETURN_IF_ERROR(SendFrame(&socket, request, payload));
  ASSIGN_OR_RETURN(Frame answer, RecvFrame(&socket));
  if (answer.type == FrameType::kError) {
    return DecodeStatusPayload(answer.payload);
  }
  if (answer.type != reply) {
    return Status::NetworkError(
        "coordinator answered frame type " +
        std::to_string(static_cast<int>(answer.type)) + ", expected " +
        std::to_string(static_cast<int>(reply)));
  }
  return std::move(answer.payload);
}

}  // namespace sqlink
