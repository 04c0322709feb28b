#include "serving/query_server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

#include "common/cancellation.h"
#include "common/coding.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "stream/wire.h"
#include "table/row_codec.h"

namespace sqlink {

namespace {

/// Longest a submit wait or a query's watcher blocks in poll(2) before it
/// rechecks the stop flag, its deadline and the cancel failpoint.
constexpr int kWatchPollMs = 10;

/// Blocks until one of `fds` is readable (or hung up) or kWatchPollMs pass.
/// Negative fds are ignored.
void WaitReadable(::pollfd* fds, nfds_t count) {
  for (nfds_t i = 0; i < count; ++i) fds[i].events = POLLIN;
  (void)::poll(fds, count, kWatchPollMs);
}

/// An eventfd that wakes a query's watcher out of WaitReadable when the
/// query ends. fd() is -1 when the kernel refused one; the watcher then
/// wakes on its poll timeout alone.
class WakeEvent {
 public:
  WakeEvent() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}
  ~WakeEvent() {
    if (fd_ >= 0) ::close(fd_);
  }
  WakeEvent(const WakeEvent&) = delete;
  WakeEvent& operator=(const WakeEvent&) = delete;

  int fd() const { return fd_; }
  void Signal() const {
    const uint64_t one = 1;
    if (fd_ >= 0 && ::write(fd_, &one, sizeof(one)) < 0) {
      // The watcher still wakes on its next poll timeout.
    }
  }

 private:
  const int fd_;
};

/// Largest request frame payload the server buffers. The longest SQL in the
/// tree is under 1 KB; a header announcing more is refused as soon as it is
/// in, instead of buffering what the peer sends until the announced length
/// (up to 4 GiB) arrives.
constexpr uint32_t kMaxRequestFrameBytes = 1 << 20;

/// InvalidArgument once the header of the frame starting at `cursor` in
/// `buffer` is in and announces more than kMaxRequestFrameBytes.
Status CheckRequestFrameLength(std::string_view buffer, size_t cursor) {
  if (buffer.size() - cursor < kFrameHeaderBytes) return Status::OK();
  Decoder decoder(buffer.substr(cursor));
  ASSIGN_OR_RETURN(uint32_t length, decoder.GetFixed32());
  if (length <= kMaxRequestFrameBytes) return Status::OK();
  return Status::InvalidArgument(
      "request frame of " + std::to_string(length) + " bytes exceeds " +
      std::to_string(kMaxRequestFrameBytes) + " bytes");
}

/// Receives one frame, waiting in poll(2) for bytes at most kWatchPollMs at
/// a time, so the wait can be interrupted by server shutdown (RecvFrame
/// would block in recv(2) with no way to wake it short of killing the
/// socket). `timeout_ms <= 0` = wait forever.
Result<Frame> RecvFramePolling(TcpSocket* socket,
                               const std::atomic<bool>& stop,
                               int64_t timeout_ms) {
  std::string buffer;
  Frame frame;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    size_t cursor = 0;
    ASSIGN_OR_RETURN(bool complete, ExtractFrame(buffer, &cursor, &frame));
    if (complete) return frame;
    RETURN_IF_ERROR(CheckRequestFrameLength(buffer, cursor));
    if (stop.load(std::memory_order_acquire)) {
      return Status::Cancelled("server shutting down");
    }
    if (timeout_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
      return Status::Unavailable("timed out waiting for request frame");
    }
    bool eof = false;
    ASSIGN_OR_RETURN(size_t n, socket->TryRecv(64 * 1024, &buffer, &eof));
    if (n == 0) {
      if (eof) return Status::NetworkError("connection closed");
      ::pollfd pfd{socket->fd(), 0, 0};
      WaitReadable(&pfd, 1);
    }
  }
}

}  // namespace

std::string SubmitQueryMessage::Encode() const {
  std::string out;
  PutLengthPrefixed(&out, tenant);
  PutLengthPrefixed(&out, sql);
  PutVarint64Signed(&out, deadline_ms);
  return out;
}

Result<SubmitQueryMessage> SubmitQueryMessage::Decode(
    std::string_view payload) {
  Decoder decoder(payload);
  SubmitQueryMessage message;
  ASSIGN_OR_RETURN(std::string_view tenant, decoder.GetLengthPrefixed());
  message.tenant = std::string(tenant);
  ASSIGN_OR_RETURN(std::string_view sql, decoder.GetLengthPrefixed());
  message.sql = std::string(sql);
  ASSIGN_OR_RETURN(message.deadline_ms, decoder.GetVarint64Signed());
  return message;
}

std::string QueryResultMessage::Encode() const {
  std::string out;
  EncodeSchema(*schema, &out);
  RowCodec::EncodeRows(rows, &out);
  PutVarint64Signed(&out, elapsed_micros);
  return out;
}

Result<QueryResultMessage> QueryResultMessage::Decode(
    std::string_view payload) {
  Decoder decoder(payload);
  QueryResultMessage message;
  ASSIGN_OR_RETURN(message.schema, DecodeSchema(&decoder));
  RETURN_IF_ERROR(RowCodec::DecodeRows(&decoder, &message.rows));
  ASSIGN_OR_RETURN(message.elapsed_micros, decoder.GetVarint64Signed());
  return message;
}

QueryServer::QueryServer(SqlEngine* engine, Options options,
                         TcpListener listener)
    : engine_(engine),
      options_(std::move(options)),
      admission_(options_.admission),
      listener_(std::move(listener)),
      port_(listener_.port()) {}

Result<std::unique_ptr<QueryServer>> QueryServer::Start(SqlEngine* engine,
                                                        Options options) {
  if (options.default_deadline_ms == 0) {
    options.default_deadline_ms = EnvInt64("SQLINK_QUERY_DEADLINE_MS", 0);
  }
  ASSIGN_OR_RETURN(TcpListener listener, TcpListener::Listen(options.port));
  std::unique_ptr<QueryServer> server(
      new QueryServer(engine, std::move(options), std::move(listener)));
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  return server;
}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::Stop() {
  if (stopping_.exchange(true)) return;
  listener_.Close();
  admission_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::unordered_map<std::thread::id, std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers.swap(workers_);
  }
  for (auto& [id, worker] : workers) worker.join();
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<TcpSocket> socket = listener_.Accept();
    if (!socket.ok()) return;  // Listener closed: shutting down.
    auto shared = std::make_shared<TcpSocket>(std::move(*socket));
    std::lock_guard<std::mutex> lock(workers_mu_);
    if (stopping_.load(std::memory_order_acquire)) return;
    for (const std::thread::id& id : finished_) {
      auto it = workers_.find(id);
      it->second.join();
      workers_.erase(it);
    }
    finished_.clear();
    // The thread cannot report itself finished before it is registered:
    // reporting takes workers_mu_, held here until the emplace.
    std::thread worker([this, shared = std::move(shared)] {
      HandleConnection(shared);
      std::lock_guard<std::mutex> finished_lock(workers_mu_);
      finished_.push_back(std::this_thread::get_id());
    });
    const std::thread::id id = worker.get_id();
    workers_.emplace(id, std::move(worker));
  }
}

void QueryServer::HandleConnection(std::shared_ptr<TcpSocket> socket) {
  // One query per connection: the submit frame, then a single result or
  // error frame back. kOverloaded travels the wire typed, so clients can
  // distinguish "back off" from "your query is broken".
  auto reply_error = [&](const Status& status) {
    (void)SendFrame(socket.get(), FrameType::kError, EncodeStatus(status));
  };

  Result<Frame> frame =
      RecvFramePolling(socket.get(), stopping_, /*timeout_ms=*/30000);
  if (!frame.ok()) {
    // An oversized request is answered; a peer that never sent one is not.
    if (frame.status().IsInvalidArgument()) reply_error(frame.status());
    return;
  }
  if (frame->type != FrameType::kSubmitQuery) {
    reply_error(Status::InvalidArgument("expected kSubmitQuery frame"));
    return;
  }
  Result<SubmitQueryMessage> submit =
      SubmitQueryMessage::Decode(frame->payload);
  if (!submit.ok()) {
    reply_error(submit.status().WithContext("malformed submit frame"));
    return;
  }

  Result<AdmissionTicketPtr> ticket = admission_.Admit(submit->tenant);
  if (!ticket.ok()) {
    reply_error(ticket.status());
    return;
  }

  // All cancellation sources funnel here: client disconnect, kCancelQuery,
  // deadline, the serving.cancel_query failpoint, and server shutdown. The
  // watcher blocks in poll(2) on the socket and on `query_done`, which is
  // signalled when the query ends, so the join below waits out no sleep.
  Cancellation cancellation;
  const int64_t deadline_ms = submit->deadline_ms > 0
                                  ? submit->deadline_ms
                                  : options_.default_deadline_ms;
  std::atomic<bool> watcher_stop{false};
  const WakeEvent query_done;
  std::thread watcher([&] {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    std::string buffer;
    Frame inbound;
    while (!watcher_stop.load(std::memory_order_acquire)) {
      if (SQLINK_FAILPOINT("serving.cancel_query") != FailpointOutcome::kNone) {
        cancellation.Cancel(
            Status::Cancelled("failpoint: injected query cancellation"));
        return;
      }
      if (stopping_.load(std::memory_order_acquire)) {
        cancellation.Cancel(Status::Cancelled("server shutting down"));
        return;
      }
      if (deadline_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
        cancellation.Cancel(Status::Cancelled(
            "query deadline exceeded (" + std::to_string(deadline_ms) +
            " ms)"));
        return;
      }
      bool eof = false;
      Result<size_t> n = socket->TryRecv(4096, &buffer, &eof);
      if (!n.ok() || eof) {
        cancellation.Cancel(Status::Cancelled("client disconnected"));
        return;
      }
      size_t cursor = 0;
      for (;;) {
        Result<bool> complete = ExtractFrame(buffer, &cursor, &inbound);
        if (!complete.ok() || !*complete) break;
        if (inbound.type == FrameType::kCancelQuery) {
          cancellation.Cancel(Status::Cancelled("cancelled by client"));
          return;
        }
      }
      if (Status bounded = CheckRequestFrameLength(buffer, cursor);
          !bounded.ok()) {
        cancellation.Cancel(std::move(bounded));
        return;
      }
      buffer.erase(0, cursor);
      ::pollfd fds[2] = {{socket->fd(), 0, 0}, {query_done.fd(), 0, 0}};
      WaitReadable(fds, 2);
    }
  });

  QueryOptions query_options;
  query_options.cancellation = &cancellation;
  query_options.spill_budget = (*ticket)->spill_budget();
  query_options.tenant = submit->tenant;
  Stopwatch timer;
  Result<TablePtr> result =
      engine_->ExecuteSql(submit->sql, "result", query_options);
  const int64_t elapsed_micros = timer.ElapsedMicros();

  watcher_stop.store(true, std::memory_order_release);
  query_done.Signal();
  watcher.join();
  // Release the admission slot before the (possibly slow) result send: the
  // engine is done with the memory, so a queued query can start now.
  ticket->reset();

  if (!result.ok()) {
    // A cancelled query may surface a downstream symptom (queue cancelled,
    // coordinator abort); report the root cancellation status instead.
    reply_error(cancellation.cancelled() ? cancellation.status()
                                         : result.status());
    return;
  }
  QueryResultMessage response;
  response.schema = (*result)->schema();
  response.rows = (*result)->GatherRows();
  response.elapsed_micros = elapsed_micros;
  (void)SendFrame(socket.get(), FrameType::kQueryResult, response.Encode());
}

Result<QueryClient> QueryClient::Connect(const std::string& host, int port) {
  ASSIGN_OR_RETURN(TcpSocket socket, TcpConnect(host, port));
  return QueryClient(std::move(socket));
}

Status QueryClient::Submit(const std::string& sql, const std::string& tenant,
                           int64_t deadline_ms) {
  SubmitQueryMessage message;
  message.tenant = tenant;
  message.sql = sql;
  message.deadline_ms = deadline_ms;
  return SendFrame(&socket_, FrameType::kSubmitQuery, message.Encode());
}

Status QueryClient::Cancel() {
  return SendFrame(&socket_, FrameType::kCancelQuery, std::string());
}

Result<QueryClient::Response> QueryClient::Await() {
  ASSIGN_OR_RETURN(Frame frame, RecvFrame(&socket_));
  if (frame.type == FrameType::kError) {
    return DecodeStatusPayload(frame.payload);
  }
  if (frame.type != FrameType::kQueryResult) {
    return Status::NetworkError("unexpected frame type from query server");
  }
  ASSIGN_OR_RETURN(QueryResultMessage message,
                   QueryResultMessage::Decode(frame.payload));
  Response response;
  response.schema = std::move(message.schema);
  response.rows = std::move(message.rows);
  response.elapsed_micros = message.elapsed_micros;
  return response;
}

Result<QueryClient::Response> QueryClient::Execute(const std::string& sql,
                                                   const std::string& tenant,
                                                   int64_t deadline_ms) {
  RETURN_IF_ERROR(Submit(sql, tenant, deadline_ms));
  return Await();
}

}  // namespace sqlink
