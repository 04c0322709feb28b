#include "serving/query_server.h"

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

/// Longest a connection waits for its submit frame.
constexpr std::chrono::seconds kSubmitTimeout{30};

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
  decltype(workers_) workers;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers.swap(workers_);
  }
  // A connection waiting for its submit frame and a running query's
  // watcher both block in a receive on their socket. Shutting the read side
  // down wakes them: the first returns, the second cancels its query, whose
  // reply still goes out on the write side.
  for (auto& [id, worker] : workers) {
    if (auto socket = worker.socket.lock()) socket->ShutdownRead();
  }
  for (auto& [id, worker] : workers) worker.thread.join();
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<TcpSocket> socket = listener_.Accept();
    if (!socket.ok()) return;  // Listener closed: shutting down.
    auto shared = std::make_shared<TcpSocket>(std::move(*socket));
    std::weak_ptr<TcpSocket> weak = shared;
    std::lock_guard<std::mutex> lock(workers_mu_);
    if (stopping_.load(std::memory_order_acquire)) return;
    for (const std::thread::id& id : finished_) {
      auto it = workers_.find(id);
      it->second.thread.join();
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
    workers_.emplace(id, Worker{std::move(worker), std::move(weak)});
  }
}

void QueryServer::HandleConnection(std::shared_ptr<TcpSocket> socket) {
  // One query per connection: the submit frame, then a single result or
  // error frame back. kOverloaded travels the wire typed, so clients can
  // distinguish "back off" from "your query is broken".
  auto reply_error = [&](const Status& status) {
    (void)SendFrame(socket.get(), FrameType::kError, EncodeStatus(status));
  };

  socket->SetRecvDeadline(std::chrono::steady_clock::now() + kSubmitTimeout);
  Result<Frame> frame = RecvFrame(socket.get(), kMaxRequestFrameBytes);
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
  // watcher blocks in one frame read, which ends only on the client's
  // bytes, the query's deadline (the socket's receive deadline) or a
  // shutdown of the socket's read side: below when the query ends, or in
  // Stop().
  Cancellation cancellation;
  const int64_t deadline_ms = submit->deadline_ms > 0
                                  ? submit->deadline_ms
                                  : options_.default_deadline_ms;
  socket->SetRecvDeadline(
      deadline_ms > 0 ? std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(deadline_ms)
                      : std::chrono::steady_clock::time_point::max());
  std::atomic<bool> query_done{false};
  std::thread watcher([&] {
    if (SQLINK_FAILPOINT("serving.cancel_query") != FailpointOutcome::kNone) {
      cancellation.Cancel(
          Status::Cancelled("failpoint: injected query cancellation"));
      return;
    }
    Result<Frame> inbound = RecvFrame(socket.get(), kMaxRequestFrameBytes);
    while (inbound.ok() && inbound->type != FrameType::kCancelQuery) {
      inbound = RecvFrame(socket.get(), kMaxRequestFrameBytes);
    }
    if (query_done.load(std::memory_order_acquire)) return;
    const Status& status = inbound.status();
    if (status.ok()) {
      cancellation.Cancel(Status::Cancelled("cancelled by client"));
    } else if (stopping_.load(std::memory_order_acquire)) {
      cancellation.Cancel(Status::Cancelled("server shutting down"));
    } else if (status.IsUnavailable()) {
      cancellation.Cancel(Status::Cancelled(
          "query deadline exceeded (" + std::to_string(deadline_ms) + " ms)"));
    } else if (status.IsNetworkError()) {
      cancellation.Cancel(Status::Cancelled("client disconnected"));
    } else {
      // An oversized header (InvalidArgument) or an undecodable one.
      cancellation.Cancel(status);
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

  query_done.store(true, std::memory_order_release);
  socket->ShutdownRead();
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
