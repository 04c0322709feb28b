#ifndef SQLINK_SERVING_QUERY_SERVER_H_
#define SQLINK_SERVING_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "serving/admission.h"
#include "sql/engine.h"
#include "stream/socket.h"
#include "table/schema.h"
#include "table/value.h"

namespace sqlink {

/// Client → server query submission (FrameType::kSubmitQuery payload).
struct SubmitQueryMessage {
  std::string tenant;    ///< "" = default tenant (weight 1).
  std::string sql;
  int64_t deadline_ms = 0;  ///< 0 = server default (SQLINK_QUERY_DEADLINE_MS).

  std::string Encode() const;
  static Result<SubmitQueryMessage> Decode(std::string_view payload);
};

/// Server → client result (FrameType::kQueryResult payload): the result
/// schema, the gathered rows, and server-side elapsed time.
struct QueryResultMessage {
  SchemaPtr schema;
  std::vector<Row> rows;
  int64_t elapsed_micros = 0;

  std::string Encode() const;
  static Result<QueryResultMessage> Decode(std::string_view payload);
};

/// The long-lived multi-query server: accepts one query per connection,
/// gates it through the AdmissionController, executes it on the shared
/// SqlEngine with per-query cancellation + spill budget, and streams the
/// result (or a typed error — kOverloaded for admission rejections,
/// kCancelled for disconnect/deadline) back to the client.
///
/// Cancellation sources, all funneled into one Cancellation object per
/// query: the client disconnecting mid-query, an explicit kCancelQuery
/// frame, the per-query deadline (request deadline_ms, falling back to
/// SQLINK_QUERY_DEADLINE_MS), the `serving.cancel_query` failpoint
/// (evaluated once, as the query starts) and Stop(). Every wait is one
/// blocking frame read on the connection's socket.
class QueryServer {
 public:
  struct Options {
    int port = 0;  ///< 0 = ephemeral; see port() after Start.
    AdmissionOptions admission = {};
    /// Default per-query deadline in ms when the request carries none;
    /// <= 0 = no deadline. StartFromEnv reads SQLINK_QUERY_DEADLINE_MS.
    int64_t default_deadline_ms = 0;
  };

  /// Binds, starts the accept loop, returns the running server.
  static Result<std::unique_ptr<QueryServer>> Start(SqlEngine* engine,
                                                    Options options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Stops accepting, cancels in-flight queries, joins all workers.
  void Stop();

  int port() const { return port_; }
  AdmissionController* admission() { return &admission_; }

 private:
  QueryServer(SqlEngine* engine, Options options, TcpListener listener);

  void AcceptLoop();
  void HandleConnection(std::shared_ptr<TcpSocket> socket);

  SqlEngine* engine_;
  Options options_;
  AdmissionController admission_;
  TcpListener listener_;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex workers_mu_;
  /// A connection thread and its socket, which Stop() shuts down to wake
  /// the thread.
  struct Worker {
    std::thread thread;
    std::weak_ptr<TcpSocket> socket;
  };
  /// Connection threads not yet joined, by id. Each thread adds its id to
  /// finished_ as it returns; the accept loop joins those before it starts
  /// the next connection, so only live connections hold a thread stack.
  std::unordered_map<std::thread::id, Worker> workers_;
  std::vector<std::thread::id> finished_;
};

/// Minimal client for the query server: one query per connection.
class QueryClient {
 public:
  struct Response {
    SchemaPtr schema;
    std::vector<Row> rows;
    int64_t elapsed_micros = 0;
  };

  static Result<QueryClient> Connect(const std::string& host, int port);

  /// Submits and waits for the result. Admission rejections surface as the
  /// server's typed status (IsOverloaded() for a saturated/timed-out queue).
  Result<Response> Execute(const std::string& sql,
                           const std::string& tenant = "",
                           int64_t deadline_ms = 0);

  /// Fire-and-forget submission half of Execute (tests drive cancellation
  /// between Submit and Await).
  Status Submit(const std::string& sql, const std::string& tenant = "",
                int64_t deadline_ms = 0);
  /// Requests cancellation of the in-flight query.
  Status Cancel();
  /// Waits for the final kQueryResult / kError frame of a Submit.
  Result<Response> Await();

  /// Dropping the connection mid-query is itself a cancellation signal.
  void Disconnect() { socket_.Close(); }

 private:
  explicit QueryClient(TcpSocket socket) : socket_(std::move(socket)) {}
  TcpSocket socket_;
};

}  // namespace sqlink

#endif  // SQLINK_SERVING_QUERY_SERVER_H_
