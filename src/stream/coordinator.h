#ifndef SQLINK_STREAM_COORDINATOR_H_
#define SQLINK_STREAM_COORDINATOR_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "stream/socket.h"
#include "stream/wire.h"

namespace sqlink {

/// Lifecycle of one split's consumption, driven by reader heartbeats and
/// the reaper:
///
///   kUnassigned --first heartbeat--> kAssigned --missed deadline-->
///   kSuspect --grace expired--> kReassignable --kAcquireSplit-->
///   kAssigned (epoch+1) ... --kCompleteSplit--> kCompleted
///
/// A kSuspect split returns to kAssigned if a beat arrives in time. Every
/// transition to kReassignable bumps the lease epoch, fencing the previous
/// owner, and spends one unit of the reassignment budget; an exhausted
/// budget aborts the query.
enum class SplitState {
  kUnassigned,
  kAssigned,
  kSuspect,
  kReassignable,
  kCompleted,
};

/// The long-standing coordinator service of §3 that bridges the big SQL and
/// big ML systems:
///
///  1. every SQL worker registers (worker id, endpoint, ML command, schema)
///     and learns k and the lease interval;
///  2. once all n have registered, the coordinator launches the ML job;
///  3. the ML job's SqlStreamInputFormat asks it for InputSplits — it
///     creates m = n·k splits, grouped k-per-SQL-worker, each carrying the
///     SQL worker's host as its locality hint;
///  4.–6. happen in that split fetch: each split already names its SQL
///     worker's endpoint, so ML workers need not register back to be
///     matched; 7./8. the data channels are then peer-to-peer.
///
/// For §6 it re-matches a reader that lost its connection (kReportFailure)
/// with the endpoint to re-dial, and — when heartbeats are enabled — tracks
/// participant liveness: readers and sinks renew leases on their control
/// connections, a reaper expires the leases of silent participants
/// (SplitState machine above), expired readers' splits are handed to
/// surviving readers via kAcquireSplit, and a dead sink or exhausted
/// reassignment budget aborts the whole query with a typed Status
/// broadcast through every heartbeat reply.
///
/// Every request is one frame answered by one frame. Participants send it
/// with CallCoordinator; each handler maps the request frame to its reply,
/// and HandleConnection alone reads and writes the control sockets.
class StreamCoordinator {
 public:
  /// Runs the job's ML side; invoked once, on a dedicated thread, when all
  /// SQL workers have registered (paper step 2).
  using MlLauncher = std::function<void(const std::string& command)>;

  struct Options {
    int port = 0;               ///< 0 = ephemeral.
    int splits_per_worker = 1;  ///< k in m = n·k.
    MlLauncher ml_launcher;
    /// How long participants may wait on registration barriers.
    int barrier_timeout_ms = 30000;
    /// Lease renewal interval, which the coordinator hands every sink (in
    /// the kRegisterSql ack) and the ML side (in kSplits). A participant
    /// whose last beat is older than the TTL, kLeaseIntervals intervals,
    /// turns kSuspect; after another TTL/2 of silence it is declared dead.
    /// 0 disables liveness tracking (no reaper thread).
    int heartbeat_ms = 0;
    /// How many times one split may be handed to a replacement reader
    /// before the coordinator gives up and aborts the query.
    int max_split_reassignments = 3;
  };

  /// Starts the accept loop on a background thread.
  static Result<std::unique_ptr<StreamCoordinator>> Start(Options options);

  /// §6 coordinator resilience (the paper suggests ZooKeeper): serializes
  /// the coordinator's durable state — registered SQL workers and the
  /// split table — so a replacement coordinator can take over matchmaking
  /// after a crash.
  std::string Checkpoint() const;

  /// Starts a coordinator restored from a checkpoint: the split table and
  /// registrations are re-established, so ML workers can immediately
  /// (re-)register and be matched without re-running the SQL side.
  static Result<std::unique_ptr<StreamCoordinator>> Resume(
      Options options, std::string_view checkpoint);

  ~StreamCoordinator();

  StreamCoordinator(const StreamCoordinator&) = delete;
  StreamCoordinator& operator=(const StreamCoordinator&) = delete;

  /// Stops the server and joins every handler. The ML launcher is joined
  /// first, while split fetches, re-matches and acquires still get an
  /// answer (a typed Cancelled). Idempotent.
  void Stop();

  /// Aborts the query: every subsequent heartbeat, split fetch, and acquire
  /// gets `status` as a typed error, so all participants drain and exit.
  void Abort(Status status);

  int port() const { return listener_.port(); }
  std::string host() const { return "localhost"; }

  /// Observability for tests.
  int registered_sql_workers() const;

 private:
  /// Per-split liveness bookkeeping (beside the static StreamSplitInfo).
  struct SplitRuntime {
    SplitState state = SplitState::kUnassigned;
    int64_t epoch = 1;
    int reassignments = 0;
    bool leased = false;
    std::chrono::steady_clock::time_point deadline;
    uint64_t applied_seq = 0;  ///< Reader progress (observability).
  };
  struct SinkLease {
    std::chrono::steady_clock::time_point deadline;
    bool suspect = false;
  };

  explicit StreamCoordinator(Options options) : options_(std::move(options)) {}

  /// Listens, then starts the accept loop and, with leases, the reaper.
  Status Serve();
  /// kLeaseIntervals renewal intervals.
  std::chrono::milliseconds LeaseTtl() const;
  void AcceptLoop();
  /// Serves one control connection: for each request it applies the
  /// request's drop failpoint, runs its handler and writes the reply, or
  /// kError with the typed status of a handler that failed.
  void HandleConnection(TcpSocket* socket);
  void ReaperLoop();

  // Request handlers: each returns its request's reply frame.
  Result<Frame> HandleRegisterSql(const Frame& request);
  Result<Frame> HandleGetSplits(const Frame& request);
  Result<Frame> HandleReportFailure(const Frame& request);
  Result<Frame> HandleHeartbeat(const Frame& request);
  Result<Frame> HandleAcquireSplit(const Frame& request);
  Result<Frame> HandleCompleteSplit(const Frame& request);
  Result<Frame> HandleSplitStatus(const Frame& request);
  Result<Frame> HandleAbortQuery(const Frame& request);

  /// Blocks until the split table exists (all SQL workers registered).
  Status WaitForSplits();

  /// OK while the coordinator serves the ML side; the abort status after
  /// Abort(), or Cancelled once Stop() began. Requires mu_.
  Status ServingStatusLocked() const;

  /// Declares split `i`'s current owner gone: bumps the epoch (fencing),
  /// spends reassignment budget, and either parks the split as
  /// kReassignable or aborts the query. Requires mu_.
  void ReleaseSplitLocked(size_t i, const std::string& reason);
  /// Requires mu_.
  void AbortLocked(Status status);

  Options options_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::thread launcher_thread_;
  std::thread reaper_thread_;

  mutable std::mutex mu_;
  std::condition_variable splits_ready_cv_;
  std::condition_variable reaper_cv_;
  bool stopped_ = false;
  int expected_sql_workers_ = 0;
  std::map<int, RegisterSqlMessage> sql_workers_;
  bool splits_ready_ = false;
  SplitsMessage splits_;
  std::vector<SplitRuntime> split_runtime_;  ///< Parallel to splits_.splits.
  std::map<int, SinkLease> sink_leases_;
  bool aborted_ = false;
  Status abort_status_;

  std::mutex handlers_mu_;
  /// Handler threads not yet joined, by id, each with its connection's
  /// socket (owned by the thread; Stop() shuts the live ones down). A
  /// thread adds its id to finished_ as it returns, and the accept loop
  /// joins those before it starts the next, so only live connections hold
  /// a thread stack.
  std::unordered_map<std::thread::id,
                     std::pair<std::thread, std::weak_ptr<TcpSocket>>>
      handlers_;
  std::vector<std::thread::id> finished_;
};

/// The participant side of the control plane: dials the coordinator at
/// host:port, sends one `request` frame carrying `payload` and reads one
/// reply. Returns the payload of a `reply` frame. A kError reply comes back
/// as its decoded typed status, any other frame as a transient
/// NetworkError.
Result<std::string> CallCoordinator(const std::string& host, int port,
                                    FrameType request,
                                    std::string_view payload, FrameType reply);

}  // namespace sqlink

#endif  // SQLINK_STREAM_COORDINATOR_H_
