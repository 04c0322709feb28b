#ifndef SQLINK_STREAM_WIRE_H_
#define SQLINK_STREAM_WIRE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "common/trace.h"
#include "stream/socket.h"
#include "table/schema.h"

namespace sqlink {

/// Frame types of the streaming-transfer protocol. Control frames run
/// between participants and the coordinator; data frames flow on the
/// SQL-worker → ML-worker sockets.
enum class FrameType : uint8_t {
  // Data plane.
  kData = 2,   ///< A row-batch payload (table/row_codec.h).
  kEnd = 3,    ///< Sender finished; payload = total row count (varint).
  kError = 4,  ///< Sender failed; payload = message.

  // Control plane (coordinator).
  kRegisterSql = 10,
  kGetSplits = 11,
  kSplits = 12,
  kMatch = 14,
  kReportFailure = 15,
  kAck = 16,

  // Recovery plane (liveness + at-least-once replay).
  kHeartbeat = 18,      ///< Lease renewal from a sink or reader.
  kAcquireSplit = 19,   ///< Runner asks for a Reassignable split.
  kSplitGrant = 20,     ///< Reply: a reassigned split (or none pending).
  kCompleteSplit = 21,  ///< Reader confirms a split fully applied.
  kDataAck = 22,        ///< Cumulative ack: header seq = last applied frame.
  kResume = 23,         ///< Sink → reader: replay start point after HELLO.
  kAbortQuery = 24,     ///< Broadcast abort; payload = encoded Status.

  // 1 (kSchema, the per-channel row schema; readers learn it from kSplits),
  // 13 (kRegisterMl), 17 (kShutdown), 25, 26 and 33 (kChannelWindow, the
  // mux's per-frame credit grant) are retired: a peer built while they were
  // in use may still send them, so they must never be reused.

  // Serving plane (src/serving): client ↔ query server. One query per
  // connection; an overloaded server answers kSubmitQuery with kError
  // carrying a typed kOverloaded status.
  kSubmitQuery = 27,  ///< Client → server; payload = SubmitQueryMessage.
  kQueryResult = 28,  ///< Server → client; payload = schema + rows.
  kCancelQuery = 29,  ///< Client → server: cancel the in-flight query.

  // Mux plane (src/net): many logical transfer channels share one
  // sink→reader socket. On a mux socket these are the ONLY frame types;
  // data-plane frames (kResume/kData/kEnd/kError/kDataAck/kAck)
  // travel wrapped inside kChannelData with a one-byte inner type prefix, so
  // the per-channel seq/ack machinery is untouched by multiplexing.
  kOpenChannel = 30,    ///< Reader → sink: payload = OpenChannelMessage.
  kChannelData = 31,    ///< Wrapped inner frame; payload = [inner type][...].
  kCloseChannel = 32,   ///< Either side: channel torn down (socket stays up).

  // Completion plane: out-of-band final-ack recovery. A reader's final ack
  // can die with a shared connection after the whole stream was applied;
  // the reader then reports completion to the coordinator and never
  // reconnects, so the sink asks the coordinator instead of waiting out a
  // reconnect that will never come.
  kSplitStatus = 34,  ///< Sink → coordinator: varint split id. Reply kAck,
                      ///< payload = varint(1) completed / varint(0) not,
                      ///< or kError carrying the query's abort.
};

/// True when a header's type byte names a FrameType above: 2–4, 10–12,
/// 14–16, 18–24, 27–32 and 34. Decoders reject any other byte as DataLoss,
/// so it never reaches a handler's default branch as a retryable error.
constexpr bool IsKnownFrameType(uint8_t type) {
  return (type >= 2 && type <= 4) ||
         (type >= 10 && type <= 24 && type != 13 && type != 17) ||
         (type >= 27 && type <= 32) || type == 34;
}

struct Frame {
  FrameType type = FrameType::kAck;
  std::string payload;
  /// Per-channel monotonic sequence number (kData/kEnd frames and kDataAck
  /// cumulative acks); zero on frames that don't take part in replay.
  uint64_t seq = 0;
  /// Logical mux channel id; zero on control and serving sockets.
  uint32_t channel = 0;
  /// Trace context propagated in the frame header (invalid when the sender
  /// was not tracing). Receivers parent their handler spans here so one
  /// query's trace crosses the wire.
  TraceContext trace;
};

/// Wire format: fixed32 payload length, one type byte, fixed64 trace id,
/// fixed64 span id, fixed64 sequence number, fixed32 channel id, payload
/// bytes. The trace fields are zero when tracing is off; SendFrame stamps
/// the calling thread's current span automatically and sends seq 0 on
/// channel 0. It carries control and serving frames; data frames travel
/// over mux channels (src/net/mux.h).
Status SendFrame(TcpSocket* socket, FrameType type, std::string_view payload);
/// As above with an explicit trace context (senders relaying a span owned by
/// another thread).
Status SendFrame(TcpSocket* socket, FrameType type, std::string_view payload,
                 const TraceContext& trace);

/// Largest payload a server reads in a request frame (the query server's
/// submit and cancel frames, the coordinator's control requests). Requests
/// carry a query's SQL or a control message, far below this; a header
/// announcing more is refused as soon as it is in, instead of waiting for
/// (and buffering) up to 4 GiB the peer may never send.
inline constexpr uint32_t kMaxRequestFrameBytes = 1 << 20;

/// Receives one frame. A header announcing more than `max_payload_bytes` is
/// InvalidArgument before any of its payload is read; the connection is then
/// mid-frame, so the caller answers or drops it but reads no further frame.
Result<Frame> RecvFrame(TcpSocket* socket,
                        uint32_t max_payload_bytes = UINT32_MAX);

/// Allocation-free variant for receive loops: decodes the header into
/// `*scratch` (reused across calls) and the payload into `frame->payload`
/// (whose capacity is likewise reused). `frame` keeps its buffers on error.
Status RecvFrameInto(TcpSocket* socket, Frame* frame, std::string* scratch,
                     uint32_t max_payload_bytes = UINT32_MAX);

/// Size in bytes of the fixed frame header
/// (len + type + trace_id + span_id + seq + channel).
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 8 + 8 + 8 + 4;

/// Decodes the kFrameHeaderBytes header at the front of `header` into
/// `*frame` (everything but the payload) and returns the payload length it
/// announces. DataLoss for a short header or a type byte that
/// IsKnownFrameType rejects. The one header decoder: RecvFrameInto and
/// therefore every socket, the mux's included, read headers through it.
Result<uint32_t> DecodeFrameHeader(std::string_view header, Frame* frame);

/// Writes the fixed frame header into `out` (at least kFrameHeaderBytes).
/// Shared by SendFrame and the mux write coalescer, which builds headers
/// for many channels before one writev.
void EncodeFrameHeader(char* out, FrameType type, uint32_t payload_len,
                       uint64_t seq, uint32_t channel,
                       const TraceContext& trace);

/// Bounded pool of reusable frame/payload buffers. The sink acquires one
/// per frame and its frame log releases it once the frame is acked or
/// spilled — after warm-up no send allocates. Buffers above a capacity cap
/// are dropped on release instead of pinning memory. Thread-safe.
/// Counters: stream.wire.frames_pooled (acquire served from the pool),
/// stream.wire.pool_miss (acquire had to allocate fresh).
class FrameBufferPool {
 public:
  /// An empty string with whatever capacity a released buffer carried.
  std::string Acquire();
  void Release(std::string buffer);

  /// Process-wide pool shared by all channels.
  static FrameBufferPool* Global();

 private:
  static constexpr size_t kMaxPooled = 64;
  static constexpr size_t kMaxBufferCapacity = 4 << 20;

  std::mutex mu_;
  std::vector<std::string> buffers_;
};

/// Typed-Status payload for kError / kAbortQuery frames: the code survives
/// the wire, so "aborted" stays IsAborted() on the far side instead of
/// collapsing into a string.
std::string EncodeStatus(const Status& status);
/// Decodes an EncodeStatus payload; free-text payloads (legacy senders,
/// foreign peers) degrade to kNetworkError with the text as message.
Status DecodeStatusPayload(std::string_view payload);

/// Schema serialization for control messages (registration, kSplits) and
/// query results.
void EncodeSchema(const Schema& schema, std::string* out);
Result<SchemaPtr> DecodeSchema(Decoder* decoder);

// --- Control-plane messages -------------------------------------------------

/// SQL worker registration (paper step 1): identity, the worker's data
/// endpoint, the ML command to launch, and the schema of the streamed rows.
struct RegisterSqlMessage {
  int worker_id = 0;
  int num_workers = 0;
  std::string host;
  int port = 0;
  std::string command;
  SchemaPtr schema;
  /// Routing key of this partition's inbox on the process-wide
  /// MuxSinkServer (host/port name the shared listener).
  uint64_t sink_key = 0;

  std::string Encode() const;
  static Result<RegisterSqlMessage> Decode(std::string_view payload);
};

/// The coordinator's kAck reply to a registration. Sender j of SQL worker
/// w serves split w·k + j, and every sink and reader renews its lease each
/// `heartbeat_ms` (0: no leases); the ML side learns the interval from
/// kSplits.
struct RegisterAckMessage {
  int splits_per_worker = 1;  ///< k in m = n·k.
  int heartbeat_ms = 0;

  std::string Encode() const;
  static Result<RegisterAckMessage> Decode(std::string_view payload);
};

/// One InputSplit descriptor handed to the ML job (paper step 3).
struct StreamSplitInfo {
  int split_id = 0;
  int sql_worker = 0;
  std::string host;  ///< SQL worker's host — the split's locality hint.
  int port = 0;
  /// Lease epoch the consumer must present in heartbeats. Bumped by the
  /// coordinator on every reassignment so a revoked ("zombie") reader is
  /// fenced off by its stale epoch.
  int64_t epoch = 1;
  /// Sink routing key for mux channels (see RegisterSqlMessage::sink_key).
  uint64_t sink_key = 0;
};

/// Response to kGetSplits.
struct SplitsMessage {
  SchemaPtr schema;
  std::vector<StreamSplitInfo> splits;
  /// The readers' lease renewal interval; 0 disables leases and split
  /// reassignment.
  int heartbeat_ms = 0;

  std::string Encode() const;
  static Result<SplitsMessage> Decode(std::string_view payload);
};

/// A reader's failure report (§6): the re-match request of a reader that
/// lost its connection. The kMatch reply carries the SQL endpoint to
/// re-dial.
struct ReportFailureMessage {
  int split_id = 0;

  std::string Encode() const;
  static Result<ReportFailureMessage> Decode(std::string_view payload);
};

struct MatchMessage {
  std::string host;
  int port = 0;
  /// Mux routing key of the matched sink partition's worker (see
  /// RegisterSqlMessage::sink_key); a restarted worker re-registers under a
  /// fresh key, so re-matches must carry the current one.
  uint64_t sink_key = 0;

  std::string Encode() const;
  static Result<MatchMessage> Decode(std::string_view payload);
};

/// The ML worker's opening of a data stream, embedded in kOpenChannel.
struct HelloMessage {
  int split_id = 0;
  /// Highest frame sequence number this reader already applied; the sink
  /// replays everything after it. -1 = "resume from your last cumulative
  /// ack" — sent by fresh and replacement readers, which own no local
  /// progress and inherit whatever the sink knows was applied.
  int64_t resume_seq = -1;

  std::string Encode() const;
  static Result<HelloMessage> Decode(std::string_view payload);
};

/// Reader → sink kOpenChannel payload: routes the new logical channel to a
/// sink partition registered on the shared MuxSinkServer listener and opens
/// the stream with the embedded HELLO. `window_bytes` is the reader's
/// window: the sink's sender waits for the reader's cumulative kDataAck
/// while the data bytes it sent on this channel and not yet acked reach it.
struct OpenChannelMessage {
  uint64_t sink_key = 0;
  uint64_t window_bytes = 0;
  HelloMessage hello;

  std::string Encode() const;
  static Result<OpenChannelMessage> Decode(std::string_view payload);
};

/// Lease renewal sent on a participant's control connection every
/// heartbeat interval. `id` is the split id for readers and the SQL worker
/// id for sinks.
struct HeartbeatMessage {
  enum Role : uint8_t { kSink = 0, kReader = 1 };
  enum Bye : uint8_t { kAlive = 0, kCompleted = 1, kFailed = 2 };

  uint8_t role = kSink;
  int id = 0;
  int64_t epoch = 1;        ///< Reader lease epoch (fencing).
  uint64_t applied_seq = 0; ///< Reader progress (observability).
  uint8_t bye = kAlive;     ///< Final beat: drop (kCompleted) or release
                            ///< for reassignment (kFailed).

  std::string Encode() const;
  static Result<HeartbeatMessage> Decode(std::string_view payload);
};

/// Sink → reader reply to HELLO: where the stream resumes. The reader's
/// runner truncates its partition buffer to `resume_rows` before applying
/// replayed frames, so at-least-once delivery stays exactly-once apply.
struct ResumeMessage {
  uint64_t resume_seq = 0;   ///< Replay starts after this frame.
  uint64_t resume_rows = 0;  ///< Rows contained in frames 1..resume_seq.

  std::string Encode() const;
  static Result<ResumeMessage> Decode(std::string_view payload);
};

/// Reply to kAcquireSplit: a Reassignable split handed to a surviving
/// reader, or "none pending right now".
struct SplitGrantMessage {
  bool granted = false;
  StreamSplitInfo split;  ///< Valid when granted; split.epoch is the fenced
                          ///< lease epoch the replacement must heartbeat.

  std::string Encode() const;
  static Result<SplitGrantMessage> Decode(std::string_view payload);
};

/// Reader → coordinator: the split's stream was fully applied.
struct CompleteSplitMessage {
  int split_id = 0;
  int64_t epoch = 1;
  uint64_t rows = 0;

  std::string Encode() const;
  static Result<CompleteSplitMessage> Decode(std::string_view payload);
};

}  // namespace sqlink

#endif  // SQLINK_STREAM_WIRE_H_
