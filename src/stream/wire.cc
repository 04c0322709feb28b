#include "stream/wire.h"

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"

namespace sqlink {

namespace {

/// Per-instrument handles resolved once (satisfying the hot-path contract:
/// no registry lock per frame).
struct WireMetrics {
  Counter* frames_sent;
  Counter* frames_received;
  Counter* bytes_sent;
  Counter* bytes_received;
  Counter* frames_pooled;
  Counter* pool_miss;
  Histogram* send_micros;
  Histogram* recv_micros;

  static const WireMetrics& Get() {
    static const WireMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      return WireMetrics{registry.GetCounter("stream.wire.frames_sent"),
                         registry.GetCounter("stream.wire.frames_received"),
                         registry.GetCounter("stream.wire.bytes_sent"),
                         registry.GetCounter("stream.wire.bytes_received"),
                         registry.GetCounter("stream.wire.frames_pooled"),
                         registry.GetCounter("stream.wire.pool_miss"),
                         registry.GetHistogram("stream.wire.send_frame_micros"),
                         registry.GetHistogram("stream.wire.recv_frame_micros")};
    }();
    return metrics;
  }
};

Status CheckFrameType(uint8_t type) {
  if (IsKnownFrameType(type)) return Status::OK();
  return Status::DataLoss("unknown frame type " + std::to_string(type));
}

}  // namespace

Status SendFrame(TcpSocket* socket, FrameType type, std::string_view payload) {
  return SendFrame(socket, type, payload, Tracer::CurrentContext());
}

Status SendFrame(TcpSocket* socket, FrameType type, std::string_view payload,
                 const TraceContext& trace) {
  // Header on the stack + scatter-gather send: no concatenation of header
  // and payload into a heap buffer.
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(header, type, static_cast<uint32_t>(payload.size()),
                    /*seq=*/0, /*channel=*/0, trace);
  const std::string_view header_view(header, kFrameHeaderBytes);
  switch (SQLINK_FAILPOINT("stream.wire.send_frame")) {
    case FailpointOutcome::kNone:
      break;
    case FailpointOutcome::kError:
      return Status::NetworkError("failpoint: injected frame send error");
    case FailpointOutcome::kClose: {
      // Ship only half the frame before dropping the connection, so the
      // receiver observes a mid-frame disconnect rather than a clean EOF.
      const size_t half = (kFrameHeaderBytes + payload.size()) / 2;
      if (half <= kFrameHeaderBytes) {
        (void)socket->SendAll(header_view.substr(0, half));
      } else {
        (void)socket->SendAllV(header_view,
                               payload.substr(0, half - kFrameHeaderBytes));
      }
      socket->Close();
      return Status::NetworkError("failpoint: connection dropped mid-frame");
    }
  }
  const WireMetrics& metrics = WireMetrics::Get();
  Stopwatch timer;
  const Status status = socket->SendAllV(header_view, payload);
  if (status.ok()) {
    metrics.send_micros->Record(timer.ElapsedMicros());
    metrics.frames_sent->Increment();
    metrics.bytes_sent->Add(
        static_cast<int64_t>(kFrameHeaderBytes + payload.size()));
  }
  return status;
}

void EncodeFrameHeader(char* out, FrameType type, uint32_t payload_len,
                       uint64_t seq, uint32_t channel,
                       const TraceContext& trace) {
  EncodeFixed32(out, payload_len);
  out[4] = static_cast<char>(type);
  EncodeFixed64(out + 5, trace.trace_id);
  EncodeFixed64(out + 13, trace.span_id);
  EncodeFixed64(out + 21, seq);
  EncodeFixed32(out + 29, channel);
}

Result<uint32_t> DecodeFrameHeader(std::string_view header, Frame* frame) {
  Decoder decoder(header);
  ASSIGN_OR_RETURN(uint32_t length, decoder.GetFixed32());
  ASSIGN_OR_RETURN(uint8_t type, decoder.GetByte());
  RETURN_IF_ERROR(CheckFrameType(type));
  frame->type = static_cast<FrameType>(type);
  ASSIGN_OR_RETURN(frame->trace.trace_id, decoder.GetFixed64());
  ASSIGN_OR_RETURN(frame->trace.span_id, decoder.GetFixed64());
  ASSIGN_OR_RETURN(frame->seq, decoder.GetFixed64());
  ASSIGN_OR_RETURN(frame->channel, decoder.GetFixed32());
  return length;
}

Status RecvFrameInto(TcpSocket* socket, Frame* frame, std::string* scratch,
                     uint32_t max_payload_bytes) {
  switch (SQLINK_FAILPOINT("stream.wire.recv_frame")) {
    case FailpointOutcome::kNone:
      break;
    case FailpointOutcome::kError:
      return Status::NetworkError("failpoint: injected frame recv error");
    case FailpointOutcome::kClose:
      socket->Close();
      return Status::NetworkError("failpoint: recv connection closed");
  }
  const WireMetrics& metrics = WireMetrics::Get();
  Stopwatch timer;
  RETURN_IF_ERROR(socket->RecvExactly(kFrameHeaderBytes, scratch));
  ASSIGN_OR_RETURN(uint32_t length, DecodeFrameHeader(*scratch, frame));
  if (length > max_payload_bytes) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(length) + " bytes exceeds " +
        std::to_string(max_payload_bytes) + " bytes");
  }
  frame->payload.clear();
  if (length > 0) {
    RETURN_IF_ERROR(socket->RecvExactly(length, &frame->payload));
  }
  metrics.recv_micros->Record(timer.ElapsedMicros());
  metrics.frames_received->Increment();
  metrics.bytes_received->Add(
      static_cast<int64_t>(kFrameHeaderBytes + frame->payload.size()));
  return Status::OK();
}

Result<Frame> RecvFrame(TcpSocket* socket, uint32_t max_payload_bytes) {
  Frame frame;
  std::string scratch;
  RETURN_IF_ERROR(RecvFrameInto(socket, &frame, &scratch, max_payload_bytes));
  return frame;
}

std::string FrameBufferPool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!buffers_.empty()) {
      std::string buffer = std::move(buffers_.back());
      buffers_.pop_back();
      buffer.clear();
      WireMetrics::Get().frames_pooled->Increment();
      return buffer;
    }
  }
  WireMetrics::Get().pool_miss->Increment();
  return {};
}

void FrameBufferPool::Release(std::string buffer) {
  if (buffer.capacity() == 0 || buffer.capacity() > kMaxBufferCapacity) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (buffers_.size() >= kMaxPooled) return;
  buffers_.push_back(std::move(buffer));
}

FrameBufferPool* FrameBufferPool::Global() {
  static FrameBufferPool* const pool = new FrameBufferPool();
  return pool;
}

namespace {
/// Marker byte so a typed-status payload is distinguishable from the legacy
/// free-text error payloads still emitted by older call sites.
constexpr uint8_t kStatusPayloadTag = 0xF5;

/// A signed varint in [lo, hi]; DataLoss outside it.
Result<int> GetIntIn(Decoder* decoder, int64_t lo, int64_t hi) {
  ASSIGN_OR_RETURN(int64_t value, decoder->GetVarint64Signed());
  if (value < lo || value > hi) {
    return Status::DataLoss(std::to_string(value) + " outside [" +
                            std::to_string(lo) + ", " + std::to_string(hi) +
                            "]");
  }
  return static_cast<int>(value);
}

/// One StreamSplitInfo, as kSplits lists it and kSplitGrant hands it out.
void EncodeSplit(const StreamSplitInfo& split, std::string* out) {
  PutVarint64Signed(out, split.split_id);
  PutVarint64Signed(out, split.sql_worker);
  PutLengthPrefixed(out, split.host);
  PutVarint64Signed(out, split.port);
  PutVarint64Signed(out, split.epoch);
  PutVarint64(out, split.sink_key);
}

Result<StreamSplitInfo> DecodeSplit(Decoder* decoder) {
  StreamSplitInfo split;
  ASSIGN_OR_RETURN(int64_t id, decoder->GetVarint64Signed());
  split.split_id = static_cast<int>(id);
  ASSIGN_OR_RETURN(int64_t worker, decoder->GetVarint64Signed());
  split.sql_worker = static_cast<int>(worker);
  ASSIGN_OR_RETURN(std::string_view host, decoder->GetLengthPrefixed());
  split.host = std::string(host);
  ASSIGN_OR_RETURN(int64_t port, decoder->GetVarint64Signed());
  split.port = static_cast<int>(port);
  ASSIGN_OR_RETURN(split.epoch, decoder->GetVarint64Signed());
  ASSIGN_OR_RETURN(split.sink_key, decoder->GetVarint64());
  return split;
}
}  // namespace

std::string EncodeStatus(const Status& status) {
  std::string out;
  out.push_back(static_cast<char>(kStatusPayloadTag));
  PutVarint64(&out, static_cast<uint64_t>(status.code()));
  PutLengthPrefixed(&out, status.message());
  return out;
}

Status DecodeStatusPayload(std::string_view payload) {
  auto fallback = [&] {
    return Status::NetworkError("peer failed: " + std::string(payload));
  };
  if (payload.empty() ||
      static_cast<uint8_t>(payload.front()) != kStatusPayloadTag) {
    return fallback();
  }
  Decoder decoder(payload.substr(1));
  auto code = decoder.GetVarint64();
  if (!code.ok() || *code == 0 ||
      *code > static_cast<uint64_t>(StatusCode::kOverloaded)) {
    return fallback();
  }
  auto message = decoder.GetLengthPrefixed();
  if (!message.ok()) return fallback();
  return Status(static_cast<StatusCode>(*code), std::string(*message));
}

void EncodeSchema(const Schema& schema, std::string* out) {
  PutVarint64(out, static_cast<uint64_t>(schema.num_fields()));
  for (const Field& field : schema.fields()) {
    PutLengthPrefixed(out, field.name);
    out->push_back(static_cast<char>(field.type));
  }
}

Result<SchemaPtr> DecodeSchema(Decoder* decoder) {
  // A field is at least an empty name's length byte plus its type byte.
  ASSIGN_OR_RETURN(uint64_t count, decoder->GetCount(/*min_element_bytes=*/2));
  std::vector<Field> fields;
  fields.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(std::string_view name, decoder->GetLengthPrefixed());
    ASSIGN_OR_RETURN(uint8_t type, decoder->GetByte());
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Status::DataLoss("bad data type in schema");
    }
    fields.push_back(Field{std::string(name), static_cast<DataType>(type)});
  }
  return Schema::Make(std::move(fields));
}

std::string RegisterSqlMessage::Encode() const {
  std::string out;
  PutVarint64Signed(&out, worker_id);
  PutVarint64Signed(&out, num_workers);
  PutLengthPrefixed(&out, host);
  PutVarint64Signed(&out, port);
  PutLengthPrefixed(&out, command);
  EncodeSchema(*schema, &out);
  PutVarint64(&out, sink_key);
  return out;
}

Result<RegisterSqlMessage> RegisterSqlMessage::Decode(
    std::string_view payload) {
  Decoder decoder(payload);
  RegisterSqlMessage msg;
  ASSIGN_OR_RETURN(int64_t worker, decoder.GetVarint64Signed());
  msg.worker_id = static_cast<int>(worker);
  ASSIGN_OR_RETURN(int64_t total, decoder.GetVarint64Signed());
  msg.num_workers = static_cast<int>(total);
  ASSIGN_OR_RETURN(std::string_view host, decoder.GetLengthPrefixed());
  msg.host = std::string(host);
  ASSIGN_OR_RETURN(int64_t port, decoder.GetVarint64Signed());
  msg.port = static_cast<int>(port);
  ASSIGN_OR_RETURN(std::string_view command, decoder.GetLengthPrefixed());
  msg.command = std::string(command);
  ASSIGN_OR_RETURN(msg.schema, DecodeSchema(&decoder));
  ASSIGN_OR_RETURN(msg.sink_key, decoder.GetVarint64());
  return msg;
}

std::string RegisterAckMessage::Encode() const {
  std::string out;
  PutVarint64Signed(&out, splits_per_worker);
  PutVarint64Signed(&out, heartbeat_ms);
  return out;
}

Result<RegisterAckMessage> RegisterAckMessage::Decode(
    std::string_view payload) {
  Decoder decoder(payload);
  RegisterAckMessage msg;
  // k sizes the sink's sender threads and frame logs.
  ASSIGN_OR_RETURN(msg.splits_per_worker, GetIntIn(&decoder, 1, 1024));
  ASSIGN_OR_RETURN(msg.heartbeat_ms, GetIntIn(&decoder, 0, INT32_MAX));
  return msg;
}

std::string SplitsMessage::Encode() const {
  std::string out;
  EncodeSchema(*schema, &out);
  PutVarint64(&out, splits.size());
  for (const StreamSplitInfo& split : splits) EncodeSplit(split, &out);
  PutVarint64Signed(&out, heartbeat_ms);
  return out;
}

Result<SplitsMessage> SplitsMessage::Decode(std::string_view payload) {
  Decoder decoder(payload);
  SplitsMessage msg;
  ASSIGN_OR_RETURN(msg.schema, DecodeSchema(&decoder));
  ASSIGN_OR_RETURN(uint64_t count, decoder.GetVarint64());
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(StreamSplitInfo split, DecodeSplit(&decoder));
    msg.splits.push_back(std::move(split));
  }
  ASSIGN_OR_RETURN(msg.heartbeat_ms, GetIntIn(&decoder, 0, INT32_MAX));
  return msg;
}

std::string ReportFailureMessage::Encode() const {
  std::string out;
  PutVarint64Signed(&out, split_id);
  return out;
}

Result<ReportFailureMessage> ReportFailureMessage::Decode(
    std::string_view payload) {
  Decoder decoder(payload);
  ReportFailureMessage msg;
  ASSIGN_OR_RETURN(int64_t id, decoder.GetVarint64Signed());
  msg.split_id = static_cast<int>(id);
  return msg;
}

std::string MatchMessage::Encode() const {
  std::string out;
  PutLengthPrefixed(&out, host);
  PutVarint64Signed(&out, port);
  PutVarint64(&out, sink_key);
  return out;
}

Result<MatchMessage> MatchMessage::Decode(std::string_view payload) {
  Decoder decoder(payload);
  MatchMessage msg;
  ASSIGN_OR_RETURN(std::string_view host, decoder.GetLengthPrefixed());
  msg.host = std::string(host);
  ASSIGN_OR_RETURN(int64_t port, decoder.GetVarint64Signed());
  msg.port = static_cast<int>(port);
  ASSIGN_OR_RETURN(msg.sink_key, decoder.GetVarint64());
  return msg;
}

std::string HelloMessage::Encode() const {
  std::string out;
  PutVarint64Signed(&out, split_id);
  PutVarint64Signed(&out, resume_seq);
  return out;
}

Result<HelloMessage> HelloMessage::Decode(std::string_view payload) {
  Decoder decoder(payload);
  HelloMessage msg;
  ASSIGN_OR_RETURN(int64_t id, decoder.GetVarint64Signed());
  msg.split_id = static_cast<int>(id);
  ASSIGN_OR_RETURN(msg.resume_seq, decoder.GetVarint64Signed());
  return msg;
}

std::string OpenChannelMessage::Encode() const {
  std::string out;
  PutVarint64(&out, sink_key);
  PutVarint64(&out, window_bytes);
  PutLengthPrefixed(&out, hello.Encode());
  return out;
}

Result<OpenChannelMessage> OpenChannelMessage::Decode(
    std::string_view payload) {
  Decoder decoder(payload);
  OpenChannelMessage msg;
  ASSIGN_OR_RETURN(msg.sink_key, decoder.GetVarint64());
  ASSIGN_OR_RETURN(msg.window_bytes, decoder.GetVarint64());
  ASSIGN_OR_RETURN(std::string_view hello, decoder.GetLengthPrefixed());
  ASSIGN_OR_RETURN(msg.hello, HelloMessage::Decode(hello));
  return msg;
}

std::string HeartbeatMessage::Encode() const {
  std::string out;
  out.push_back(static_cast<char>(role));
  PutVarint64Signed(&out, id);
  PutVarint64Signed(&out, epoch);
  PutVarint64(&out, applied_seq);
  out.push_back(static_cast<char>(bye));
  return out;
}

Result<HeartbeatMessage> HeartbeatMessage::Decode(std::string_view payload) {
  Decoder decoder(payload);
  HeartbeatMessage msg;
  ASSIGN_OR_RETURN(msg.role, decoder.GetByte());
  ASSIGN_OR_RETURN(int64_t id, decoder.GetVarint64Signed());
  msg.id = static_cast<int>(id);
  ASSIGN_OR_RETURN(msg.epoch, decoder.GetVarint64Signed());
  ASSIGN_OR_RETURN(msg.applied_seq, decoder.GetVarint64());
  ASSIGN_OR_RETURN(msg.bye, decoder.GetByte());
  return msg;
}

std::string ResumeMessage::Encode() const {
  std::string out;
  PutVarint64(&out, resume_seq);
  PutVarint64(&out, resume_rows);
  return out;
}

Result<ResumeMessage> ResumeMessage::Decode(std::string_view payload) {
  Decoder decoder(payload);
  ResumeMessage msg;
  ASSIGN_OR_RETURN(msg.resume_seq, decoder.GetVarint64());
  ASSIGN_OR_RETURN(msg.resume_rows, decoder.GetVarint64());
  return msg;
}

std::string SplitGrantMessage::Encode() const {
  std::string out;
  out.push_back(granted ? 1 : 0);
  if (granted) EncodeSplit(split, &out);
  return out;
}

Result<SplitGrantMessage> SplitGrantMessage::Decode(std::string_view payload) {
  Decoder decoder(payload);
  SplitGrantMessage msg;
  ASSIGN_OR_RETURN(uint8_t granted, decoder.GetByte());
  msg.granted = granted != 0;
  if (msg.granted) {
    ASSIGN_OR_RETURN(msg.split, DecodeSplit(&decoder));
  }
  return msg;
}

std::string CompleteSplitMessage::Encode() const {
  std::string out;
  PutVarint64Signed(&out, split_id);
  PutVarint64Signed(&out, epoch);
  PutVarint64(&out, rows);
  return out;
}

Result<CompleteSplitMessage> CompleteSplitMessage::Decode(
    std::string_view payload) {
  Decoder decoder(payload);
  CompleteSplitMessage msg;
  ASSIGN_OR_RETURN(int64_t id, decoder.GetVarint64Signed());
  msg.split_id = static_cast<int>(id);
  ASSIGN_OR_RETURN(msg.epoch, decoder.GetVarint64Signed());
  ASSIGN_OR_RETURN(msg.rows, decoder.GetVarint64());
  return msg;
}

}  // namespace sqlink
