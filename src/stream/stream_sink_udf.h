#ifndef SQLINK_STREAM_STREAM_SINK_UDF_H_
#define SQLINK_STREAM_STREAM_SINK_UDF_H_

#include <memory>
#include <string>
#include <vector>

#include "sql/engine.h"
#include "sql/table_udf.h"

namespace sqlink {

/// Tuning knobs of the streaming transfer ("the sizes of the buffers are
/// controllable system parameters").
struct StreamSinkOptions {
  size_t send_buffer_bytes = 4096;  ///< Paper experiments use 4 KB.
  bool spill_enabled = true;        ///< Spill to local disk when a consumer lags.
  /// How long a sender waits for an ML worker to (re)connect before giving
  /// up. Short values keep failure tests fast.
  int reconnect_timeout_ms = 30000;

  /// Parses the optional trailing UDF arguments (buffer_bytes, spill 0/1,
  /// reconnect_timeout_ms); more arguments than these are InvalidArgument.
  static Result<StreamSinkOptions> FromArgs(const std::vector<Value>& args,
                                            size_t first);
};

/// The parallel table UDF that exports a query's rows to the ML system
/// (§3): each SQL worker opens a data port, registers with the coordinator
/// (step 1), which answers with k and the lease interval, waits for its k
/// ML workers to dial in (step 7), and streams its partition round-robin
/// across them through bounded send buffers with optional disk spill
/// (step 8). Emits one summary row per SQL worker.
///
/// SQL:
///   SELECT * FROM TABLE(sql_stream_sink((<query>),
///       '<coordinator_host>', <coordinator_port>, '<ml_command>'
///       [, <buffer_bytes>, <spill 0/1>, <reconnect_timeout_ms>]))
///
/// Every data frame carries a per-channel sequence number and stays in the
/// channel's frame log until the reader's cumulative ack trims it (§6).
/// That ack is also the channel's only flow control: a sender keeps at most
/// the reader's window (OpenChannelMessage::window_bytes) of data bytes
/// sent and unacked, plus one frame, and waits on the channel for the next
/// ack past it. A sender whose connection drops waits for a reconnecting —
/// or coordinator-appointed replacement — reader, answers its HELLO with
/// the resume point, and replays only the unacked suffix: at-least-once
/// delivery, exactly-once apply.
class SqlStreamSinkUdf final : public TableUdf {
 public:
  SqlStreamSinkUdf() = default;

  Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                         const std::vector<Value>& args) override;
  Result<TableUdfPartitionPtr> Open(const TableUdfContext& context) override;

  /// Schema of the per-worker summary row.
  static SchemaPtr SummarySchema();

 private:
  class Partition;

  std::string coordinator_host_;
  int coordinator_port_ = 0;
  std::string command_;
  StreamSinkOptions options_;
  SchemaPtr input_schema_;
};

/// Registers "sql_stream_sink" on the engine (idempotent).
Status RegisterStreamSinkUdf(SqlEngine* engine);

}  // namespace sqlink

#endif  // SQLINK_STREAM_STREAM_SINK_UDF_H_
