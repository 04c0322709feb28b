#ifndef SQLINK_STREAM_STREAMING_TRANSFER_H_
#define SQLINK_STREAM_STREAMING_TRANSFER_H_

#include <string>

#include "common/string_util.h"
#include "ml/job.h"
#include "sql/engine.h"
#include "stream/sql_stream_input_format.h"
#include "stream/stream_sink_udf.h"

namespace sqlink {

struct StreamTransferOptions {
  /// k in m = n·k — ML workers per SQL worker.
  int splits_per_worker = 1;
  StreamSinkOptions sink;
  StreamReaderOptions reader;
  /// §8 lease renewal interval of every sink and reader. The coordinator
  /// derives the lease TTL from it and hands it to both sides; <= 0
  /// disables liveness tracking and split reassignment.
  int heartbeat_ms = static_cast<int>(EnvInt64("SQLINK_HEARTBEAT_MS", 0));
  /// §6: how many times one split may be handed to a replacement reader
  /// before the coordinator aborts the query.
  int max_split_reassignments = 3;
  /// Command string passed through the coordinator to the ML launcher (the
  /// paper's "command and arguments to invoke the desired ML algorithm").
  std::string command = "ingest";
  /// Serving-layer options threaded into the engine run: cooperative
  /// cancellation (a cancel also aborts the transfer's coordinator so
  /// readers and replay state unwind promptly), the per-query spill quota,
  /// and tenant attribution. See QueryOptions.
  QueryOptions query;
};

/// Outcome of one end-to-end streaming transfer.
struct StreamTransferResult {
  ml::RowDataset dataset;
  ml::IngestStats stats;
  int64_t rows_sent = 0;
  int64_t bytes_sent = 0;
  int64_t spilled_frames = 0;
};

/// Runs the complete §3 flow for one query: starts a coordinator, executes
/// the query wrapped in the sql_stream_sink UDF on the SQL engine, lets the
/// coordinator launch an ML ingestion job that reads through
/// SqlStreamInputFormat, and returns the in-memory dataset. The SQL scan,
/// transformation and ML ingest all overlap — the paper's fully pipelined
/// prep+trsfm+input configuration — and nothing touches the filesystem
/// (except spill under backpressure).
class StreamingTransfer {
 public:
  /// The rewritten SQL invoking the sink UDF (exposed for the rewriter).
  static std::string BuildSinkSql(const std::string& query_sql,
                                  const std::string& coordinator_host,
                                  int coordinator_port,
                                  const std::string& command,
                                  const StreamSinkOptions& sink);

  /// Executes `query_sql` on `engine` and streams its result into a
  /// RowDataset.
  static Result<StreamTransferResult> Run(SqlEngine* engine,
                                          const std::string& query_sql,
                                          const StreamTransferOptions& options = {});
};

}  // namespace sqlink

#endif  // SQLINK_STREAM_STREAMING_TRANSFER_H_
