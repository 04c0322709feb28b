#include "stream/streaming_transfer.h"

#include <algorithm>
#include <future>

#include "common/status_macros.h"
#include "common/trace.h"
#include "stream/coordinator.h"

namespace sqlink {

std::string StreamingTransfer::BuildSinkSql(const std::string& query_sql,
                                            const std::string& coordinator_host,
                                            int coordinator_port,
                                            const std::string& command,
                                            const StreamSinkOptions& sink) {
  return "SELECT * FROM TABLE(sql_stream_sink((" + query_sql + "), '" +
         coordinator_host + "', " + std::to_string(coordinator_port) + ", '" +
         command + "', " + std::to_string(sink.send_buffer_bytes) + ", " +
         (sink.spill_enabled ? "1" : "0") + ", " +
         std::to_string(sink.reconnect_timeout_ms) + "))";
}

Result<StreamTransferResult> StreamingTransfer::Run(
    SqlEngine* engine, const std::string& query_sql,
    const StreamTransferOptions& options) {
  RETURN_IF_ERROR(RegisterStreamSinkUdf(engine));

  // Root span of the whole transfer. Installing it as the ambient context
  // means every span created on a thread with no open span — SQL executor
  // workers running the sink UDF, the coordinator's ML-launcher thread, the
  // ML ingest workers — parents here, so the run yields ONE trace covering
  // registration → split fetch → socket transfer → spill → ML ingest.
  TraceSpan transfer_span("stream.transfer");
  ScopedAmbientTrace ambient(transfer_span.context());

  // The coordinator launches the ML ingestion when all SQL workers have
  // registered (paper step 2). The launcher runs on the coordinator's
  // launcher thread and fulfills the promise.
  std::promise<Result<ml::IngestResult>> ml_promise;
  std::future<Result<ml::IngestResult>> ml_future = ml_promise.get_future();

  StreamCoordinator::Options coordinator_options;
  coordinator_options.splits_per_worker = options.splits_per_worker;
  coordinator_options.heartbeat_ms = std::max(0, options.heartbeat_ms);
  coordinator_options.max_split_reassignments = options.max_split_reassignments;
  // Set once the coordinator listens; the launcher reads it later.
  auto port_holder = std::make_shared<int>(0);
  coordinator_options.ml_launcher =
      [engine, port_holder, reader_options = options.reader,
       &ml_promise](const std::string& command) {
        (void)command;
        ml::JobContext context;
        context.cluster = engine->cluster();
        context.metrics = engine->metrics();
        SqlStreamInputFormat format("localhost", *port_holder, reader_options);
        ml::MlJobRunner runner(context);
        ml_promise.set_value(runner.Ingest(&format));
      };

  ASSIGN_OR_RETURN(std::unique_ptr<StreamCoordinator> coordinator,
                   StreamCoordinator::Start(std::move(coordinator_options)));
  *port_holder = coordinator->port();

  const std::string sink_sql =
      BuildSinkSql(query_sql, coordinator->host(), coordinator->port(),
                   options.command, options.sink);

  // A cancellation must also abort THIS transfer's coordinator: the abort
  // broadcast drains readers and releases splits/replay state promptly,
  // while neighbor queries (each with their own coordinator) are untouched.
  int64_t cancel_id = 0;
  if (options.query.cancellation != nullptr) {
    StreamCoordinator* coordinator_raw = coordinator.get();
    cancel_id = options.query.cancellation->OnCancel([coordinator_raw] {
      coordinator_raw->Abort(Status::Cancelled("query cancelled"));
    });
  }
  auto sql_result = engine->ExecuteSql(sink_sql, "stream_summary",
                                       options.query);
  if (options.query.cancellation != nullptr) {
    options.query.cancellation->RemoveCallback(cancel_id);
  }

  Result<StreamTransferResult> outcome = [&]() -> Result<StreamTransferResult> {
    if (!sql_result.ok()) {
      // If the failure happened before every worker registered, the ML job
      // was never launched and the future will never be fulfilled.
      if (ml_future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        return sql_result.status();
      }
      (void)ml_future.get();
      return sql_result.status();
    }
    ASSIGN_OR_RETURN(ml::IngestResult ingested, ml_future.get());
    StreamTransferResult result;
    result.dataset = std::move(ingested.dataset);
    result.stats = ingested.stats;
    for (const Row& row : (*sql_result)->GatherRows()) {
      result.rows_sent += row[1].int64_value();
      result.bytes_sent += row[2].int64_value();
      result.spilled_frames += row[3].int64_value();
    }
    return result;
  }();

  coordinator->Stop();
  return outcome;
}

}  // namespace sqlink
