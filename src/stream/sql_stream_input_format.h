#ifndef SQLINK_STREAM_SQL_STREAM_INPUT_FORMAT_H_
#define SQLINK_STREAM_SQL_STREAM_INPUT_FORMAT_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/input_format.h"
#include "stream/wire.h"

namespace sqlink {

/// Recovery knobs (§6 experiments/tests). Fault injection lives in the
/// failpoint registry (common/failpoint.h): arm
/// "stream.reader.row.split<ID>" to drop split ID's connection after a
/// delivered row, "stream.reader.kill.split<ID>" to kill the reader
/// mid-split (no local recovery — the split must be reassigned),
/// "stream.reader.heartbeat.split<ID>" with a delay spec to stall lease
/// renewal, or "stream.reader.frame" / "stream.reader.connect" for frame-
/// and dial-level faults.
struct StreamReaderOptions {
  /// §6 recovery: on a broken connection, report the failure to the
  /// coordinator, re-dial the matched SQL worker, and resume from the last
  /// applied frame sequence (replayed duplicates are dropped by sequence),
  /// at most this many times per split; 0 gives up at the first failure.
  int max_reconnects = 3;

  /// Benchmark knob: sleep this long after each received data frame,
  /// simulating a slow ML consumer (drives the spill/backpressure study).
  int consume_delay_micros_per_frame = 0;
};

/// The paper's specialized Hadoop InputFormat: instead of reading files, it
/// asks the coordinator for m = n·k splits (step 3) — each split locating a
/// SQL worker — and its record readers receive rows over TCP straight from
/// the SQL workers' send buffers (step 8). Using it is the *only* change an
/// ML job needs ("the only change she has to make is to use our specialized
/// SQLStreamInputFormat in the job configuration").
class SqlStreamInputFormat final : public ml::InputFormat {
 public:
  SqlStreamInputFormat(std::string coordinator_host, int coordinator_port,
                       StreamReaderOptions options = {});

  Result<std::vector<ml::InputSplitPtr>> GetSplits(
      const ml::JobContext& context) override;

  Result<std::unique_ptr<ml::RecordReader>> CreateReader(
      const ml::JobContext& context, const ml::InputSplit& split,
      int worker_id) override;

  /// Known after GetSplits (the coordinator forwards the SQL-side schema).
  SchemaPtr schema() const override { return schema_; }

  /// §6 reassignment (requires the coordinator's leases, which kSplits
  /// names): surviving workers poll the coordinator for splits whose reader
  /// was declared dead and resume them from the sink's frame log.
  bool SupportsReassignment() const override { return heartbeat_ms_ > 0; }
  Result<ml::ReassignedSplit> AcquireReassigned() override;
  void AbortTransfer(const Status& status) override;

 private:
  std::string coordinator_host_;
  int coordinator_port_;
  StreamReaderOptions options_;
  SchemaPtr schema_;
  /// The readers' lease renewal interval; known after GetSplits (0: none).
  int heartbeat_ms_ = 0;
};

/// One streaming split: the SQL worker endpoint to drain, located at the
/// SQL worker's host so the scheduler can co-locate the ML worker (the
/// paper's locality optimization).
class StreamSplit final : public ml::InputSplit {
 public:
  explicit StreamSplit(StreamSplitInfo info) : info_(std::move(info)) {}

  const StreamSplitInfo& info() const { return info_; }

  std::vector<std::string> Locations() const override {
    return {info_.host};
  }
  std::string DebugString() const override {
    return "stream split " + std::to_string(info_.split_id) + " <- sql worker " +
           std::to_string(info_.sql_worker) + " @" + info_.host + ":" +
           std::to_string(info_.port);
  }

 private:
  StreamSplitInfo info_;
};

}  // namespace sqlink

#endif  // SQLINK_STREAM_SQL_STREAM_INPUT_FORMAT_H_
