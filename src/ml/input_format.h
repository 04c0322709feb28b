#ifndef SQLINK_ML_INPUT_FORMAT_H_
#define SQLINK_ML_INPUT_FORMAT_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/metrics.h"
#include "common/result.h"
#include "table/schema.h"
#include "table/value.h"

namespace sqlink::ml {

/// Job-level context shared by the input format and the workers: the
/// requested worker count plus cluster and metrics handles.
struct JobContext {
  /// Requested number of ML workers. An InputFormat may override it when it
  /// returns a different number of splits (the split count wins, as in
  /// Hadoop: one record reader per split).
  int requested_workers = 0;
  ClusterPtr cluster;
  MetricsRegistry* metrics = nullptr;
};

/// One unit of input, consumed by exactly one ML worker — the Hadoop
/// InputSplit contract: a description of the data plus location hints the
/// scheduler uses to place the worker near its data.
class InputSplit {
 public:
  virtual ~InputSplit() = default;

  /// Host names (Cluster::HostName) where this split's data is local.
  virtual std::vector<std::string> Locations() const = 0;

  virtual std::string DebugString() const = 0;
};

using InputSplitPtr = std::shared_ptr<InputSplit>;

/// Sequentially yields the typed records of one split.
class RecordReader {
 public:
  virtual ~RecordReader() = default;

  /// Establishes the split's source before the first Next. Streaming readers
  /// negotiate their resume point here; file readers need nothing, so the
  /// default is a no-op (Next must lazily open when Open was never called).
  virtual Status Open() { return Status::OK(); }

  /// Rows of this split that an earlier, failed reader already applied —
  /// valid after Open. The runner truncates the split's partial partition
  /// buffer to this count before consuming, turning the transport's
  /// at-least-once replay into exactly-once apply.
  virtual uint64_t resume_row_count() const { return 0; }

  /// Fills `*out` and returns true, or false at end of split.
  virtual Result<bool> Next(Row* out) = 0;
};

/// A split handed back by the coordinator after its original reader died.
/// `index` is the split's position in the GetSplits result — the partition
/// the replacement reader must resume.
struct ReassignedSplit {
  InputSplitPtr split;  ///< Null when nothing is pending reassignment.
  int index = -1;
};

/// The ingestion extension point of the ML system — the generic interface
/// the paper builds on ("any big ML system that uses Hadoop InputFormats to
/// ingest input data"). TextFileInputFormat reads DFS files; the paper's
/// SqlStreamInputFormat (stream module) receives rows over sockets from SQL
/// workers instead.
class InputFormat {
 public:
  virtual ~InputFormat() = default;

  /// Partitions the input; called once when the job launches.
  virtual Result<std::vector<InputSplitPtr>> GetSplits(
      const JobContext& context) = 0;

  /// Opens a reader for one split; called on the worker assigned to it.
  virtual Result<std::unique_ptr<RecordReader>> CreateReader(
      const JobContext& context, const InputSplit& split, int worker_id) = 0;

  /// Schema of the produced records.
  virtual SchemaPtr schema() const = 0;

  // --- §6 failure recovery (optional) ---------------------------------------
  // A format backed by a fault-tolerant transport can hand a dead worker's
  // split to a survivor. File formats don't need any of this.

  /// Whether splits of this format can be reacquired after a reader death.
  virtual bool SupportsReassignment() const { return false; }

  /// Polls for a split whose reader was declared dead. A null `split` means
  /// none is pending *right now* (the caller should back off and re-poll); a
  /// typed error (e.g. kAborted) means the transfer is over and the job must
  /// surface it.
  virtual Result<ReassignedSplit> AcquireReassigned() {
    return ReassignedSplit{};
  }

  /// Broadcasts a job-side abort so upstream producers stop waiting for
  /// readers that will never come. Best-effort.
  virtual void AbortTransfer(const Status& status) { (void)status; }
};

}  // namespace sqlink::ml

#endif  // SQLINK_ML_INPUT_FORMAT_H_
