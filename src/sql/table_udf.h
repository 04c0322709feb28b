#ifndef SQLINK_SQL_TABLE_UDF_H_
#define SQLINK_SQL_TABLE_UDF_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/byte_budget.h"
#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/result.h"
#include "table/column_batch.h"
#include "table/schema.h"
#include "table/value.h"

namespace sqlink {

/// Per-worker execution context handed to a parallel table UDF.
struct TableUdfContext {
  int worker_id = 0;    ///< This SQL worker's id in [0, num_workers).
  int num_workers = 1;  ///< Total parallel SQL workers executing the UDF.
  ClusterPtr cluster;   ///< May be null outside a simulated cluster.
  MetricsRegistry* metrics = nullptr;  ///< Never null during execution.
  /// Id of the tracked query this UDF runs inside (0 = untracked). The
  /// streaming sink uses it to attach its transfer counters to the query's
  /// record in the QueryRegistry.
  uint64_t query_id = 0;
  /// Cooperative per-query cancellation (null = not cancellable). UDFs with
  /// parked threads register OnCancel callbacks that wake them (the sink
  /// cancels its frame logs and closes its inboxes).
  Cancellation* cancellation = nullptr;
  /// Per-query spill quota shared by all of the query's frame logs
  /// (null = unlimited); the serving layer carves it from the global
  /// admission memory pool.
  ByteBudgetPtr spill_budget;
};

/// One SQL worker's run of a table UDF over its partition, driven on the
/// worker thread: Consume() once per input batch in partition order, then
/// Finish() once after the last batch (MADlib's transition/final contract).
/// A UDF without a relation argument gets only Finish(). The executor calls
/// Finish() only when the whole input was consumed without error; a
/// partition destroyed without it (upstream error, cancellation, LIMIT
/// stopping early) releases what it holds in its destructor.
///
/// Each input batch holds one or more rows; where the input is split
/// carries no meaning, so a UDF's output must not depend on it. `output` is
/// empty on entry and carries the UDF's bound output schema; the UDF
/// appends any number of rows to it: typed columns filled in place and then
/// SetRowCountForDecode, AppendGather, or AppendRow.
class TableUdfPartition {
 public:
  virtual ~TableUdfPartition() = default;

  /// Takes the batch by value, so a map UDF can move whole columns into its
  /// output.
  virtual Status Consume(ColumnBatch input, ColumnBatch* output) = 0;
  virtual Status Finish(ColumnBatch* /*output*/) { return Status::OK(); }
};

using TableUdfPartitionPtr = std::unique_ptr<TableUdfPartition>;

/// A parallel table UDF — the paper's extensibility mechanism (§2, §3).
///
/// One instance is created per query execution. Bind() runs once on the
/// coordinator thread to derive the output schema; Open() then runs once per
/// SQL worker, concurrently, and the worker pushes its partition through the
/// returned TableUdfPartition. State shared by the workers of one call (e.g.
/// a streaming coordinator handshake) lives in the instance and is
/// synchronized by the implementation.
class TableUdf {
 public:
  virtual ~TableUdf() = default;

  /// Derives the output schema. `input_schema` is null for source UDFs
  /// invoked without a relation argument. `args` are the literal scalar
  /// arguments of the call.
  virtual Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                                 const std::vector<Value>& args) = 0;

  /// Starts one worker's partition; the instance outlives it.
  virtual Result<TableUdfPartitionPtr> Open(
      const TableUdfContext& context) = 0;
};

using TableUdfPtr = std::shared_ptr<TableUdf>;
using TableUdfFactory = std::function<TableUdfPtr()>;

/// Registry of table UDFs, keyed case-insensitively. A fresh UDF instance is
/// created for every invocation.
/// Thread-safe: concurrent queries register the stream-sink UDF lazily
/// from their own threads (StreamingTransfer::Run), racing with lookups.
class TableUdfRegistry {
 public:
  /// AlreadyExists when `name` is taken; lazy registrars that race each
  /// other treat that as success.
  Status Register(const std::string& name, TableUdfFactory factory);
  Result<TableUdfPtr> Create(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, TableUdfFactory> factories_;  // Lower-case key.
};

}  // namespace sqlink

#endif  // SQLINK_SQL_TABLE_UDF_H_
