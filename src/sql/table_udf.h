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
#include "sql/row_iterator.h"
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

/// A parallel table UDF — the paper's extensibility mechanism (§2, §3).
///
/// One instance is created per query execution. Bind() runs once on the
/// coordinator thread to derive the output schema; ProcessPartition() then
/// runs once per SQL worker, concurrently, consuming that worker's partition
/// of the input relation and pushing output rows. Finish() runs once after
/// all workers complete (cleanup, summary emission is not supported there).
///
/// Implementations must make ProcessPartition thread-safe across workers;
/// per-job shared state (e.g. a streaming coordinator handshake) lives in
/// the instance and is synchronized by the implementation.
class TableUdf {
 public:
  virtual ~TableUdf() = default;

  /// Derives the output schema. `input_schema` is null for source UDFs
  /// invoked without a relation argument. `args` are the literal scalar
  /// arguments of the call.
  virtual Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                                 const std::vector<Value>& args) = 0;

  /// Processes one worker's partition. `input` is null for source UDFs.
  virtual Status ProcessPartition(const TableUdfContext& context,
                                  RowIterator* input, RowSink* output) = 0;

  /// Runs once after all workers returned (success or failure).
  virtual Status Finish() { return Status::OK(); }
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
