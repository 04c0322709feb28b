#ifndef SQLINK_SQL_EXECUTOR_H_
#define SQLINK_SQL_EXECUTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/byte_budget.h"
#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/result.h"
#include "sql/batch_iterator.h"
#include "sql/plan.h"
#include "sql/query_stats.h"
#include "table/schema.h"
#include "table/table.h"

namespace sqlink {

/// Parallel plan executor. Each of the n SQL workers runs a pipelined
/// chain of BatchIterator operators over its partition: chunk scans,
/// selection-vector filters, column-at-a-time projections and hash joins.
/// The one equi-join builds a single JoinIndex over the whole build side,
/// which every worker probes: the workers share one address space, so no
/// row is copied per worker or shuffled. Every operator's result is a Table
/// of chunks, one partition per worker, which a pipeline breaker's consumer
/// scans like a base table. DISTINCT, the aggregate and LIMIT consume their
/// child's batches directly; DISTINCT and the aggregate group each worker's
/// rows in a table of its own, then merge every group on the one worker its
/// hash routes it to. Only Sort boxes its input into rows (DESIGN.md §10).
/// A table UDF is one more batch operator: the worker pushes each batch of
/// its partition through the UDF's TableUdfPartition on its own thread and
/// hands out the batch the UDF appended to, so no row is boxed on the way
/// through; a streaming sink encodes its frames from the typed columns, and
/// its sender threads overlap the transfer with the upstream query work, as
/// the paper's insql+stream pipeline does. tests/sql_differential_test.cc
/// checks every result against a naive row-at-a-time oracle.
class Executor {
 public:
  Executor(int num_workers, ClusterPtr cluster, MetricsRegistry* metrics);

  /// Runs the plan and returns its result: an unnamed Table with one
  /// partition per worker.
  Result<Table> Execute(const PlanPtr& plan);

  /// Per-operator stats collection target. When set (and the plan carries
  /// node ids), every operator accumulates rows/batches/time/peak memory
  /// into the matching slot. Not owned; must outlive Execute().
  void set_query_stats(QueryStats* stats) { stats_ = stats; }
  /// Id of the tracked query (flows to table UDFs via TableUdfContext).
  void set_query_id(uint64_t query_id) { query_id_ = query_id; }
  /// Cooperative cancellation source for this query. Worker loops poll it
  /// between batches and blocking operators check it
  /// up front, so a cancelled query unwinds promptly without disturbing
  /// neighbors. Not owned; must outlive Execute(). Also flows to table
  /// UDFs via TableUdfContext.
  void set_cancellation(Cancellation* cancellation) {
    cancellation_ = cancellation;
  }
  /// Per-query spill quota, handed to table UDFs (the streaming sink wires
  /// it into its frame logs). May be null (no quota).
  void set_spill_budget(ByteBudgetPtr budget) {
    spill_budget_ = std::move(budget);
  }

  int num_workers() const { return num_workers_; }

 private:
  struct PipelineState;

  /// The stats slot for `plan`, or nullptr when collection is off or the
  /// plan was never numbered.
  OperatorActuals* NodeActuals(const PlanPtr& plan) const {
    return stats_ == nullptr ? nullptr : stats_->actuals(plan->node_id);
  }

  /// An empty result of `plan`: its output schema, one partition per
  /// worker.
  Table EmptyResult(const PlanPtr& plan) const;

  Result<Table> ExecuteNode(const PlanPtr& plan);
  Result<Table> ExecutePipeline(const PlanPtr& plan);
  Result<Table> ExecuteDistinct(const PlanPtr& plan);
  Result<Table> ExecuteAggregate(const PlanPtr& plan);
  Result<Table> ExecuteSort(const PlanPtr& plan);
  Result<Table> ExecuteLimit(const PlanPtr& plan);

  /// Input of a pipeline or blocking operator: prepares `child`, then every
  /// worker pulls its batch pipeline to the end, handing each batch to
  /// consume(worker, batch), which may move from it, and then calling
  /// finish(worker). Polls between batches.
  Status DrainBatches(const PlanPtr& child,
                      const std::function<Status(int, ColumnBatch*)>& consume,
                      const std::function<Status(int)>& finish);

  Status Prepare(const PlanPtr& plan, PipelineState* state);
  Result<BatchIteratorPtr> BuildBatchPipeline(const PlanPtr& plan, int worker,
                                              PipelineState* state);
  /// Operator construction for one node, without the stats wrapper.
  Result<BatchIteratorPtr> BuildBatchPipelineNode(const PlanPtr& plan,
                                                  int worker,
                                                  PipelineState* state);

  int num_workers_;
  ClusterPtr cluster_;
  MetricsRegistry* metrics_;
  QueryStats* stats_ = nullptr;
  uint64_t query_id_ = 0;
  Cancellation* cancellation_ = nullptr;
  ByteBudgetPtr spill_budget_;

  /// OK while the query is live; the cancellation status once cancelled.
  Status CheckCancelled() const {
    return cancellation_ == nullptr ? Status::OK() : cancellation_->Check();
  }
  /// The poll every worker loop runs between batches: fires the
  /// `sql.exec.batch` failpoint, then CheckCancelled().
  Status PollBatch() const;
};

}  // namespace sqlink

#endif  // SQLINK_SQL_EXECUTOR_H_
