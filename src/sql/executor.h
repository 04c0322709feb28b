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
#include "table/value.h"

namespace sqlink {

/// Parallel plan executor. Each of the n SQL workers runs a pipelined
/// chain of BatchIterator operators over its partition: chunk scans,
/// selection-vector filters, column-at-a-time projections and hash joins
/// probing a JoinIndex over ColumnBatch. Every operator's result is a Table
/// of chunks, one partition per worker, which a pipeline breaker's consumer
/// scans like a base table. DISTINCT, the aggregate's per-worker phase and
/// LIMIT consume their child's batches directly; the aggregate's partial
/// states, Sort, the sort-merge join and the repartition join's shuffle box
/// their input into rows once (DESIGN.md §10). A table UDF is one more batch
/// operator: the worker pushes each row of its partition through the UDF's
/// TableUdfPartition on its own thread, and a streaming sink's sender
/// threads overlap the transfer with the upstream query work, as the
/// paper's insql+stream pipeline does. tests/sql_differential_test.cc
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
  /// Aggregate phase 1: each worker's groups as partial-state rows, one
  /// slice per worker, folded from the child's batches into per-worker
  /// group tables without boxing them.
  Result<std::vector<std::vector<Row>>> AggregatePartials(const PlanPtr& plan);
  Result<Table> ExecuteSort(const PlanPtr& plan);
  Result<Table> ExecuteLimit(const PlanPtr& plan);

  /// Sort-merge equi join: repartition both sides by key, sort each
  /// worker's slices, merge equal-key runs. Chosen by the planner's cost
  /// model when the build side would blow the hash-build memory budget.
  Result<Table> ExecuteMergeJoin(const PlanPtr& plan);

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

  /// Hash-partitions rows by key columns into `num_workers_` slices.
  std::vector<std::vector<Row>> Repartition(std::vector<std::vector<Row>> input,
                                            const std::vector<int>& keys);

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
