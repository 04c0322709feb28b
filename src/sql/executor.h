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
#include "table/value.h"

namespace sqlink {

/// Rows of a query result, partitioned one slice per SQL worker.
struct PartitionedRows {
  SchemaPtr schema;
  std::vector<std::vector<Row>> partitions;

  size_t TotalRows() const {
    size_t total = 0;
    for (const auto& p : partitions) total += p.size();
    return total;
  }

  /// All rows concatenated (small results/tests).
  std::vector<Row> Gather() const {
    std::vector<Row> all;
    all.reserve(TotalRows());
    for (const auto& p : partitions) {
      all.insert(all.end(), p.begin(), p.end());
    }
    return all;
  }
};

/// Parallel plan executor. Each of the n SQL workers runs a pipelined
/// iterator chain over its partition; pipeline breakers (join builds,
/// repartition joins, DISTINCT, aggregation, sort, limit) materialize and
/// exchange rows between workers. Table UDFs stay pipelined: each worker
/// pumps its UDF on a dedicated thread through a bounded queue, so a
/// streaming-transfer UDF overlaps with the upstream query work exactly as
/// the paper's insql+stream pipeline does.
///
/// Two engine modes share the planner, Sort, Limit and the aggregate's
/// shuffle-and-merge phase. The row mode chains RowIterator operators; the
/// vectorized mode (default, gated by SQLINK_VECTORIZED_SQL) chains
/// BatchIterator operators over ColumnBatch with selection-vector filters
/// and gather-based joins, feeds batch-capable table UDFs columns directly,
/// and runs DISTINCT and the aggregate's per-worker phase on batches. Both
/// must produce identical results — tests/sql_differential_test.cc holds
/// them to it.
class Executor {
 public:
  /// Engine mode follows the SQLINK_VECTORIZED_SQL runtime flag.
  Executor(int num_workers, ClusterPtr cluster, MetricsRegistry* metrics);
  /// Engine mode forced by the caller (benchmarks, differential tests).
  Executor(int num_workers, ClusterPtr cluster, MetricsRegistry* metrics,
           bool vectorized);

  /// Runs the plan and returns its materialized, partitioned result.
  Result<PartitionedRows> Execute(const PlanPtr& plan);

  /// Per-operator stats collection target. When set (and the plan carries
  /// node ids), every operator accumulates rows/batches/time/peak memory
  /// into the matching slot. Not owned; must outlive Execute().
  void set_query_stats(QueryStats* stats) { stats_ = stats; }
  /// Id of the tracked query (flows to table UDFs via TableUdfContext).
  void set_query_id(uint64_t query_id) { query_id_ = query_id; }
  /// Cooperative cancellation source for this query. Worker loops poll it
  /// between batches (or every ~1k rows) and blocking operators check it
  /// up front, so a cancelled query unwinds promptly without disturbing
  /// neighbors. Not owned; must outlive Execute(). Also flows to table
  /// UDFs via TableUdfContext.
  void set_cancellation(Cancellation* cancellation) {
    cancellation_ = cancellation;
  }
  /// Per-query spill quota, handed to table UDFs (the streaming sink wires
  /// it into its spill queues). May be null (no quota).
  void set_spill_budget(ByteBudgetPtr budget) {
    spill_budget_ = std::move(budget);
  }

  int num_workers() const { return num_workers_; }
  bool vectorized() const { return vectorized_; }

 private:
  struct PipelineState;

  /// The stats slot for `plan`, or nullptr when collection is off or the
  /// plan was never numbered.
  OperatorActuals* NodeActuals(const PlanPtr& plan) const {
    return stats_ == nullptr ? nullptr : stats_->actuals(plan->node_id);
  }

  Result<PartitionedRows> ExecuteNode(const PlanPtr& plan);
  Result<PartitionedRows> ExecutePipeline(const PlanPtr& plan);
  Result<PartitionedRows> ExecuteDistinct(const PlanPtr& plan);
  Result<PartitionedRows> ExecuteDistinctVectorized(const PlanPtr& plan);
  Result<PartitionedRows> ExecuteAggregate(const PlanPtr& plan);
  /// Aggregate phase 1: each worker's groups as partial-state rows, one
  /// slice per worker. The row engine groups the materialized child rows;
  /// the vectorized engine folds the child's batches into per-worker group
  /// tables without boxing them. Phase 2 is shared.
  Result<std::vector<std::vector<Row>>> AggregatePartials(const PlanPtr& plan);
  Result<std::vector<std::vector<Row>>> AggregatePartialsVectorized(
      const PlanPtr& plan);
  Result<PartitionedRows> ExecuteSort(const PlanPtr& plan);
  Result<PartitionedRows> ExecuteLimit(const PlanPtr& plan);

  /// Sort-merge equi join: repartition both sides by key, sort each
  /// worker's slices, merge equal-key runs. Chosen by the planner's cost
  /// model when the build side would blow the hash-build memory budget.
  Result<PartitionedRows> ExecuteMergeJoin(const PlanPtr& plan);

  /// Vectorized input of a blocking operator: prepares `child`, then every
  /// worker pulls its batch pipeline to the end, handing each batch to
  /// consume(worker, batch) and then calling finish(worker). Polls between
  /// batches; the child's UDF epilogues run either way.
  Status DrainBatches(
      const PlanPtr& child,
      const std::function<Status(int, const ColumnBatch&)>& consume,
      const std::function<Status(int)>& finish);

  Status Prepare(const PlanPtr& plan, PipelineState* state);
  Result<RowIteratorPtr> BuildPipeline(const PlanPtr& plan, int worker,
                                       PipelineState* state);
  Result<BatchIteratorPtr> BuildBatchPipeline(const PlanPtr& plan, int worker,
                                              PipelineState* state);
  /// Operator construction for one node, without the stats wrapper.
  Result<RowIteratorPtr> BuildPipelineNode(const PlanPtr& plan, int worker,
                                           PipelineState* state);
  Result<BatchIteratorPtr> BuildBatchPipelineNode(const PlanPtr& plan,
                                                  int worker,
                                                  PipelineState* state);

  /// Hash-partitions rows by key columns into `num_workers_` slices.
  std::vector<std::vector<Row>> Repartition(std::vector<std::vector<Row>> input,
                                            const std::vector<int>& keys);

  int num_workers_;
  ClusterPtr cluster_;
  MetricsRegistry* metrics_;
  bool vectorized_;
  QueryStats* stats_ = nullptr;
  uint64_t query_id_ = 0;
  Cancellation* cancellation_ = nullptr;
  ByteBudgetPtr spill_budget_;

  /// OK while the query is live; the cancellation status once cancelled.
  Status CheckCancelled() const {
    return cancellation_ == nullptr ? Status::OK() : cancellation_->Check();
  }
  /// The poll every worker loop runs between batches (row mode: every ~1k
  /// rows): fires the `sql.exec.batch` failpoint, then CheckCancelled().
  Status PollBatch() const;
};

}  // namespace sqlink

#endif  // SQLINK_SQL_EXECUTOR_H_
