#ifndef SQLINK_SQL_ENGINE_H_
#define SQLINK_SQL_ENGINE_H_

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "common/metrics.h"
#include "common/result.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/plan.h"
#include "sql/planner.h"
#include "sql/query_registry.h"
#include "sql/query_stats.h"
#include "sql/table_udf.h"
#include "table/table.h"

namespace sqlink {

/// Per-query execution options supplied by the serving layer: cooperative
/// cancellation, the spill quota carved from the admission memory pool, and
/// the submitting tenant (recorded in the QueryRegistry). Defaults mean
/// "untracked standalone query" — not cancellable, unlimited spill.
struct QueryOptions {
  Cancellation* cancellation = nullptr;  ///< Not owned; outlives the query.
  ByteBudgetPtr spill_budget;            ///< Null = unlimited.
  std::string tenant;                    ///< "" = no tenant attribution.
};

/// The "big SQL system": a partitioned, multi-worker SQL engine with UDF
/// extensibility. One SQL worker per cluster node, as in the paper's
/// testbed. This is the substrate the paper's In-SQL transformations and
/// streaming-transfer UDFs plug into.
///
/// Typical use:
///   auto engine = SqlEngine::Make(cluster);
///   engine->catalog()->RegisterTable(carts);
///   ASSIGN_OR_RETURN(auto result, engine->ExecuteSql(
///       "SELECT U.age, U.gender, C.amount, C.abandoned "
///       "FROM carts C, users U "
///       "WHERE C.userid = U.userid AND U.country = 'USA'"));
class SqlEngine {
 public:
  static std::shared_ptr<SqlEngine> Make(ClusterPtr cluster,
                                         MetricsRegistry* metrics = nullptr);

  /// Parses, plans and runs a statement; the result table is named
  /// `result_name` (default "result") but not registered in the catalog.
  ///
  /// `EXPLAIN select` returns a one-column table of plan-text lines
  /// (estimated rows + cumulative cost per node) without executing;
  /// `EXPLAIN ANALYZE select` executes the query and returns the plan with
  /// estimates and actuals side by side. Every executed statement is
  /// tracked: per-operator stats flow to the QueryRegistry (the /queries
  /// ops endpoint), per-node q-errors feed the sql.planner.* metrics, and
  /// queries slower than SQLINK_SLOW_QUERY_MS log a one-line record.
  Result<TablePtr> ExecuteSql(const std::string& sql,
                              const std::string& result_name = "result");

  /// ExecuteSql with serving-layer options: cancellation (checked by worker
  /// loops and blocking operators, propagated to table UDFs), a per-query
  /// spill budget, and tenant attribution in the QueryRegistry.
  Result<TablePtr> ExecuteSql(const std::string& sql,
                              const std::string& result_name,
                              const QueryOptions& options);

  /// Runs a pre-built statement/plan.
  Result<TablePtr> ExecuteStmt(const SelectStmt& stmt,
                               const std::string& result_name = "result");
  Result<TablePtr> ExecutePlan(const PlanPtr& plan,
                               const std::string& result_name = "result");

  /// Plans without executing (EXPLAIN, rewriter integration, tests).
  Result<PlanPtr> Plan(const std::string& sql);
  Result<PlanPtr> PlanStmt(const SelectStmt& stmt);

  /// The plan tree rendered as indented text with per-node estimated rows
  /// and cumulative cost (what `EXPLAIN select` prints).
  Result<std::string> ExplainSql(const std::string& sql);

  /// Executes and registers the result as a catalog table (materialized
  /// view storage for the §5 caches). Replaces an existing table.
  Result<TablePtr> MaterializeSql(const std::string& sql,
                                  const std::string& table_name);

  /// Creates an empty partitioned table shaped for this engine.
  TablePtr MakeTable(const std::string& name, SchemaPtr schema) const;

  Catalog* catalog() { return &catalog_; }
  const Catalog* catalog() const { return &catalog_; }
  ScalarFunctionRegistry* scalar_udfs() { return scalar_udfs_.get(); }
  TableUdfRegistry* table_udfs() { return &table_udfs_; }
  int num_workers() const { return num_workers_; }
  const ClusterPtr& cluster() const { return cluster_; }
  MetricsRegistry* metrics() const { return metrics_; }

 private:
  SqlEngine(ClusterPtr cluster, MetricsRegistry* metrics);

  /// The tracked execution path every query goes through: numbers the plan,
  /// registers a QueryRecord, runs with stats collection, feeds q-error
  /// metrics and the slow-query log, finalizes the record. `stats_out`
  /// (optional) receives the filled stats tree (EXPLAIN ANALYZE).
  Result<TablePtr> RunTracked(const PlanPtr& plan, const std::string& sql,
                              const std::string& result_name,
                              std::shared_ptr<QueryStats>* stats_out,
                              const QueryOptions& options = {});

  /// A one-STRING-column table holding `text` split into lines (the result
  /// shape of EXPLAIN / EXPLAIN ANALYZE).
  TablePtr MakePlanTextTable(const std::string& text,
                             const std::string& result_name) const;

  ClusterPtr cluster_;
  int num_workers_;
  MetricsRegistry* metrics_;
  Catalog catalog_;
  std::shared_ptr<ScalarFunctionRegistry> scalar_udfs_;
  TableUdfRegistry table_udfs_;
};

using SqlEnginePtr = std::shared_ptr<SqlEngine>;

}  // namespace sqlink

#endif  // SQLINK_SQL_ENGINE_H_
