#ifndef SQLINK_SQL_PLAN_H_
#define SQLINK_SQL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "sql/expr.h"
#include "sql/table_udf.h"
#include "table/table.h"

namespace sqlink {

enum class PlanKind : int {
  kScan,        // Base-table partitions.
  kFilter,      // Predicate over child rows.
  kProject,     // Expression list over child rows.
  kHashJoin,    // Equi hash join, build side broadcast to every worker.
  kDistinct,    // Global duplicate elimination.
  kAggregate,   // Two-phase grouped aggregation.
  kSort,        // Global sort (gathers to one partition).
  kLimit,       // Global row limit (gathers to one partition).
  kTableUdf,    // Parallel table UDF, pipelined per worker.
  kMaterialized // Pre-computed partitions (plan reuse, caches).
};

enum class AggFunc : int { kCountStar, kCount, kSum, kMin, kMax, kAvg };

struct AggregateSpec {
  AggFunc func = AggFunc::kCountStar;
  BoundExprPtr argument;  // Null for COUNT(*).
  std::string output_name;
  DataType output_type = DataType::kInt64;
};

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// A bound (executable) plan node. One struct with a kind tag — the set of
/// operators is small and closed, and the executor dispatches on kind.
struct PlanNode {
  PlanKind kind = PlanKind::kScan;
  SchemaPtr output_schema;
  std::vector<PlanPtr> children;

  /// Crude cardinality estimate (EXPLAIN's est and cost, q-error feedback).
  double estimated_rows = 0;

  /// Pre-order id stamped by AssignPlanNodeIds (sql/query_stats.h); keys
  /// this node's slot in the per-query stats tree. -1 = not numbered.
  int node_id = -1;

  // kScan / kMaterialized.
  TablePtr table;

  // kFilter (also join residual).
  BoundExprPtr predicate;

  // kProject.
  std::vector<BoundExprPtr> projections;

  // kHashJoin: children[0] = probe (left), children[1] = build (right).
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  BoundExprPtr residual;  // Over the concatenated row; may be null.

  // kAggregate.
  std::vector<BoundExprPtr> group_by;
  std::vector<AggregateSpec> aggregates;

  // kSort.
  std::vector<int> sort_keys;
  std::vector<bool> sort_descending;

  // kLimit.
  int64_t limit = -1;

  // kTableUdf.
  std::string udf_name;
  TableUdfPtr udf;            // Fresh instance bound by the planner.
  std::vector<Value> udf_args;

  /// Single-line operator tree rendering for tests and EXPLAIN-style output.
  std::string ToString() const;
};

/// Pretty-prints a plan tree with indentation.
std::string PlanTreeToString(const PlanPtr& plan, int indent = 0);

/// EXPLAIN rendering: the plan tree with, per node, the planner's estimated
/// cardinality and cumulative cost (C_out: the sum of estimated rows over
/// the node's subtree).
std::string ExplainPlanText(const PlanPtr& plan);

}  // namespace sqlink

#endif  // SQLINK_SQL_PLAN_H_
