#ifndef SQLINK_SQL_PLANNER_H_
#define SQLINK_SQL_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/expr.h"
#include "sql/plan.h"
#include "sql/table_udf.h"

namespace sqlink {

/// Turns a parsed SELECT into an executable plan:
///  - FROM entries become Scan / TableUdf / subquery plans;
///  - single-relation WHERE conjuncts are pushed below joins;
///  - comma joins become left-deep equi joins keyed on the equality
///    conjuncts that connect the sides, in FROM order, each a hash join
///    whose build side (the right input) is broadcast to every worker;
///  - catalog statistics (NDV, null fractions) estimate each node's rows
///    for EXPLAIN and the q-error feedback;
///  - GROUP BY / aggregate select lists become a two-phase Aggregate;
///  - DISTINCT / ORDER BY / LIMIT become their operators.
class Planner {
 public:
  Planner(const Catalog* catalog, const ScalarFunctionRegistry* scalars,
          const TableUdfRegistry* table_udfs, int num_partitions);

  Result<PlanPtr> PlanSelect(const SelectStmt& stmt);

 private:
  struct RelationPlan {
    PlanPtr plan;
    NameScope scope;  // Relations in flat-row column order.
    /// Per-column stats aligned with the flat schema; empty when the
    /// source has no catalog stats (UDF outputs, subqueries).
    std::vector<ColumnStats> column_stats;
  };

  Result<RelationPlan> PlanTableRef(const TableRef& ref);
  Result<RelationPlan> PlanFromWhere(const SelectStmt& stmt);

  /// Estimated fraction of rows a WHERE conjunct keeps, from column stats:
  /// `=` against a literal keeps 1/NDV, IS [NOT] NULL keeps the null
  /// fraction, ranges keep 1/3, AND multiplies, OR adds minus the overlap.
  double EstimateSelectivity(const Expr& expr, const NameScope& scope,
                             const std::vector<ColumnStats>& stats) const;

  /// Evaluates a constant scalar expression (UDF literal arguments).
  Result<Value> EvaluateConstant(const Expr& expr);

  const Catalog* catalog_;
  const ScalarFunctionRegistry* scalars_;
  const TableUdfRegistry* table_udfs_;
  int num_partitions_;
};

}  // namespace sqlink

#endif  // SQLINK_SQL_PLANNER_H_
