#ifndef SQLINK_SQL_EXPR_H_
#define SQLINK_SQL_EXPR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "table/column_batch.h"
#include "table/schema.h"
#include "table/value.h"

namespace sqlink {

/// Name-resolution scope: an ordered list of relations (qualifier + schema)
/// whose columns are concatenated into one flat input row, as seen by a
/// bound expression after joins.
class NameScope {
 public:
  void AddRelation(const std::string& qualifier, const SchemaPtr& schema);

  struct Resolution {
    int index = -1;  ///< Flat column index across all relations.
    DataType type = DataType::kString;
    std::string name;
  };

  /// Resolves `[qualifier.]column`. Errors on unknown or ambiguous names.
  Result<Resolution> Resolve(const std::string& qualifier,
                             const std::string& column) const;

  /// Which relation (index into AddRelation order) a flat column belongs to.
  int RelationOfColumn(int flat_index) const;

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int num_relations() const { return static_cast<int>(relations_.size()); }
  const std::string& relation_qualifier(int i) const {
    return relations_[static_cast<size_t>(i)].qualifier;
  }
  const SchemaPtr& relation_schema(int i) const {
    return relations_[static_cast<size_t>(i)].schema;
  }

  /// The concatenated schema (unqualified column names; duplicates allowed).
  SchemaPtr FlatSchema() const;

 private:
  struct Relation {
    std::string qualifier;
    SchemaPtr schema;
  };
  struct ColumnEntry {
    int relation = 0;
    std::string name;
    DataType type = DataType::kString;
  };
  std::vector<Relation> relations_;
  std::vector<ColumnEntry> columns_;
};

/// A compiled scalar expression: evaluates against a flat input row with SQL
/// three-valued logic (comparisons involving NULL yield NULL; AND/OR follow
/// Kleene logic). Thread-compatible: Evaluate is const and safe to call from
/// multiple workers concurrently.
class BoundExpr {
 public:
  virtual ~BoundExpr() = default;
  virtual Result<Value> Evaluate(const Row& row) const = 0;

  /// Vectorized evaluation: computes this expression for every row of
  /// `batch`, filling `*out` (replaced) with batch.num_rows() values of
  /// output_type(). Must agree with Evaluate row for row, including which
  /// rows are NULL and which inputs raise errors; the differential harness
  /// (tests/sql_differential_test.cc) enforces this. The base implementation
  /// boxes each row and calls Evaluate — nodes with typed kernels override.
  /// Nodes whose row semantics short-circuit (AND/OR) fall back to the boxed
  /// loop when eager evaluation of a branch errors, so an error Evaluate
  /// never reaches is not surfaced by EvaluateBatch either.
  virtual Status EvaluateBatch(const ColumnBatch& batch, Column* out) const;

  DataType output_type() const { return output_type_; }

 protected:
  explicit BoundExpr(DataType output_type) : output_type_(output_type) {}

 private:
  DataType output_type_;
};

using BoundExprPtr = std::shared_ptr<const BoundExpr>;

/// A scalar function (builtin or user-defined) callable from SQL
/// expressions — the engine's scalar-UDF extension point.
struct ScalarFunction {
  std::string name;
  /// Derives the output type from argument types; rejects bad signatures.
  std::function<Result<DataType>(const std::vector<DataType>&)> derive_type;
  /// Must be thread-safe: evaluated concurrently by all SQL workers.
  std::function<Result<Value>(const std::vector<Value>&)> evaluate;
};

/// Registry of scalar functions, keyed case-insensitively.
class ScalarFunctionRegistry {
 public:
  /// A registry pre-populated with builtins: UPPER, LOWER, LENGTH, ABS,
  /// CONCAT, COALESCE, CAST_DOUBLE, CAST_INT64, CAST_STRING.
  static std::shared_ptr<ScalarFunctionRegistry> WithBuiltins();

  Status Register(ScalarFunction function);
  const ScalarFunction* Lookup(const std::string& name) const;

 private:
  std::map<std::string, ScalarFunction> functions_;  // Lower-case name key.
};

/// Compiles an AST expression against the scope. Aggregate function names
/// (COUNT/SUM/MIN/MAX/AVG) are rejected here — the planner handles them.
Result<BoundExprPtr> BindExpression(const Expr& expr, const NameScope& scope,
                                    const ScalarFunctionRegistry& registry);

/// A bound reference to a flat input column by position (planner-internal
/// projections that must not depend on name resolution).
BoundExprPtr MakeColumnReference(int index, DataType type);

/// True when `value` is boolean TRUE (filter semantics: NULL and FALSE drop
/// the row).
inline bool IsTruthy(const Value& value) {
  return value.is_bool() && value.bool_value();
}

/// Whether `name` is one of the aggregate functions the planner recognizes.
bool IsAggregateFunctionName(const std::string& name);

}  // namespace sqlink

#endif  // SQLINK_SQL_EXPR_H_
