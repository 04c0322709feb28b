#ifndef SQLINK_TRANSFORM_UDFS_H_
#define SQLINK_TRANSFORM_UDFS_H_

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "sql/engine.h"
#include "sql/table_udf.h"
#include "transform/coding.h"

namespace sqlink {

/// Phase 1 of distributed recoding (§2.1): each SQL worker scans its
/// partition once and emits the *locally* distinct (colname, colval) pairs
/// of every requested categorical column — one scan for all columns, the
/// advantage the paper claims over one SQL DISTINCT query per column.
///
/// SQL: TABLE(recode_local_distinct((<query>), 'gender,abandoned'))
/// Output: (colname STRING, colval STRING). NULLs are skipped (the final
/// recoding join drops NULL categories regardless).
class RecodeLocalDistinctUdf final : public TableUdf {
 public:
  Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                         const std::vector<Value>& args) override;
  Result<TableUdfPartitionPtr> Open(const TableUdfContext& context) override;

 private:
  class Partition;

  std::vector<int> column_indices_;
  std::vector<std::string> column_names_;
};

/// Phase 2 tail of distributed recoding: assigns consecutive recode values
/// starting at 1 to the globally distinct (colname, colval) pairs. The
/// input must be gathered and sorted (the rewriter adds ORDER BY, whose
/// sort collects all rows on one worker) so codes are deterministic; a
/// scattered input is rejected.
///
/// SQL: TABLE(recode_assign((SELECT DISTINCT ... ORDER BY colname, colval)))
/// Output: (colname, colval, recodeval INT64).
class RecodeAssignUdf final : public TableUdf {
 public:
  Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                         const std::vector<Value>& args) override;
  Result<TableUdfPartitionPtr> Open(const TableUdfContext& context) override;

 private:
  class Partition;

  std::atomic<int> workers_with_data_{0};
};

/// Applies a coding scheme (§2.2) to already-recoded INT64 columns: each
/// worker scans its partition once, replacing every coded column with its
/// generated feature columns. One UDF class serves dummy, effect and
/// orthogonal coding.
///
/// SQL: TABLE(dummy_code((<query>), 'gender=F|M,abandoned:2'))
class CodeApplyUdf final : public TableUdf {
 public:
  explicit CodeApplyUdf(CodingScheme scheme) : scheme_(scheme) {}

  Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                         const std::vector<Value>& args) override;
  Result<TableUdfPartitionPtr> Open(const TableUdfContext& context) override;

 private:
  class Partition;

  struct BoundColumn {
    int input_index = -1;
    int cardinality = 0;
    std::vector<std::vector<double>> matrix;  // Level -> generated values.
  };

  CodingScheme scheme_;
  SchemaPtr input_schema_;
  // Per input column: -1 = copy through, else index into coded_.
  std::vector<int> dispatch_;
  std::vector<BoundColumn> coded_;
};

/// Registers the In-SQL transformation UDFs on an engine:
/// recode_local_distinct, recode_assign, dummy_code, effect_code,
/// orthogonal_code. Idempotent.
Status RegisterTransformUdfs(SqlEngine* engine);

}  // namespace sqlink

#endif  // SQLINK_TRANSFORM_UDFS_H_
