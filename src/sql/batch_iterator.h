#ifndef SQLINK_SQL_BATCH_ITERATOR_H_
#define SQLINK_SQL_BATCH_ITERATOR_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "table/column_batch.h"
#include "table/schema.h"

namespace sqlink {

/// Rows per ColumnBatch in the vectorized SQL pipelines: large enough to
/// amortize the per-batch virtual dispatch, small enough to stay cache
/// resident. Also the batch-boundary size the golden-query corpus probes
/// (sizes 0, 1, kSqlBatchRows-1, kSqlBatchRows, kSqlBatchRows+1).
inline constexpr size_t kSqlBatchRows = 1024;

/// Pull-based columnar operator interface of the SQL executor: Next fills
/// `*out` (contents replaced) with the next batch and returns false at end
/// of stream. Emitted batches are non-empty.
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;
  virtual Result<bool> Next(ColumnBatch* out) = 0;
};

using BatchIteratorPtr = std::unique_ptr<BatchIterator>;

/// Scan leaf: slices a materialized row partition into batches. Borrows the
/// rows — the caller keeps them alive for the iterator's lifetime.
class RowVectorBatchIterator final : public BatchIterator {
 public:
  RowVectorBatchIterator(const std::vector<Row>* rows, SchemaPtr schema)
      : rows_(rows), schema_(std::move(schema)) {}
  Result<bool> Next(ColumnBatch* out) override;

 private:
  const std::vector<Row>* rows_;
  SchemaPtr schema_;
  size_t pos_ = 0;
};

/// A batch stream with no rows.
class EmptyBatchIterator final : public BatchIterator {
 public:
  Result<bool> Next(ColumnBatch*) override { return false; }
};

}  // namespace sqlink

#endif  // SQLINK_SQL_BATCH_ITERATOR_H_
