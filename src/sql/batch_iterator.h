#ifndef SQLINK_SQL_BATCH_ITERATOR_H_
#define SQLINK_SQL_BATCH_ITERATOR_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "table/column_batch.h"
#include "table/schema.h"

namespace sqlink {

/// Pull-based columnar operator interface of the SQL executor: Next fills
/// `*out` (contents replaced) with the next batch and returns false at end
/// of stream. Emitted batches are non-empty.
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;
  virtual Result<bool> Next(ColumnBatch* out) = 0;
};

using BatchIteratorPtr = std::unique_ptr<BatchIterator>;

/// Scan leaf: hands out a partition's chunks (Table's layout), one per
/// Next, each copied into `*out` under `schema`. Borrows the chunks — the
/// caller keeps them alive for the iterator's lifetime.
class ChunkScanIterator final : public BatchIterator {
 public:
  ChunkScanIterator(const std::vector<ColumnBatch>* chunks, SchemaPtr schema)
      : chunks_(chunks), schema_(std::move(schema)) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (pos_ == chunks_->size()) return false;
    *out = (*chunks_)[pos_++];
    out->set_schema(schema_);
    return true;
  }

 private:
  const std::vector<ColumnBatch>* chunks_;
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
