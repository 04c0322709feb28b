#include "sql/batch_iterator.h"

#include "common/status_macros.h"

namespace sqlink {

Result<bool> RowVectorBatchIterator::Next(ColumnBatch* out) {
  const size_t total = rows_->size();
  if (pos_ >= total) return false;
  const size_t take = std::min(kSqlBatchRows, total - pos_);
  out->Reset(schema_);
  out->Reserve(take);
  for (size_t i = 0; i < take; ++i) {
    RETURN_IF_ERROR(out->AppendRow((*rows_)[pos_ + i]));
  }
  pos_ += take;
  return true;
}

}  // namespace sqlink
