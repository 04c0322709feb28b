#include "table/table.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "common/status_macros.h"

namespace sqlink {

std::vector<Row> Table::partition(size_t p) const {
  std::vector<Row> rows;
  for (const ColumnBatch& chunk : partitions_[p]) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      rows.emplace_back();
      chunk.EmitRow(r, &rows.back());
    }
  }
  return rows;
}

size_t Table::TotalRows() const {
  size_t total = 0;
  for (const auto& chunks : partitions_) {
    for (const ColumnBatch& chunk : chunks) total += chunk.num_rows();
  }
  return total;
}

Status Table::AppendRow(size_t p, const Row& row) {
  std::vector<ColumnBatch>& chunks = partitions_[p];
  const bool fresh =
      chunks.empty() || chunks.back().num_rows() == kSqlBatchRows;
  if (fresh) chunks.emplace_back(schema_);
  const Status status = chunks.back().AppendRow(row);
  if (!status.ok() && fresh) chunks.pop_back();
  return status;
}

Status Table::AppendBatch(size_t p, ColumnBatch batch) {
  const size_t width = static_cast<size_t>(schema_->num_fields());
  if (batch.num_columns() != width) {
    return Status::InvalidArgument(
        "batch width " + std::to_string(batch.num_columns()) +
        " does not match table '" + name_ + "' width " +
        std::to_string(width));
  }
  for (size_t c = 0; c < width; ++c) {
    const Field& field = schema_->field(static_cast<int>(c));
    if (batch.column(c).type != field.type) {
      return Status::InvalidArgument(
          "batch column " + std::to_string(c) + " is " +
          std::string(DataTypeToString(batch.column(c).type)) +
          ", table column '" + field.name + "' is " +
          std::string(DataTypeToString(field.type)));
    }
  }
  const size_t n = batch.num_rows();
  if (n == 0) return Status::OK();
  std::vector<ColumnBatch>& chunks = partitions_[p];
  if (n <= kSqlBatchRows &&
      (chunks.empty() || chunks.back().num_rows() == kSqlBatchRows)) {
    batch.set_schema(schema_);
    chunks.push_back(std::move(batch));
    return Status::OK();
  }
  std::vector<int32_t> rows(std::min(n, kSqlBatchRows));
  for (size_t begin = 0; begin < n;) {
    if (chunks.empty() || chunks.back().num_rows() == kSqlBatchRows) {
      chunks.emplace_back(schema_);
    }
    ColumnBatch& last = chunks.back();
    const size_t take = std::min(n - begin, kSqlBatchRows - last.num_rows());
    std::iota(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(take),
              static_cast<int32_t>(begin));
    RETURN_IF_ERROR(last.AppendGather(batch, rows.data(), take));
    begin += take;
  }
  return Status::OK();
}

std::vector<Row> Table::GatherRows() const {
  std::vector<Row> all;
  all.reserve(TotalRows());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    std::vector<Row> rows = partition(p);
    std::move(rows.begin(), rows.end(), std::back_inserter(all));
  }
  return all;
}

}  // namespace sqlink
