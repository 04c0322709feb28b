#include "table/column_batch.h"

#include "common/status_macros.h"

namespace sqlink {

Value ColumnValueAt(const Column& col, size_t row) {
  if (col.IsNull(row)) return Value::Null();
  switch (col.type) {
    case DataType::kBool:
      return Value::Bool(col.bools[row] != 0);
    case DataType::kInt64:
      return Value::Int64(col.ints[row]);
    case DataType::kDouble:
      return Value::Double(col.doubles[row]);
    case DataType::kString:
      return Value::String(std::string(col.dict[col.codes[row]]));
  }
  return Value::Null();
}

namespace {

/// The type check of AppendColumnValue, apart so a row can be checked whole
/// before any of its cells is appended.
Status CheckColumnValue(DataType type, const Value& v,
                        const std::string& column_name) {
  if (v.is_null()) return Status::OK();
  switch (type) {
    case DataType::kBool:
      if (v.is_bool()) return Status::OK();
      return Status::InvalidArgument("non-bool value in BOOL column '" +
                                     column_name + "'");
    case DataType::kInt64:
      if (v.is_int64()) return Status::OK();
      return Status::InvalidArgument("non-integer value in INT64 column '" +
                                     column_name + "'");
    case DataType::kDouble:
      if (v.is_double() || v.is_int64()) return Status::OK();
      return Status::InvalidArgument("non-numeric value in DOUBLE column '" +
                                     column_name + "'");
    case DataType::kString:
      if (v.is_string()) return Status::OK();
      return Status::InvalidArgument("non-string value in STRING column '" +
                                     column_name + "'");
  }
  return Status::OK();
}

/// Appends a value CheckColumnValue accepted.
void AppendCheckedValue(Column* col, size_t row, const Value& v) {
  const bool null = v.is_null();
  col->AppendNullBit(row, null);
  switch (col->type) {
    case DataType::kBool:
      col->bools.push_back(!null && v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      col->ints.push_back(null ? 0 : v.int64_value());
      break;
    case DataType::kDouble:
      if (null) {
        col->doubles.push_back(0);
      } else if (v.is_double()) {
        col->doubles.push_back(v.double_value());
      } else {
        col->doubles.push_back(static_cast<double>(v.int64_value()));
      }
      break;
    case DataType::kString:
      col->codes.push_back(null ? 0 : col->dict.GetOrAdd(v.string_value()));
      break;
  }
}

}  // namespace

Status AppendColumnValue(Column* col, size_t row, const Value& v,
                         const std::string& column_name) {
  RETURN_IF_ERROR(CheckColumnValue(col->type, v, column_name));
  AppendCheckedValue(col, row, v);
  return Status::OK();
}

void AppendColumnGather(Column* dst, size_t dst_rows, const Column& src,
                        const int32_t* rows, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst->AppendNullBit(dst_rows + i, src.IsNull(static_cast<size_t>(rows[i])));
  }
  switch (dst->type) {
    case DataType::kBool:
      dst->bools.reserve(dst->bools.size() + n);
      for (size_t i = 0; i < n; ++i) {
        dst->bools.push_back(src.bools[static_cast<size_t>(rows[i])]);
      }
      break;
    case DataType::kInt64:
      dst->ints.reserve(dst->ints.size() + n);
      for (size_t i = 0; i < n; ++i) {
        dst->ints.push_back(src.ints[static_cast<size_t>(rows[i])]);
      }
      break;
    case DataType::kDouble:
      dst->doubles.reserve(dst->doubles.size() + n);
      for (size_t i = 0; i < n; ++i) {
        dst->doubles.push_back(src.doubles[static_cast<size_t>(rows[i])]);
      }
      break;
    case DataType::kString:
      dst->codes.reserve(dst->codes.size() + n);
      if (dst->codes.empty() && dst->dict.size() == 0 &&
          static_cast<size_t>(src.dict.size()) <= n) {
        // Fresh destination, small dictionary: copy it wholesale and gather
        // codes directly (unreferenced entries are harmless).
        dst->dict = src.dict;
        for (size_t i = 0; i < n; ++i) {
          dst->codes.push_back(src.codes[static_cast<size_t>(rows[i])]);
        }
      } else if (n < static_cast<size_t>(src.dict.size())) {
        // Few rows against a big dictionary (single-row dedup inserts, a
        // join's matches in a large build batch): remap only the referenced
        // entries instead of copying the whole dict.
        for (size_t i = 0; i < n; ++i) {
          const size_t r = static_cast<size_t>(rows[i]);
          dst->codes.push_back(
              src.IsNull(r) ? 0 : dst->dict.GetOrAdd(src.dict[src.codes[r]]));
        }
      } else {
        std::vector<int32_t> remap(static_cast<size_t>(src.dict.size()));
        for (int32_t id = 0; id < src.dict.size(); ++id) {
          remap[static_cast<size_t>(id)] = dst->dict.GetOrAdd(src.dict[id]);
        }
        for (size_t i = 0; i < n; ++i) {
          const size_t r = static_cast<size_t>(rows[i]);
          const int32_t code = src.codes[r];
          dst->codes.push_back(
              !src.IsNull(r) && static_cast<size_t>(code) < remap.size()
                  ? remap[static_cast<size_t>(code)]
                  : 0);
        }
      }
      break;
  }
}

void ColumnBatch::Reset(SchemaPtr schema) {
  schema_ = std::move(schema);
  const size_t n =
      schema_ != nullptr ? static_cast<size_t>(schema_->num_fields()) : 0;
  columns_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    Column& col = columns_[i];
    col.type = schema_->field(static_cast<int>(i)).type;
    col.null_words.clear();
    col.bools.clear();
    col.ints.clear();
    col.doubles.clear();
    col.codes.clear();
    col.dict.Clear();
  }
  num_rows_ = 0;
}

void ColumnBatch::Reserve(size_t rows) {
  for (Column& col : columns_) {
    col.null_words.reserve((rows + 63) / 64);
    switch (col.type) {
      case DataType::kBool:
        col.bools.reserve(rows);
        break;
      case DataType::kInt64:
        col.ints.reserve(rows);
        break;
      case DataType::kDouble:
        col.doubles.reserve(rows);
        break;
      case DataType::kString:
        col.codes.reserve(rows);
        break;
    }
  }
}

Status ColumnBatch::AppendRow(const Row& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) +
        " does not match batch width " + std::to_string(columns_.size()));
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    RETURN_IF_ERROR(CheckColumnValue(columns_[i].type, row[i],
                                     schema_->field(static_cast<int>(i)).name));
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    AppendCheckedValue(&columns_[i], num_rows_, row[i]);
  }
  ++num_rows_;
  return Status::OK();
}

Status ColumnBatch::AppendGather(const ColumnBatch& src, const int32_t* rows,
                                 size_t n) {
  if (columns_.size() != src.columns_.size()) {
    return Status::InvalidArgument("batch width mismatch in AppendGather");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type != src.columns_[i].type) {
      return Status::InvalidArgument("column type mismatch in AppendGather");
    }
    AppendColumnGather(&columns_[i], num_rows_, src.columns_[i], rows, n);
  }
  num_rows_ += n;
  return Status::OK();
}

Value ColumnBatch::ValueAt(size_t row, size_t col) const {
  return ColumnValueAt(columns_[col], row);
}

void ColumnBatch::EmitRow(size_t row, Row* out) const {
  out->clear();
  out->reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    out->push_back(ValueAt(row, i));
  }
}

Result<ColumnBatch> ColumnBatch::FromRows(SchemaPtr schema,
                                          const std::vector<Row>& rows) {
  if (schema == nullptr) {
    return Status::InvalidArgument("ColumnBatch needs a schema");
  }
  ColumnBatch batch(std::move(schema));
  batch.Reserve(rows.size());
  for (const Row& row : rows) {
    RETURN_IF_ERROR(batch.AppendRow(row));
  }
  return batch;
}

std::vector<Row> ColumnBatch::ToRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    Row row;
    EmitRow(r, &row);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace sqlink
