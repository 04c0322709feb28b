#ifndef SQLINK_TABLE_COLUMN_BATCH_H_
#define SQLINK_TABLE_COLUMN_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/string_dict.h"
#include "table/schema.h"
#include "table/value.h"

namespace sqlink {

/// Rows per ColumnBatch in the vectorized SQL pipelines and per Table chunk:
/// large enough to amortize the per-batch virtual dispatch, small enough to
/// stay cache resident. Also the batch-boundary size the golden-query corpus
/// probes (sizes 0, 1, kSqlBatchRows-1, kSqlBatchRows, kSqlBatchRows+1).
inline constexpr size_t kSqlBatchRows = 1024;

/// One column of a ColumnBatch: a typed contiguous vector plus a null
/// bitmap. Exactly one of the value vectors is populated, chosen by `type`;
/// string columns are dictionary-encoded (codes index `dict`). Null rows
/// carry a zero placeholder in the value vector so positions stay aligned.
struct Column {
  DataType type = DataType::kString;
  /// Bit r set => row r is NULL. Sized ceil(rows/64) words; bits past the
  /// batch's row count are kept zero.
  std::vector<uint64_t> null_words;
  std::vector<uint8_t> bools;    ///< kBool: 0/1 per row.
  std::vector<int64_t> ints;     ///< kInt64.
  std::vector<double> doubles;   ///< kDouble.
  std::vector<int32_t> codes;    ///< kString: dictionary id per row.
  StringDict dict;               ///< kString: distinct values of this column.

  bool IsNull(size_t row) const {
    return (null_words[row >> 6] >> (row & 63)) & 1;
  }
  void AppendNullBit(size_t row, bool is_null) {
    const size_t word = row >> 6;
    if (word >= null_words.size()) null_words.resize(word + 1, 0);
    if (is_null) null_words[word] |= uint64_t{1} << (row & 63);
  }
  bool has_nulls() const {
    for (const uint64_t w : null_words) {
      if (w != 0) return true;
    }
    return false;
  }
};

/// The value at `row` of a free-standing column, boxed. Row must be in
/// range; NULL rows box as Value::Null().
Value ColumnValueAt(const Column& col, size_t row);

/// Appends one boxed value at position `row` (the column's current row
/// count) with the same coercion rules as ColumnBatch::AppendRow: int64
/// widens into a double column, NULL is accepted anywhere, anything else
/// must match the column type. `column_name` only flavors error messages.
Status AppendColumnValue(Column* col, size_t row, const Value& v,
                         const std::string& column_name);

/// Gather-appends `n` rows of `src` (selected by `rows`) onto `dst`, which
/// already holds `dst_rows` rows of the same type. An empty `dst` takes a
/// copy of the source dictionary when it has at most `n` entries; otherwise
/// string codes are remapped, so a gather never holds more dictionary
/// entries than its destination needs plus `n`. It reserves exactly
/// `dst_rows + n` values, so a caller that appends to one column many times
/// reserves the total up front (ColumnBatch::Reserve); otherwise each append
/// reallocates the whole column.
void AppendColumnGather(Column* dst, size_t dst_rows, const Column& src,
                        const int32_t* rows, size_t n);

/// A batch of rows stored column by column: typed per-column vectors instead
/// of boxed Value rows. This is the unit the vectorized SQL operators work
/// on and the chunk a Table stores; FromRows/ToRows bridge the row-oriented
/// surfaces.
class ColumnBatch {
 public:
  ColumnBatch() = default;
  explicit ColumnBatch(SchemaPtr schema) { Reset(std::move(schema)); }

  /// Re-initializes to an empty batch of `schema`, keeping allocations of
  /// matching columns where possible.
  void Reset(SchemaPtr schema);

  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  bool empty() const { return num_rows_ == 0; }
  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }

  void Reserve(size_t rows);

  /// Relabels the batch with `schema`, whose column types must be this
  /// batch's (a scan hands out a table's chunks under the plan's schema).
  void set_schema(SchemaPtr schema) { schema_ = std::move(schema); }

  /// Appends one row. Value types must match the schema (int64 widens into
  /// a double column); NULL is accepted anywhere. On error the batch is
  /// unchanged.
  Status AppendRow(const Row& row);

  /// Gather-appends the `n` rows of `src` selected by `rows` (src indices,
  /// duplicates and arbitrary order allowed). Column types must match;
  /// string codes remap into this batch's dictionaries. The workhorse of the
  /// vectorized filter and join operators.
  Status AppendGather(const ColumnBatch& src, const int32_t* rows, size_t n);

  /// Sets the row count directly after filling column vectors in place; the
  /// caller guarantees every column holds `rows` values.
  void SetRowCountForDecode(size_t rows) { num_rows_ = rows; }

  /// The value at (row, col), boxed.
  Value ValueAt(size_t row, size_t col) const;

  /// Materializes row `row` into `*out` (cleared first).
  void EmitRow(size_t row, Row* out) const;

  static Result<ColumnBatch> FromRows(SchemaPtr schema,
                                      const std::vector<Row>& rows);
  std::vector<Row> ToRows() const;

 private:
  SchemaPtr schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace sqlink

#endif  // SQLINK_TABLE_COLUMN_BATCH_H_
