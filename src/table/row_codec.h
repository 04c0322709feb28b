#ifndef SQLINK_TABLE_ROW_CODEC_H_
#define SQLINK_TABLE_ROW_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "table/column_batch.h"
#include "table/schema.h"
#include "table/value.h"

namespace sqlink {

/// Compact binary row encoding used by the streaming wire format, the
/// message broker and query results. Each value is a 1-byte tag (0 = NULL,
/// otherwise DataType+1) followed by the payload: bool as 1 byte, int64 as
/// signed varint, double as fixed 8 bytes, string length-prefixed.
///
/// A row-batch payload is a varint row count followed by that many encoded
/// rows: the stream's kData frame, one broker message, and the row section
/// of a query result. RowBatchEncoder builds one; DecodeRows reads one.
class RowCodec {
 public:
  /// Appends one encoded row (field count + values) to the buffer.
  static void Encode(const Row& row, std::string* out);
  /// Appends row `row` of `batch`, encoded straight from its typed columns:
  /// the same bytes as Encode of the boxed row (a DOUBLE column's cells stay
  /// doubles, whatever was appended into it).
  static void Encode(const ColumnBatch& batch, size_t row, std::string* out);

  /// Appends `rows` as one row-batch payload.
  static void EncodeRows(const std::vector<Row>& rows, std::string* out);
  static std::string EncodeRows(const std::vector<Row>& rows);

  /// Decodes one row-batch payload at the cursor into `*rows`, which is
  /// cleared first (its capacity is reused). The row count is bounded by
  /// the bytes left, so a hostile count cannot size the allocation.
  static Status DecodeRows(Decoder* decoder, std::vector<Row>* rows);
  /// Decodes a buffer holding exactly one row-batch payload.
  static Result<std::vector<Row>> DecodeRows(std::string_view data);
};

/// Accumulates rows into one row-batch payload when the row count is not
/// known up front (the sink's frames, the broker's messages).
class RowBatchEncoder {
 public:
  /// Adds row `row` of `batch`.
  void Add(const ColumnBatch& batch, size_t row) {
    ++rows_;
    RowCodec::Encode(batch, row, &body_);
  }
  bool empty() const { return rows_ == 0; }
  uint64_t rows() const { return rows_; }
  /// Encoded row bytes so far (the flush threshold).
  size_t bytes() const { return body_.size(); }

  /// Appends the payload to `*out` and resets for the next batch.
  void Flush(std::string* out);

 private:
  uint64_t rows_ = 0;
  std::string body_;
};

}  // namespace sqlink

#endif  // SQLINK_TABLE_ROW_CODEC_H_
