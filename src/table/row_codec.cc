#include "table/row_codec.h"

#include "common/status_macros.h"

namespace sqlink {

namespace {
constexpr unsigned char kTagNull = 0;
constexpr unsigned char kTagBool = 1;
constexpr unsigned char kTagInt64 = 2;
constexpr unsigned char kTagDouble = 3;
constexpr unsigned char kTagString = 4;

/// Decodes one row from the cursor into `*row`, which is empty.
Status DecodeRow(Decoder* decoder, Row* row) {
  auto count = decoder->GetCount(/*min_element_bytes=*/1);  // A NULL tag.
  if (!count.ok()) return count.status();
  row->reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto tag = decoder->GetByte();
    if (!tag.ok()) return tag.status();
    switch (*tag) {
      case kTagNull:
        row->push_back(Value::Null());
        break;
      case kTagBool: {
        auto b = decoder->GetByte();
        if (!b.ok()) return b.status();
        row->push_back(Value::Bool(*b != 0));
        break;
      }
      case kTagInt64: {
        auto v = decoder->GetVarint64Signed();
        if (!v.ok()) return v.status();
        row->push_back(Value::Int64(*v));
        break;
      }
      case kTagDouble: {
        auto v = decoder->GetDouble();
        if (!v.ok()) return v.status();
        row->push_back(Value::Double(*v));
        break;
      }
      case kTagString: {
        auto v = decoder->GetLengthPrefixed();
        if (!v.ok()) return v.status();
        row->push_back(Value::String(std::string(*v)));
        break;
      }
      default:
        return Status::DataLoss("unknown value tag " + std::to_string(*tag));
    }
  }
  return Status::OK();
}

}  // namespace

void RowCodec::Encode(const Row& row, std::string* out) {
  PutVarint64(out, row.size());
  for (const Value& v : row) {
    if (v.is_null()) {
      out->push_back(static_cast<char>(kTagNull));
    } else if (v.is_bool()) {
      out->push_back(static_cast<char>(kTagBool));
      out->push_back(v.bool_value() ? 1 : 0);
    } else if (v.is_int64()) {
      out->push_back(static_cast<char>(kTagInt64));
      PutVarint64Signed(out, v.int64_value());
    } else if (v.is_double()) {
      out->push_back(static_cast<char>(kTagDouble));
      PutDouble(out, v.double_value());
    } else {
      out->push_back(static_cast<char>(kTagString));
      PutLengthPrefixed(out, v.string_value());
    }
  }
}

void RowCodec::Encode(const ColumnBatch& batch, size_t row, std::string* out) {
  PutVarint64(out, batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const Column& col = batch.column(c);
    if (col.IsNull(row)) {
      out->push_back(static_cast<char>(kTagNull));
      continue;
    }
    switch (col.type) {
      case DataType::kBool:
        out->push_back(static_cast<char>(kTagBool));
        out->push_back(col.bools[row] != 0 ? 1 : 0);
        break;
      case DataType::kInt64:
        out->push_back(static_cast<char>(kTagInt64));
        PutVarint64Signed(out, col.ints[row]);
        break;
      case DataType::kDouble:
        out->push_back(static_cast<char>(kTagDouble));
        PutDouble(out, col.doubles[row]);
        break;
      case DataType::kString:
        out->push_back(static_cast<char>(kTagString));
        PutLengthPrefixed(out, col.dict[col.codes[row]]);
        break;
    }
  }
}

void RowCodec::EncodeRows(const std::vector<Row>& rows, std::string* out) {
  PutVarint64(out, rows.size());
  for (const Row& row : rows) Encode(row, out);
}

std::string RowCodec::EncodeRows(const std::vector<Row>& rows) {
  std::string out;
  // Pre-size with tag + ~8 payload bytes per value (strings excluded): the
  // common numeric case then appends without doubling-growth copies.
  size_t estimate = 10;
  for (const Row& row : rows) estimate += 2 + row.size() * 9;
  out.reserve(estimate);
  EncodeRows(rows, &out);
  return out;
}

Status RowCodec::DecodeRows(Decoder* decoder, std::vector<Row>* rows) {
  rows->clear();
  // An empty row encodes as one byte (its zero field count).
  auto count = decoder->GetCount(/*min_element_bytes=*/1);
  if (!count.ok()) return count.status();
  rows->reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    // Each row is decoded where it will live: no Result<Row> to move out.
    RETURN_IF_ERROR(DecodeRow(decoder, &rows->emplace_back()));
  }
  return Status::OK();
}

Result<std::vector<Row>> RowCodec::DecodeRows(std::string_view data) {
  Decoder decoder(data);
  std::vector<Row> rows;
  Status status = DecodeRows(&decoder, &rows);
  if (!status.ok()) return status;
  return rows;
}

void RowBatchEncoder::Flush(std::string* out) {
  PutVarint64(out, rows_);
  out->append(body_);
  rows_ = 0;
  body_.clear();
}

}  // namespace sqlink
