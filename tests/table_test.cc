#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "table/column_batch.h"
#include "table/csv.h"
#include "table/pretty_print.h"
#include "table/row_codec.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/value.h"

namespace sqlink {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "");
  EXPECT_EQ(v, Value::Null());
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value::Int64(7).int64_value(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("hi").string_value(), "hi");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int64(7).type(), DataType::kInt64);
}

TEST(ValueTest, AsDoubleWidens) {
  EXPECT_DOUBLE_EQ(*Value::Int64(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(*Value::Double(3.5).AsDouble(), 3.5);
  EXPECT_TRUE(Value::String("x").AsDouble().status().IsInvalidArgument());
}

TEST(ValueTest, OrderingNullFirst) {
  EXPECT_TRUE(Value::Null() < Value::Int64(0));
  EXPECT_TRUE(Value::Int64(1) < Value::Int64(2));
  EXPECT_TRUE(Value::String("a") < Value::String("b"));
  // Cross-numeric comparison is numeric.
  EXPECT_TRUE(Value::Int64(1) < Value::Double(1.5));
  EXPECT_TRUE(Value::Double(0.5) < Value::Int64(1));
}

TEST(ValueTest, ParseByType) {
  EXPECT_EQ(*Value::Parse("42", DataType::kInt64), Value::Int64(42));
  EXPECT_EQ(*Value::Parse("2.5", DataType::kDouble), Value::Double(2.5));
  EXPECT_EQ(*Value::Parse("hi", DataType::kString), Value::String("hi"));
  EXPECT_EQ(*Value::Parse("true", DataType::kBool), Value::Bool(true));
  EXPECT_EQ(*Value::Parse("", DataType::kInt64), Value::Null());
  EXPECT_TRUE(Value::Parse("xyz", DataType::kInt64).status().IsParseError());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_EQ(Value::Int64(5).Hash(), Value::Int64(5).Hash());
}

TEST(DataTypeTest, NamesRoundTrip) {
  for (DataType t : {DataType::kBool, DataType::kInt64, DataType::kDouble,
                     DataType::kString}) {
    auto parsed = DataTypeFromString(DataTypeToString(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_EQ(*DataTypeFromString("varchar"), DataType::kString);
  EXPECT_EQ(*DataTypeFromString("bigint"), DataType::kInt64);
  EXPECT_TRUE(DataTypeFromString("blob").status().IsParseError());
}

TEST(SchemaTest, LookupCaseInsensitive) {
  Schema schema({{"age", DataType::kInt64}, {"Gender", DataType::kString}});
  EXPECT_EQ(schema.FieldIndex("AGE"), 0);
  EXPECT_EQ(schema.FieldIndex("gender"), 1);
  EXPECT_EQ(schema.FieldIndex("height"), -1);
  EXPECT_TRUE(schema.RequireField("height").status().IsNotFound());
  EXPECT_EQ(*schema.RequireField("gender"), 1);
}

TEST(SchemaTest, ToStringRendersTypes) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(schema.ToString(), "a:INT64, b:DOUBLE");
}

TEST(TableTest, PartitionedAppendAndGather) {
  auto schema = Schema::Make({{"x", DataType::kInt64}});
  Table table("t", schema, 4);
  for (int i = 0; i < 10; ++i) {
    table.AppendRow(static_cast<size_t>(i % 4), Row{Value::Int64(i)});
  }
  EXPECT_EQ(table.TotalRows(), 10u);
  EXPECT_EQ(table.partition(0).size(), 3u);
  EXPECT_EQ(table.GatherRows().size(), 10u);
}

/// Fails unless every chunk holds 1 to kSqlBatchRows rows and every chunk
/// but a partition's last is full.
void ExpectChunkInvariant(const Table& table) {
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    const std::vector<ColumnBatch>& chunks = table.chunks(p);
    for (size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_GE(chunks[i].num_rows(), 1u)
          << "partition " << p << " chunk " << i;
      if (i + 1 < chunks.size()) {
        EXPECT_EQ(chunks[i].num_rows(), kSqlBatchRows)
            << "partition " << p << " chunk " << i;
      } else {
        EXPECT_LE(chunks[i].num_rows(), kSqlBatchRows) << "partition " << p;
      }
    }
  }
}

SchemaPtr ChunkTestSchema() {
  return Schema::Make({{"id", DataType::kInt64},
                       {"x", DataType::kDouble},
                       {"s", DataType::kString}});
}

/// Row i of the chunk tests: NULLs in both nullable columns, and strings
/// that repeat across chunks.
Row ChunkTestRow(int64_t i) {
  return Row{Value::Int64(i),
             i % 7 == 0 ? Value::Null()
                        : Value::Double(static_cast<double>(i) * 0.5),
             i % 5 == 0 ? Value::Null()
                        : Value::String("s" + std::to_string(i % 3))};
}

TEST(TableTest, AppendRowFillsChunksInRowOrder) {
  Table table("t", ChunkTestSchema(), 2);
  std::vector<Row> expected;
  for (int64_t i = 0; i < 2500; ++i) {
    expected.push_back(ChunkTestRow(i));
    ASSERT_TRUE(table.AppendRow(0, expected.back()).ok());
  }
  ExpectChunkInvariant(table);
  ASSERT_EQ(table.chunks(0).size(), 3u);
  EXPECT_EQ(table.chunks(0)[2].num_rows(), 2500u - 2 * kSqlBatchRows);
  EXPECT_TRUE(table.chunks(1).empty());
  EXPECT_EQ(table.TotalRows(), 2500u);
  EXPECT_EQ(table.partition(0), expected);
  EXPECT_TRUE(table.partition(1).empty());
  EXPECT_EQ(table.GatherRows(), expected);
}

TEST(TableTest, AppendBatchOfAnySizeKeepsTheChunkInvariant) {
  const SchemaPtr schema = ChunkTestSchema();
  Table table("t", schema, 1);
  std::vector<Row> expected;
  int64_t next = 0;
  for (const size_t n : {1024, 1, 2500, 0, 1023, 1025, 1024, 1}) {
    ColumnBatch batch(schema);
    for (size_t k = 0; k < n; ++k) {
      expected.push_back(ChunkTestRow(next++));
      ASSERT_TRUE(batch.AppendRow(expected.back()).ok());
    }
    ASSERT_TRUE(table.AppendBatch(0, std::move(batch)).ok()) << n;
    ExpectChunkInvariant(table);
    EXPECT_EQ(table.TotalRows(), expected.size()) << n;
    // Rows appended one at a time continue the same last chunk.
    expected.push_back(ChunkTestRow(next++));
    ASSERT_TRUE(table.AppendRow(0, expected.back()).ok());
    ExpectChunkInvariant(table);
  }
  EXPECT_EQ(table.partition(0), expected);
}

TEST(TableTest, MalformedRowsAndBatchesLeaveTheTableUnchanged) {
  const SchemaPtr schema = ChunkTestSchema();
  Table table("t", schema, 1);
  std::vector<Row> expected;
  for (int64_t i = 0; i < static_cast<int64_t>(kSqlBatchRows); ++i) {
    expected.push_back(ChunkTestRow(i));
    ASSERT_TRUE(table.AppendRow(0, expected.back()).ok());
  }
  const auto refused = [&](const Row& row) {
    EXPECT_TRUE(table.AppendRow(0, row).IsInvalidArgument());
    ExpectChunkInvariant(table);
    EXPECT_EQ(table.TotalRows(), expected.size());
    EXPECT_EQ(table.partition(0), expected);
  };
  // The last chunk is full: a refused row must not leave a new empty chunk.
  // Only the last cell is wrong, so a partial append would show.
  refused(Row{Value::Int64(1), Value::Double(1.0), Value::Int64(3)});
  refused(Row{Value::Int64(1), Value::Double(1.0)});
  refused(Row{Value::Int64(1), Value::Double(1.0), Value::String("a"),
              Value::Int64(0)});
  EXPECT_EQ(table.chunks(0).size(), 1u);
  // Mid-chunk.
  expected.push_back(ChunkTestRow(9999));
  ASSERT_TRUE(table.AppendRow(0, expected.back()).ok());
  refused(Row{Value::Int64(1), Value::String("not a double"),
              Value::String("a")});
  refused(Row{Value::Double(1.0), Value::Double(1.0), Value::String("a")});
  ASSERT_EQ(table.chunks(0).size(), 2u);
  EXPECT_EQ(table.chunks(0)[1].num_rows(), 1u);

  ColumnBatch wrong_type(Schema::Make({{"id", DataType::kInt64},
                                       {"x", DataType::kInt64},
                                       {"s", DataType::kString}}));
  ASSERT_TRUE(wrong_type
                  .AppendRow(Row{Value::Int64(1), Value::Int64(2),
                                 Value::String("a")})
                  .ok());
  EXPECT_TRUE(table.AppendBatch(0, std::move(wrong_type)).IsInvalidArgument());
  ColumnBatch wrong_width(Schema::Make({{"id", DataType::kInt64}}));
  ASSERT_TRUE(wrong_width.AppendRow(Row{Value::Int64(1)}).ok());
  EXPECT_TRUE(table.AppendBatch(0, std::move(wrong_width)).IsInvalidArgument());
  EXPECT_EQ(table.partition(0), expected);
}

TEST(TableTest, Int64WidensIntoADoubleColumn) {
  Table table("t", ChunkTestSchema(), 1);
  ASSERT_TRUE(table.AppendRow(0, Row{Value::Int64(1), Value::Int64(7),
                                     Value::String("a")})
                  .ok());
  const std::vector<Row> rows = table.partition(0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Double(7.0));
}

TEST(CsvTest, SimpleRoundTrip) {
  CsvCodec codec;
  Schema schema({{"age", DataType::kInt64},
                 {"gender", DataType::kString},
                 {"amount", DataType::kDouble}});
  Row row{Value::Int64(57), Value::String("F"), Value::Double(123.75)};
  const std::string line = codec.FormatRow(row);
  auto parsed = codec.ParseRow(line, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, row);
}

TEST(CsvTest, QuotingDelimiterAndQuotes) {
  CsvCodec codec;
  Schema schema({{"s", DataType::kString}});
  for (const std::string s :
       {"a,b", "say \"hi\"", "line1\nline2", "trailing,", ",,"}) {
    Row row{Value::String(s)};
    auto parsed = codec.ParseRow(codec.FormatRow(row), schema);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, row) << "for string: " << s;
  }
}

TEST(CsvTest, NullVsEmptyString) {
  CsvCodec codec;
  Schema schema({{"a", DataType::kString}, {"b", DataType::kString}});
  Row row{Value::Null(), Value::String("")};
  const std::string line = codec.FormatRow(row);
  EXPECT_EQ(line, ",\"\"");
  auto parsed = codec.ParseRow(line, schema);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)[0].is_null());
  EXPECT_EQ((*parsed)[1], Value::String(""));
}

TEST(CsvTest, FieldCountMismatchErrors) {
  CsvCodec codec;
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  EXPECT_TRUE(codec.ParseRow("1", schema).status().IsParseError());
  EXPECT_TRUE(codec.ParseRow("1,2,3", schema).status().IsParseError());
}

TEST(CsvTest, TypeErrorsSurfaceFieldName) {
  CsvCodec codec;
  Schema schema({{"age", DataType::kInt64}});
  auto status = codec.ParseRow("abc", schema).status();
  EXPECT_TRUE(status.IsParseError());
  EXPECT_NE(status.message().find("age"), std::string::npos);
}

TEST(CsvTest, AppendRowMatchesFormatRow) {
  CsvCodec codec;
  Row row{Value::Int64(1), Value::String("x,y")};
  std::string buf;
  codec.AppendRow(row, &buf);
  EXPECT_EQ(buf, codec.FormatRow(row) + "\n");
}

TEST(RowCodecTest, AllTypesRoundTrip) {
  std::vector<Row> rows;
  rows.push_back(Row{Value::Null(), Value::Bool(true), Value::Int64(-42),
                     Value::Double(3.25), Value::String("hello")});
  rows.push_back(Row{});
  rows.push_back(Row{Value::String(std::string(10000, 'z'))});
  const std::string encoded = RowCodec::EncodeRows(rows);
  auto decoded = RowCodec::DecodeRows(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, rows);
}

TEST(RowCodecTest, TruncationDetected) {
  std::vector<Row> rows{Row{Value::String("abcdefgh")}};
  const std::string encoded = RowCodec::EncodeRows(rows);
  auto decoded = RowCodec::DecodeRows(encoded.substr(0, encoded.size() - 3));
  EXPECT_TRUE(decoded.status().IsDataLoss());
}

// A 6-byte payload holding the varint 2^40: a count no following bytes
// could back. Decoders must reject it before sizing any allocation.
std::string HugeCountPayload() {
  std::string payload;
  PutVarint64(&payload, uint64_t{1} << 40);
  return payload;
}

TEST(RowCodecTest, HugeValueCountIsDataLoss) {
  // One row whose field count is 2^40.
  std::string payload;
  PutVarint64(&payload, 1);
  payload += HugeCountPayload();
  EXPECT_TRUE(RowCodec::DecodeRows(payload).status().IsDataLoss());
}

TEST(RowCodecTest, HugeRowCountIsDataLoss) {
  EXPECT_TRUE(RowCodec::DecodeRows(HugeCountPayload()).status().IsDataLoss());
}

TEST(RowCodecTest, RowBatchEncoderMatchesEncodeRows) {
  const std::vector<Row> rows{Row{Value::Int64(7), Value::Null()}, Row{},
                              Row{Value::String("x"), Value::Double(0.5)}};
  // Rows of different shapes: each comes from a one-row batch of its own.
  const std::vector<SchemaPtr> schemas{
      Schema::Make({{"a", DataType::kInt64}, {"b", DataType::kString}}),
      Schema::Make({}),
      Schema::Make({{"a", DataType::kString}, {"b", DataType::kDouble}})};
  RowBatchEncoder encoder;
  EXPECT_TRUE(encoder.empty());
  for (size_t i = 0; i < rows.size(); ++i) {
    auto batch = ColumnBatch::FromRows(schemas[i], {rows[i]});
    ASSERT_TRUE(batch.ok()) << batch.status();
    encoder.Add(*batch, 0);
  }
  EXPECT_FALSE(encoder.empty());
  std::string payload = "prefix";
  encoder.Flush(&payload);
  EXPECT_EQ(payload, "prefix" + RowCodec::EncodeRows(rows));
  EXPECT_TRUE(encoder.empty());
  EXPECT_EQ(encoder.bytes(), 0u);

  // The cursor decoder replaces the vector's contents and stops at the
  // payload end, leaving whatever follows for the caller.
  payload.push_back('\x7f');
  Decoder decoder(std::string_view(payload).substr(6));
  std::vector<Row> decoded{Row{Value::Bool(true)}};
  ASSERT_TRUE(RowCodec::DecodeRows(&decoder, &decoded).ok());
  EXPECT_EQ(decoded, rows);
  EXPECT_EQ(decoder.remaining(), 1u);
}

// --- Golden row-batch payload ---

/// The golden payload's rows, one schema (i INT64, b BOOL, d DOUBLE,
/// s STRING): every INT64 varint length boundary, zigzag (±2^s - 1, ±2^s)
/// and unsigned (127/128, 16383/16384), the INT64 extremes, and NULL, BOOL,
/// DOUBLE and long STRING cells.
std::vector<Row> GoldenRows() {
  std::vector<int64_t> ints{0,     1,     -1,
                            127,   128,   16383,
                            16384, std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int shift = 6; shift <= 62; shift += 7) {
    const int64_t p = int64_t{1} << shift;
    ints.insert(ints.end(), {p - 1, p, -p, -p - 1});
  }
  const double doubles[] = {0.5, -0.0, 1e300, -2.25, 3.0};
  std::vector<Row> rows;
  for (size_t i = 0; i < ints.size(); ++i) {
    rows.push_back(
        Row{Value::Int64(ints[i]),
            i % 3 == 0 ? Value::Bool(i % 2 == 0) : Value::Null(),
            i % 5 == 0 ? Value::Double(doubles[i / 5 % 5]) : Value::Null(),
            i % 7 == 0 ? Value::String(std::string(i / 7, 'k'))
                       : Value::Null()});
  }
  rows.push_back(Row{Value::Null(), Value::Null(), Value::Null(),
                     Value::Null()});
  std::string long_string;
  for (int c = 0; c < 130; ++c) long_string.push_back('a' + c % 26);
  rows.push_back(Row{Value::Int64(42), Value::Bool(false), Value::Double(-0.0),
                     Value::String(long_string)});
  return rows;
}

/// EncodeRows(GoldenRows()) as written by the encoder before its varint
/// and decode paths were inlined: the wire bytes must never change.
constexpr char kGoldenPayloadHex[] =
    "2f040200010103000000000000e03f04000402020000000402010000000402fe"
    "0101000000040280020000000402feff01000300000000000000800004028080"
    "02010100000402ffffffffffffffffff01000004016b0402feffffffffffffff"
    "ff0100000004027e010000000402800100039c7500883ce4377e0004027f0000"
    "0004028101010100000402fe7f0000000402808001000004026b6b0402ff7f01"
    "000300000000000002c00004028180010000000402feff7f0000000402808080"
    "01010100000402ffff7f00000004028180800100030000000000000840000402"
    "feffff7f01000004036b6b6b040280808080010000000402ffffff7f00000004"
    "028180808001010100000402feffffff7f0003000000000000e03f0004028080"
    "808080010000000402ffffffff7f010000000402818080808001000004046b6b"
    "6b6b0402feffffffff7f00000004028080808080800101010300000000000000"
    "80000402ffffffffff7f0000000402818080808080010000000402feffffffff"
    "ff7f01000000040280808080808080010000000402ffffffffffff7f00039c75"
    "00883ce4377e04056b6b6b6b6b04028180808080808001010100000402feffff"
    "ffffffff7f00000004028080808080808080010000000402ffffffffffffff7f"
    "010000000402818080808080808001000300000000000002c0000402feffffff"
    "ffffffff7f00000004028080808080808080800101010004066b6b6b6b6b6b04"
    "02ffffffffffffffff7f00000004028180808080808080800100000004000000"
    "0004025401000300000000000000800482016162636465666768696a6b6c6d6e"
    "6f707172737475767778797a6162636465666768696a6b6c6d6e6f7071727374"
    "75767778797a6162636465666768696a6b6c6d6e6f707172737475767778797a"
    "6162636465666768696a6b6c6d6e6f707172737475767778797a616263646566"
    "6768696a6b6c6d6e6f707172737475767778797a";

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

TEST(RowCodecTest, GoldenPayloadRoundTripsThroughBothEncoders) {
  const std::vector<Row> rows = GoldenRows();
  const std::string payload = RowCodec::EncodeRows(rows);
  EXPECT_EQ(ToHex(payload), kGoldenPayloadHex);

  // The sink's path: the same rows encoded straight from typed columns.
  const SchemaPtr schema = Schema::Make({{"i", DataType::kInt64},
                                         {"b", DataType::kBool},
                                         {"d", DataType::kDouble},
                                         {"s", DataType::kString}});
  auto batch = ColumnBatch::FromRows(schema, rows);
  ASSERT_TRUE(batch.ok()) << batch.status();
  RowBatchEncoder encoder;
  for (size_t r = 0; r < batch->num_rows(); ++r) encoder.Add(*batch, r);
  std::string batch_payload;
  encoder.Flush(&batch_payload);
  EXPECT_EQ(ToHex(batch_payload), kGoldenPayloadHex);

  Decoder decoder(payload);
  std::vector<Row> decoded;
  ASSERT_TRUE(RowCodec::DecodeRows(&decoder, &decoded).ok());
  EXPECT_EQ(decoded, rows);
  EXPECT_TRUE(decoder.AtEnd());

  // Every strict prefix lacks bytes some row needs.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    const Status status = RowCodec::DecodeRows(payload.substr(0, cut)).status();
    EXPECT_TRUE(status.IsDataLoss()) << "cut=" << cut << ": " << status;
  }
}

TEST(PrettyPrintTest, AlignedGridWithTruncation) {
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"name", DataType::kString},
                              {"amount", DataType::kDouble}});
  Table table("t", schema, 2);
  table.AppendRow(0, Row{Value::Int64(1), Value::String("alice"),
                         Value::Double(10.5)});
  table.AppendRow(1, Row{Value::Int64(22), Value::Null(), Value::Double(3.0)});
  const std::string out = PrettyPrintTable(table);
  EXPECT_NE(out.find("| id | name  | amount |"), std::string::npos) << out;
  EXPECT_NE(out.find("alice"), std::string::npos);
  EXPECT_NE(out.find("NULL"), std::string::npos);
  EXPECT_NE(out.find("(2 rows)"), std::string::npos);
}

TEST(PrettyPrintTest, RowLimitNoted) {
  auto schema = Schema::Make({{"x", DataType::kInt64}});
  Table table("t", schema, 1);
  for (int i = 0; i < 50; ++i) table.AppendRow(0, Row{Value::Int64(i)});
  PrettyPrintOptions options;
  options.max_rows = 5;
  const std::string out = PrettyPrintTable(table, options);
  EXPECT_NE(out.find("(50 rows, showing first 5)"), std::string::npos) << out;
}

TEST(PrettyPrintTest, LongStringsTruncated) {
  auto schema = Schema::Make({{"s", DataType::kString}});
  Table table("t", schema, 1);
  table.AppendRow(0, Row{Value::String(std::string(100, 'z'))});
  PrettyPrintOptions options;
  options.max_column_width = 10;
  const std::string out = PrettyPrintTable(table, options);
  EXPECT_NE(out.find("zzzzzzz..."), std::string::npos) << out;
}

}  // namespace
}  // namespace sqlink
