#include <gtest/gtest.h>

#include "table/column_batch.h"
#include "table/csv.h"
#include "table/pretty_print.h"
#include "table/record_batch.h"
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
  const std::string payload = HugeCountPayload();
  Decoder decoder(payload);
  EXPECT_TRUE(RowCodec::Decode(&decoder).status().IsDataLoss());
}

TEST(RowCodecTest, HugeRowCountIsDataLoss) {
  EXPECT_TRUE(RowCodec::DecodeRows(HugeCountPayload()).status().IsDataLoss());
}

TEST(RowCodecTest, RowBatchEncoderMatchesEncodeRows) {
  const std::vector<Row> rows{Row{Value::Int64(7), Value::Null()}, Row{},
                              Row{Value::String("x"), Value::Double(0.5)}};
  RowBatchEncoder encoder;
  EXPECT_TRUE(encoder.empty());
  for (const Row& row : rows) encoder.Add(row);
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

TEST(RowCodecTest, HashRowKeySelectsColumns) {
  Row a{Value::Int64(1), Value::String("x"), Value::Int64(2)};
  Row b{Value::Int64(9), Value::String("x"), Value::Int64(2)};
  const std::vector<int> keys{1, 2};
  EXPECT_EQ(HashRowKey(a, keys), HashRowKey(b, keys));
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

TEST(RecordBatchTest, AppendAndRead) {
  auto schema = Schema::Make({{"x", DataType::kInt64}});
  RecordBatch batch(schema, {});
  batch.Append(Row{Value::Int64(1)});
  batch.Append(Row{Value::Int64(2)});
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.rows()[1][0], Value::Int64(2));
}

}  // namespace
}  // namespace sqlink
