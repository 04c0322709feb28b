#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/metrics.h"
#include "stream/wire.h"
#include "table/column_batch.h"
#include "table/row_codec.h"

namespace sqlink {
namespace {

// Value::operator== compares doubles with ==, under which NaN != NaN. Edge
// and property tests compare doubles by bit pattern instead so NaN survives
// every round trip.
bool BitEqual(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    return BitEqual(a.double_value(), b.double_value());
  }
  return a == b;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!SameValue(a[r][c], b[r][c])) return false;
    }
  }
  return true;
}

SchemaPtr EdgeSchema() {
  return Schema::Make({{"flag", DataType::kBool},
                       {"count", DataType::kInt64},
                       {"ratio", DataType::kDouble},
                       {"name", DataType::kString}});
}

std::vector<Row> EdgeRows() {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {
      {Value::Bool(true), Value::Int64(0), Value::Double(0.0),
       Value::String("")},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      {Value::Bool(false), Value::Int64(std::numeric_limits<int64_t>::min()),
       Value::Double(kNan), Value::String("repeated")},
      {Value::Bool(true), Value::Int64(std::numeric_limits<int64_t>::max()),
       Value::Double(kInf), Value::String("repeated")},
      {Value::Null(), Value::Int64(-1), Value::Double(-kInf),
       Value::String(std::string(1000, 'x'))},
      {Value::Bool(false), Value::Null(), Value::Double(-0.0),
       Value::String("")},
  };
}

// --- ColumnBatch <-> rows ----------------------------------------------------

TEST(ColumnBatchTest, RoundTripsEdgeValues) {
  auto batch = ColumnBatch::FromRows(EdgeSchema(), EdgeRows());
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->num_rows(), 6u);
  EXPECT_TRUE(SameRows(batch->ToRows(), EdgeRows()));
  // NULL string rows must not pollute the dictionary; "" and "repeated" are
  // stored once each.
  EXPECT_EQ(batch->column(3).dict.size(), 3);
}

TEST(ColumnBatchTest, HighCardinalityDictionaryRoundTrips) {
  auto schema = Schema::Make({{"key", DataType::kString}});
  std::vector<Row> rows;
  for (int i = 0; i < 10000; ++i) {
    rows.push_back({Value::String("key-" + std::to_string(i))});
  }
  // Repeats after the distinct run must reuse existing dictionary ids.
  for (int i = 0; i < 500; ++i) {
    rows.push_back({Value::String("key-" + std::to_string(i * 7 % 10000))});
  }
  auto batch = ColumnBatch::FromRows(schema, rows);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->column(0).dict.size(), 10000);
  EXPECT_TRUE(SameRows(batch->ToRows(), rows));
}

TEST(ColumnBatchTest, AppendRowRejectsMismatches) {
  auto schema = Schema::Make({{"v", DataType::kInt64}});
  ColumnBatch batch(schema);
  EXPECT_TRUE(batch.AppendRow({Value::String("no")}).IsInvalidArgument());
  EXPECT_TRUE(
      batch.AppendRow({Value::Int64(1), Value::Int64(2)}).IsInvalidArgument());
}

// --- Row-batch wire payload ---------------------------------------------------

TEST(RowBatchWireTest, EncodeDecodeRoundTripsEdgeValues) {
  // The sink encodes rows straight from the executor's batches, one at a
  // time; the reader decodes a whole payload into its staging vector.
  auto batch = ColumnBatch::FromRows(EdgeSchema(), EdgeRows());
  ASSERT_TRUE(batch.ok()) << batch.status();
  RowBatchEncoder encoder;
  for (size_t r = 0; r < batch->num_rows(); ++r) encoder.Add(*batch, r);
  std::string payload;
  encoder.Flush(&payload);

  Decoder decoder(payload);
  std::vector<Row> staged;
  ASSERT_TRUE(RowCodec::DecodeRows(&decoder, &staged).ok());
  EXPECT_TRUE(SameRows(staged, EdgeRows()));
  EXPECT_EQ(decoder.remaining(), 0u);
}

TEST(RowBatchWireTest, FramesDecodeWithoutChannelState) {
  // Each payload is self-contained: the replay window can resend any suffix
  // of frames to a replacement reader with no preamble, and a duplicate
  // delivery decodes to the same rows again.
  const std::vector<Row> rows = EdgeRows();
  auto batch = ColumnBatch::FromRows(EdgeSchema(), rows);
  ASSERT_TRUE(batch.ok()) << batch.status();
  RowBatchEncoder encoder;
  std::vector<std::string> frames;
  for (size_t r = 0; r < rows.size(); ++r) {
    encoder.Add(*batch, r);
    if (r % 2 == 1) {
      frames.emplace_back();
      encoder.Flush(&frames.back());
    }
  }
  ASSERT_EQ(frames.size(), 3u);

  std::vector<Row> staged;  // Reused across frames, as in the reader.
  for (size_t f : {size_t{2}, size_t{0}, size_t{1}, size_t{1}}) {
    Decoder decoder(frames[f]);
    ASSERT_TRUE(RowCodec::DecodeRows(&decoder, &staged).ok()) << "frame " << f;
    const std::vector<Row> expected(rows.begin() + 2 * f,
                                    rows.begin() + 2 * f + 2);
    EXPECT_TRUE(SameRows(staged, expected)) << "frame " << f;
  }
}

TEST(RowBatchWireTest, DecodeErrorPaths) {
  std::vector<Row> staged;

  // A value tag no encoder writes.
  std::string bad_tag;
  PutVarint64(&bad_tag, 1);  // One row...
  PutVarint64(&bad_tag, 1);  // ...of one value...
  bad_tag.push_back('\x09');  // ...tagged past kString.
  Decoder bad_tag_decoder(bad_tag);
  EXPECT_TRUE(
      RowCodec::DecodeRows(&bad_tag_decoder, &staged).IsDataLoss());

  // A row count the remaining bytes could back, but whose rows never come.
  std::string short_batch;
  PutVarint64(&short_batch, 4);
  RowCodec::Encode({Value::Int64(1), Value::Int64(2)}, &short_batch);
  Decoder short_decoder(short_batch);
  EXPECT_TRUE(RowCodec::DecodeRows(&short_decoder, &staged).IsDataLoss());

  // A string whose length prefix runs past the payload end.
  std::string long_string;
  PutVarint64(&long_string, 1);
  RowCodec::Encode({Value::String("abcdef")}, &long_string);
  long_string.resize(long_string.size() - 2);
  Decoder long_decoder(long_string);
  EXPECT_TRUE(RowCodec::DecodeRows(&long_decoder, &staged).IsDataLoss());

  // A varint that never terminates.
  const std::string endless(12, '\xff');
  Decoder endless_decoder(endless);
  EXPECT_TRUE(RowCodec::DecodeRows(&endless_decoder, &staged).IsDataLoss());
}

// --- Frame buffer pool ------------------------------------------------------

TEST(FrameBufferPoolTest, ReusesBuffersAndCountsHitsAndMisses) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter* pooled = metrics.GetCounter("stream.wire.frames_pooled");
  Counter* miss = metrics.GetCounter("stream.wire.pool_miss");

  FrameBufferPool pool;
  const int64_t miss_before = miss->value();
  std::string buffer = pool.Acquire();  // Empty pool: allocates.
  EXPECT_GT(miss->value(), miss_before);

  buffer.assign(4096, 'z');
  const char* const data = buffer.data();
  pool.Release(std::move(buffer));

  const int64_t pooled_before = pooled->value();
  std::string reused = pool.Acquire();
  EXPECT_GT(pooled->value(), pooled_before);
  EXPECT_TRUE(reused.empty());  // Cleared, capacity kept.
  EXPECT_GE(reused.capacity(), 4096u);
  EXPECT_EQ(reused.data(), data);
}

}  // namespace
}  // namespace sqlink
