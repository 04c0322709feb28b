// Property-based and parameterized sweeps: randomized round-trips,
// numerical gradient checks, implication soundness against brute force,
// and differential testing of the SQL engine against a nested-loop
// reference evaluator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "cluster/cluster.h"
#include "common/fs_util.h"
#include "common/random.h"
#include "common/retry_policy.h"
#include "common/status_macros.h"
#include "ml/sgd.h"
#include "rewriter/predicate_logic.h"
#include "serving/query_server.h"
#include "sql/batch_kernels.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "sql_oracle.h"
#include "stream/frame_log.h"
#include "stream/wire.h"
#include "table/csv.h"
#include "table/row_codec.h"
#include "transform/coding.h"

namespace sqlink {
namespace {

// ---------------------------------------------------------------------------
// Random value/row generators.

std::string RandomNastyString(Random* rng) {
  static const char* const kAlphabet = "ab,\"\n'\\|x ";
  std::string out;
  const size_t length = rng->Uniform(12);
  for (size_t i = 0; i < length; ++i) {
    out.push_back(kAlphabet[rng->Uniform(10)]);
  }
  return out;
}

Value RandomValue(Random* rng, DataType type, bool allow_null = true) {
  if (allow_null && rng->Bernoulli(0.1)) return Value::Null();
  switch (type) {
    case DataType::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case DataType::kInt64:
      return Value::Int64(rng->UniformInt(-1000, 1000));
    case DataType::kDouble:
      return Value::Double(rng->NextGaussian() * 100);
    case DataType::kString:
      return Value::String(RandomNastyString(rng));
  }
  return Value::Null();
}

SchemaPtr RandomSchema(Random* rng) {
  const int fields = static_cast<int>(rng->UniformInt(1, 6));
  std::vector<Field> out;
  for (int i = 0; i < fields; ++i) {
    const DataType type = static_cast<DataType>(rng->UniformInt(0, 3));
    out.push_back(Field{"c" + std::to_string(i), type});
  }
  return Schema::Make(std::move(out));
}

Row RandomRow(Random* rng, const Schema& schema) {
  Row row;
  for (const Field& field : schema.fields()) {
    row.push_back(RandomValue(rng, field.type));
  }
  return row;
}

/// RandomValue plus the extremes a binary codec must carry bit-exactly:
/// full-range int64 and NaN, ±infinity, -0.0 and the double limits.
Value RandomWireValue(Random* rng, DataType type) {
  if (type == DataType::kInt64 && rng->Bernoulli(0.3)) {
    switch (rng->Uniform(3)) {
      case 0:
        return Value::Int64(std::numeric_limits<int64_t>::min());
      case 1:
        return Value::Int64(std::numeric_limits<int64_t>::max());
      default:
        return Value::Int64(static_cast<int64_t>(rng->NextUint64()));
    }
  }
  if (type == DataType::kDouble && rng->Bernoulli(0.3)) {
    static const double kExtremes[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        -0.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min()};
    return Value::Double(kExtremes[rng->Uniform(std::size(kExtremes))]);
  }
  return RandomValue(rng, type);
}

/// Value equality with doubles compared by bit pattern, so NaN equals
/// itself and -0.0 differs from 0.0.
bool BitIdentical(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    const double x = a.double_value();
    const double y = b.double_value();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a == b;
}

bool BitIdentical(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!BitIdentical(a[r][c], b[r][c])) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// CSV and binary codec round trips over adversarial random rows.

class CodecRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecRoundTripTest, CsvRoundTripsRandomRows) {
  Random rng(GetParam());
  CsvCodec codec;
  for (int trial = 0; trial < 50; ++trial) {
    SchemaPtr schema = RandomSchema(&rng);
    const Row row = RandomRow(&rng, *schema);
    auto parsed = codec.ParseRow(codec.FormatRow(row), *schema);
    ASSERT_TRUE(parsed.ok())
        << parsed.status() << " for line: " << codec.FormatRow(row);
    // Doubles survive exactly: ToString uses %.17g.
    EXPECT_EQ(*parsed, row);
  }
}

TEST_P(CodecRoundTripTest, RowCodecRoundTripsRandomRows) {
  Random rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    SchemaPtr schema = RandomSchema(&rng);
    // One all-NULL row puts a NULL in every column.
    std::vector<Row> rows{
        Row(static_cast<size_t>(schema->num_fields()), Value::Null())};
    for (int i = 0; i < 20; ++i) {
      Row row;
      for (const Field& field : schema->fields()) {
        row.push_back(RandomWireValue(&rng, field.type));
      }
      rows.push_back(std::move(row));
    }
    auto decoded = RowCodec::DecodeRows(RowCodec::EncodeRows(rows));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(BitIdentical(*decoded, rows)) << "trial " << trial;
  }
}

TEST_P(CodecRoundTripTest, RowCodecRejectsEveryTruncation) {
  Random rng(GetParam() * 101 + 13);
  SchemaPtr schema = RandomSchema(&rng);
  std::vector<Row> rows{RandomRow(&rng, *schema), RandomRow(&rng, *schema)};
  const std::string encoded = RowCodec::EncodeRows(rows);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto decoded = RowCodec::DecodeRows(encoded.substr(0, cut));
    // Either an error, or a prefix decode must not fabricate data beyond
    // what was encoded (row-count prefix makes short reads errors).
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 42, 1234));

// The sinks encode frames straight from typed columns: each row of a batch
// must encode to exactly the bytes of its boxed row. The batches hold every
// type, NULLs, the int64 and double extremes, empty strings and strings
// with a NUL byte, and a DOUBLE column filled with INT64 values; a gathered
// copy (remapped string codes, shifted null bits) is checked too.
TEST(RowCodecTest, BatchRowEncodingMatchesRowEncoding) {
  for (const uint64_t seed : {1u, 7u, 42u, 2015u}) {
    Random rng(seed);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Field> fields{{"b", DataType::kBool},
                                {"i", DataType::kInt64},
                                {"d", DataType::kDouble},
                                {"s", DataType::kString},
                                {"widened", DataType::kDouble}};
      const SchemaPtr extras = RandomSchema(&rng);
      for (const Field& extra : extras->fields()) {
        fields.push_back(Field{"x" + extra.name, extra.type});
      }
      const SchemaPtr schema = Schema::Make(fields);
      ColumnBatch batch(schema);
      const size_t rows = 1 + rng.Uniform(150);
      for (size_t r = 0; r < rows; ++r) {
        Row row;
        for (const Field& field : fields) {
          if (field.name == "widened") {
            row.push_back(rng.Bernoulli(0.1)
                              ? Value::Null()
                              : RandomWireValue(&rng, DataType::kInt64));
          } else if (field.type == DataType::kString && rng.Bernoulli(0.2)) {
            row.push_back(Value::String(rng.Bernoulli(0.5)
                                            ? std::string()
                                            : std::string("a\0b", 3)));
          } else {
            row.push_back(RandomWireValue(&rng, field.type));
          }
        }
        ASSERT_TRUE(batch.AppendRow(row).ok());
      }
      std::vector<int32_t> picks(rows);
      for (int32_t& pick : picks) {
        pick = static_cast<int32_t>(rng.Uniform(rows));
      }
      ColumnBatch gathered(schema);
      ASSERT_TRUE(gathered.AppendGather(batch, picks.data(), rows).ok());
      for (const ColumnBatch* source : {&batch, &gathered}) {
        for (size_t r = 0; r < source->num_rows(); ++r) {
          Row boxed;
          source->EmitRow(r, &boxed);
          std::string expected = "prefix";
          RowCodec::Encode(boxed, &expected);
          std::string direct = "prefix";
          RowCodec::Encode(*source, r, &direct);
          ASSERT_EQ(direct, expected) << "seed " << seed << " trial " << trial
                                      << " row " << r;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded mutation of every wire message: a decoder fed corrupted bytes from
// a peer must return, never abort, and never size an allocation from a
// count the remaining bytes cannot back.

/// One mutation of `valid`: flipped bytes, a truncation, appended garbage,
/// or a varint in [2^40, 2^63) written over the bytes at a random offset.
std::string Mutate(const std::string& valid, Random* rng) {
  std::string out = valid;
  switch (rng->Uniform(4)) {
    case 0: {
      const uint64_t flips = 1 + rng->Uniform(4);
      for (uint64_t i = 0; i < flips && !out.empty(); ++i) {
        out[rng->Uniform(out.size())] ^=
            static_cast<char>(1 + rng->Uniform(255));
      }
      break;
    }
    case 1:
      out.resize(rng->Uniform(out.size() + 1));
      break;
    case 2: {
      const uint64_t extra = 1 + rng->Uniform(16);
      for (uint64_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<char>(rng->Uniform(256)));
      }
      break;
    }
    default: {
      constexpr uint64_t kLow = uint64_t{1} << 40;
      constexpr uint64_t kHigh = uint64_t{1} << 63;
      std::string varint;
      PutVarint64(&varint, kLow + rng->Uniform(kHigh - kLow));
      const size_t at = rng->Uniform(out.size() + 1);
      out.replace(at, std::min(varint.size(), out.size() - at), varint);
      break;
    }
  }
  return out;
}

/// A valid encoding of one message type and the decoder that reads it; a
/// decode that does not return the original message is a non-OK Status.
struct WireMessageCase {
  const char* name;
  std::string valid;
  std::function<Status(std::string_view)> decode;
};

std::vector<WireMessageCase> WireMessageCases() {
  const SchemaPtr schema = Schema::Make({{"flag", DataType::kBool},
                                         {"n", DataType::kInt64},
                                         {"x", DataType::kDouble},
                                         {"s", DataType::kString}});
  const std::vector<Row> rows{
      Row{Value::Bool(true), Value::Int64(-3), Value::Double(2.5),
          Value::String("abc")},
      Row{Value::Null(), Value::Int64(1), Value::Null(), Value::String("")},
      Row{Value::Bool(false), Value::Null(), Value::Double(-0.0),
          Value::Null()}};
  StreamSplitInfo split{3, 1, "node1", 7000, 2, 99};
  std::vector<WireMessageCase> cases;
  auto add = [&cases](const char* name, std::string valid,
                      std::function<Status(std::string_view)> decode) {
    cases.push_back({name, std::move(valid), std::move(decode)});
  };

  add("row batch", RowCodec::EncodeRows(rows), [](std::string_view bytes) {
    return RowCodec::DecodeRows(bytes).status();
  });
  std::string schema_bytes;
  EncodeSchema(*schema, &schema_bytes);
  add("schema", schema_bytes, [](std::string_view bytes) {
    Decoder decoder(bytes);
    return DecodeSchema(&decoder).status();
  });
  RegisterSqlMessage reg;
  reg.worker_id = 1;
  reg.num_workers = 4;
  reg.host = "node1";
  reg.port = 7000;
  reg.command = "svm";
  reg.args = {"--iterations", "10"};
  reg.schema = schema;
  reg.sink_key = 99;
  add("RegisterSqlMessage", reg.Encode(), [](std::string_view bytes) {
    return RegisterSqlMessage::Decode(bytes).status();
  });
  SplitsMessage splits;
  splits.schema = schema;
  splits.splits = {split, split};
  add("SplitsMessage", splits.Encode(), [](std::string_view bytes) {
    return SplitsMessage::Decode(bytes).status();
  });
  OpenChannelMessage open;
  open.sink_key = 99;
  open.window_bytes = 1 << 20;
  open.hello = HelloMessage{3, true, 17};
  add("OpenChannelMessage", open.Encode(), [](std::string_view bytes) {
    return OpenChannelMessage::Decode(bytes).status();
  });
  add("HelloMessage", open.hello.Encode(), [](std::string_view bytes) {
    return HelloMessage::Decode(bytes).status();
  });
  add("ResumeMessage", ResumeMessage{12, 3400}.Encode(),
      [](std::string_view bytes) {
        return ResumeMessage::Decode(bytes).status();
      });
  HeartbeatMessage beat;
  beat.role = HeartbeatMessage::kReader;
  beat.id = 3;
  beat.epoch = 2;
  beat.applied_seq = 41;
  add("HeartbeatMessage", beat.Encode(), [](std::string_view bytes) {
    return HeartbeatMessage::Decode(bytes).status();
  });
  add("SplitGrantMessage", SplitGrantMessage{true, split}.Encode(),
      [](std::string_view bytes) {
        return SplitGrantMessage::Decode(bytes).status();
      });
  add("CompleteSplitMessage", CompleteSplitMessage{3, 2, 1000}.Encode(),
      [](std::string_view bytes) {
        return CompleteSplitMessage::Decode(bytes).status();
      });
  add("SubmitQueryMessage",
      SubmitQueryMessage{"tenant", "SELECT COUNT(*) FROM t", 500}.Encode(),
      [](std::string_view bytes) {
        return SubmitQueryMessage::Decode(bytes).status();
      });
  QueryResultMessage result;
  result.schema = schema;
  result.rows = rows;
  result.elapsed_micros = 1234;
  add("QueryResultMessage", result.Encode(), [](std::string_view bytes) {
    return QueryResultMessage::Decode(bytes).status();
  });
  // A whole data frame, header included: a damaged type byte, length or
  // payload must fail ExtractFrame or the row decoder, never crash them.
  std::string frame_bytes(kFrameHeaderBytes, '\0');
  const std::string frame_payload = RowCodec::EncodeRows(rows);
  EncodeFrameHeader(frame_bytes.data(), FrameType::kData,
                    static_cast<uint32_t>(frame_payload.size()), /*seq=*/5,
                    /*channel=*/3, TraceContext{});
  frame_bytes += frame_payload;
  add("data frame", frame_bytes, [](std::string_view bytes) -> Status {
    size_t cursor = 0;
    Frame frame;
    ASSIGN_OR_RETURN(bool complete, ExtractFrame(bytes, &cursor, &frame));
    if (!complete || cursor != bytes.size()) {
      return Status::DataLoss("frame does not span the buffer");
    }
    if (frame.type != FrameType::kData) {
      return Status::DataLoss("frame type changed");
    }
    return RowCodec::DecodeRows(frame.payload).status();
  });
  // Status payloads never fail to decode: a damaged one degrades to a
  // NetworkError carrying the raw bytes.
  add("EncodeStatus", EncodeStatus(Status::Aborted("lease revoked")),
      [](std::string_view bytes) {
        return DecodeStatusPayload(bytes).IsAborted()
                   ? Status::OK()
                   : Status::DataLoss("status payload did not round-trip");
      });
  return cases;
}

TEST(WireMutationTest, EveryDecoderSurvivesSeededMutations) {
  constexpr int kMutationsPerMessage = 4000;
  for (const WireMessageCase& c : WireMessageCases()) {
    ASSERT_TRUE(c.decode(c.valid).ok()) << c.name;
    Random rng(2015);
    int rejected = 0;
    for (int i = 0; i < kMutationsPerMessage; ++i) {
      if (!c.decode(Mutate(c.valid, &rng)).ok()) ++rejected;
    }
    // The mutations reach the error paths, not just harmless bytes.
    EXPECT_GT(rejected, kMutationsPerMessage / 10) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Coding matrices across cardinalities.

class CodingMatrixPropertyTest
    : public ::testing::TestWithParam<std::tuple<CodingScheme, int>> {};

TEST_P(CodingMatrixPropertyTest, SchemeInvariantsHold) {
  const auto [scheme, k] = GetParam();
  auto matrix = CodingMatrix(scheme, k);
  ASSERT_TRUE(matrix.ok());
  const int cols = CodingOutputColumns(scheme, k);
  ASSERT_EQ(static_cast<int>(matrix->size()), k);
  for (const auto& row : *matrix) {
    ASSERT_EQ(static_cast<int>(row.size()), cols);
  }
  switch (scheme) {
    case CodingScheme::kDummy:
      for (int level = 0; level < k; ++level) {
        double sum = 0;
        for (double v : (*matrix)[static_cast<size_t>(level)]) sum += v;
        EXPECT_DOUBLE_EQ(sum, 1.0);  // Exactly one hot.
        EXPECT_DOUBLE_EQ(
            (*matrix)[static_cast<size_t>(level)][static_cast<size_t>(level)],
            1.0);
      }
      break;
    case CodingScheme::kEffect:
      // Columns sum to zero across levels (effects sum to zero).
      for (int c = 0; c < cols; ++c) {
        double sum = 0;
        for (int level = 0; level < k; ++level) {
          sum += (*matrix)[static_cast<size_t>(level)][static_cast<size_t>(c)];
        }
        EXPECT_NEAR(sum, 0.0, 1e-12);
      }
      break;
    case CodingScheme::kOrthogonal:
      for (int a = 0; a < cols; ++a) {
        double sum = 0;
        for (int b = 0; b < cols; ++b) {
          double dot = 0;
          for (int level = 0; level < k; ++level) {
            dot += (*matrix)[static_cast<size_t>(level)][static_cast<size_t>(a)] *
                   (*matrix)[static_cast<size_t>(level)][static_cast<size_t>(b)];
          }
          EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-8) << "k=" << k;
        }
        for (int level = 0; level < k; ++level) {
          sum += (*matrix)[static_cast<size_t>(level)][static_cast<size_t>(a)];
        }
        EXPECT_NEAR(sum, 0.0, 1e-8);
      }
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndCardinalities, CodingMatrixPropertyTest,
    ::testing::Combine(::testing::Values(CodingScheme::kDummy,
                                         CodingScheme::kEffect,
                                         CodingScheme::kOrthogonal),
                       ::testing::Values(2, 3, 4, 5, 8, 13, 21)));

// ---------------------------------------------------------------------------
// Predicate implication: soundness against brute-force evaluation.

class ImplicationSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ImplicationSoundnessTest, ImpliesNeverLies) {
  Random rng(GetParam());
  const std::vector<std::string> ops = {"=", "<>", "<", "<=", ">", ">="};
  for (int trial = 0; trial < 500; ++trial) {
    ColumnConstraint s{"", "x", ops[rng.Uniform(ops.size())],
                       Value::Int64(rng.UniformInt(-5, 5))};
    ColumnConstraint w{"", "x", ops[rng.Uniform(ops.size())],
                       Value::Int64(rng.UniformInt(-5, 5))};
    const bool implied = ConstraintImplies(s, w);
    if (!implied) continue;  // Soundness only: true must never be wrong.
    auto satisfies = [](const ColumnConstraint& c, int64_t x) {
      const int64_t v = c.literal.int64_value();
      if (c.op == "=") return x == v;
      if (c.op == "<>") return x != v;
      if (c.op == "<") return x < v;
      if (c.op == "<=") return x <= v;
      if (c.op == ">") return x > v;
      return x >= v;
    };
    for (int64_t x = -10; x <= 10; ++x) {
      if (satisfies(s, x)) {
        EXPECT_TRUE(satisfies(w, x))
            << "x " << s.op << " " << s.literal.ToString() << " claimed to "
            << "imply x " << w.op << " " << w.literal.ToString()
            << " but x=" << x << " violates it";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicationSoundnessTest,
                         ::testing::Values(7, 21, 99, 12345));

// ---------------------------------------------------------------------------
// SGD losses: analytic gradients match finite differences.

class GradientCheckTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<ml::LossFunction> MakeLoss() const {
    switch (GetParam()) {
      case 0:
        return std::make_unique<ml::HingeLoss>();
      case 1:
        return std::make_unique<ml::LogisticLoss>();
      default:
        return std::make_unique<ml::SquaredLoss>();
    }
  }
};

TEST_P(GradientCheckTest, AnalyticMatchesNumeric) {
  auto loss = MakeLoss();
  Random rng(static_cast<uint64_t>(GetParam()) + 5);
  constexpr double kEps = 1e-6;
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ml::LabeledPoint point;
    point.label = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    ml::DenseVector weights;
    for (int f = 0; f < 3; ++f) {
      point.features.push_back(rng.NextGaussian());
      weights.push_back(rng.NextGaussian() * 0.5);
    }
    const double intercept = rng.NextGaussian() * 0.5;

    // Hinge loss is non-differentiable at margin == 1; skip near the kink.
    if (GetParam() == 0) {
      const double y = point.label > 0.5 ? 1.0 : -1.0;
      const double margin = ml::Dot(weights, point.features) + intercept;
      if (std::fabs(1.0 - y * margin) < 1e-3) continue;
    }
    ++checked;

    ml::DenseVector grad(3, 0.0);
    double grad_intercept = 0.0;
    (void)loss->AddGradient(weights, intercept, point, &grad, &grad_intercept);

    auto loss_at = [&](const ml::DenseVector& w, double b) {
      ml::DenseVector scratch(3, 0.0);
      double scratch_b = 0.0;
      return loss->AddGradient(w, b, point, &scratch, &scratch_b);
    };
    for (int f = 0; f < 3; ++f) {
      ml::DenseVector plus = weights;
      ml::DenseVector minus = weights;
      plus[static_cast<size_t>(f)] += kEps;
      minus[static_cast<size_t>(f)] -= kEps;
      const double numeric =
          (loss_at(plus, intercept) - loss_at(minus, intercept)) / (2 * kEps);
      EXPECT_NEAR(grad[static_cast<size_t>(f)], numeric, 1e-4)
          << "feature " << f;
    }
    const double numeric_b =
        (loss_at(weights, intercept + kEps) -
         loss_at(weights, intercept - kEps)) /
        (2 * kEps);
    EXPECT_NEAR(grad_intercept, numeric_b, 1e-4);
  }
  EXPECT_GT(checked, 150);
}

std::string LossName(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0:
      return "Hinge";
    case 1:
      return "Logistic";
    default:
      return "Squared";
  }
}

INSTANTIATE_TEST_SUITE_P(Losses, GradientCheckTest,
                         ::testing::Values(0, 1, 2), LossName);

// ---------------------------------------------------------------------------
// Frame log, send buffer half: order preserved across every capacity, with
// random sizes and a concurrent producer and acking sender.

class SpillQueueSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SpillQueueSweepTest, OrderPreservedUnderRandomTraffic) {
  ScopedTempDir temp("spill_sweep");
  FrameLog::Options options;
  options.send_buffer_bytes = GetParam();
  options.replay_window_bytes = GetParam();
  options.spill_enabled = true;
  options.spill_path = temp.path() + "/spill";
  FrameLog log(options);

  Random rng(GetParam());
  constexpr int kFrames = 500;
  std::thread producer([&] {
    Random prng(GetParam() * 3 + 1);
    for (int i = 0; i < kFrames; ++i) {
      std::string frame = std::to_string(i) + ":" +
                          prng.NextString(prng.Uniform(64));
      ASSERT_TRUE(log.Append(std::move(frame), 1).ok());
      if (prng.Bernoulli(0.1)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    log.Close();
  });
  int expected = 0;
  for (;;) {
    auto read = log.Next();
    ASSERT_TRUE(read.ok());
    if (!read->has_value()) break;
    const std::string text((*read)->frame);
    const int id = std::stoi(text.substr(0, text.find(':')));
    EXPECT_EQ(id, expected++);
    if (rng.Bernoulli(0.2)) log.Ack((*read)->seq);
    if (rng.Bernoulli(0.05)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  producer.join();
  EXPECT_EQ(expected, kFrames);
}

INSTANTIATE_TEST_SUITE_P(Capacities, SpillQueueSweepTest,
                         ::testing::Values(16, 64, 256, 4096, 1 << 20));

// ---------------------------------------------------------------------------
// Frame log, replay half: under an arbitrary interleaving of sends and
// cumulative acks, (a) the in-memory footprint of sent frames never exceeds
// replay_window_bytes — excess retention moves to the spill file — and (b)
// rewinding to the ack always reproduces exactly the unacked suffix, in
// order, byte for byte.

class ReplayWindowPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayWindowPropertyTest, MemoryBoundHoldsUnderRandomTraffic) {
  Random rng(GetParam() * 7919 + 11);
  ScopedTempDir temp("replay_window_prop");
  FrameLog::Options options;
  options.send_buffer_bytes = 1 << 20;
  options.replay_window_bytes = 1 + rng.Uniform(2048);
  options.spill_enabled = true;
  options.spill_path = temp.path() + "/window";
  FrameLog log(options);

  std::map<uint64_t, std::pair<uint64_t, std::string>> retained;  // seq→frame
  uint64_t next_seq = 1;
  uint64_t acked = 0;
  for (int op = 0; op < 400; ++op) {
    if (rng.Bernoulli(0.7)) {
      // Frame sizes straddle the budget: some runs send single frames
      // larger than the whole window, which must spill immediately.
      std::string frame =
          rng.NextString(1 + rng.Uniform(options.replay_window_bytes + 64));
      const uint64_t rows = 1 + rng.Uniform(100);
      ASSERT_TRUE(log.Append(frame, rows).ok());
      auto read = log.Next();
      ASSERT_TRUE(read.ok() && read->has_value());
      EXPECT_EQ((*read)->seq, next_seq);
      EXPECT_EQ((*read)->frame, frame);
      retained[next_seq] = {rows, std::move(frame)};
      ++next_seq;
    } else {
      acked += rng.Uniform(next_seq - acked);  // Never past the last frame.
      log.Ack(acked);
      retained.erase(retained.begin(), retained.lower_bound(acked + 1));
    }
    ASSERT_LE(log.state().retained_memory_bytes, options.replay_window_bytes)
        << "after op " << op << " (seq " << next_seq << ", acked " << acked
        << ")";
  }

  log.Close();
  ASSERT_EQ(log.Rewind(acked), acked);
  auto it = retained.begin();
  uint64_t replay_rows = 0;
  for (;;) {
    auto read = log.Next();
    ASSERT_TRUE(read.ok()) << read.status();
    if (!read->has_value()) break;
    ASSERT_NE(it, retained.end());
    EXPECT_EQ((*read)->seq, it->first);
    EXPECT_EQ((*read)->rows, it->second.first);
    EXPECT_EQ((*read)->frame, it->second.second);
    EXPECT_TRUE((*read)->replay);
    replay_rows += (*read)->rows;
    ++it;
  }
  EXPECT_EQ(it, retained.end());
  ASSERT_TRUE(log.RowsThrough(log.state().produced).ok());
  EXPECT_EQ(*log.RowsThrough(log.state().produced),
            *log.RowsThrough(acked) + replay_rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayWindowPropertyTest,
                         ::testing::Range<uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// Frame log, whole: seeded single-thread schedules of append, send-next,
// cumulative ack and rewind, checked step by step against a reference
// model of both memory limits. Spill is on and there is no budget, so
// Append never blocks and the schedule alone decides every interleaving.

class FrameLogPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrameLogPropertyTest, SeededSchedulesKeepBothLimits) {
  Random rng(GetParam() * 104729 + 7);
  ScopedTempDir temp("frame_log_prop");
  FrameLog::Options options;
  options.send_buffer_bytes = 1 + rng.Uniform(512);
  options.replay_window_bytes = 1 + rng.Uniform(512);
  options.spill_enabled = true;
  options.spill_path = temp.path() + "/log";
  const size_t max_frame =
      2 * std::max(options.send_buffer_bytes, options.replay_window_bytes);

  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter* append_spills = metrics.GetCounter("stream.spill.spilled_frames");
  Counter* drains = metrics.GetCounter("stream.spill.drained_frames");
  Counter* retention_spills =
      metrics.GetCounter("stream.replay_window.spilled_frames");
  const int64_t append_spills_before = append_spills->value();
  const int64_t drains_before = drains->value();
  const int64_t retention_spills_before = retention_spills->value();

  // The reference model: every frame's bytes, rows and medium, plus the
  // cursors and the in-memory byte counts of both halves.
  struct ModelFrame {
    std::string bytes;
    uint64_t rows = 0;
    bool in_memory = true;
  };
  std::vector<ModelFrame> frames;  // frames[seq - 1]
  uint64_t acked = 0, cursor = 0, sent = 0;
  size_t unsent_memory = 0, retained_memory = 0;
  int unsent_in_memory = 0;
  int64_t want_append_spills = 0, want_drains = 0, want_retention_spills = 0;

  {
    FrameLog log(options);
    for (int step = 0; step < 600; ++step) {
      const uint64_t op = rng.Uniform(100);
      const uint64_t produced = frames.size();
      if (op < 45) {
        ModelFrame frame;
        frame.bytes = rng.NextString(1 + rng.Uniform(max_frame));
        frame.rows = rng.Uniform(50);
        ASSERT_TRUE(log.Append(frame.bytes, frame.rows).ok());
        frame.in_memory =
            unsent_memory == 0 ||
            unsent_memory + frame.bytes.size() <= options.send_buffer_bytes;
        if (frame.in_memory) {
          unsent_memory += frame.bytes.size();
          ++unsent_in_memory;
        } else {
          ++want_append_spills;
        }
        frames.push_back(std::move(frame));
      } else if (op < 75 && cursor < produced) {
        auto read = log.Next();
        ASSERT_TRUE(read.ok() && read->has_value()) << read.status();
        const uint64_t seq = ++cursor;
        ModelFrame& frame = frames[seq - 1];
        EXPECT_EQ((*read)->seq, seq);
        EXPECT_EQ((*read)->rows, frame.rows);
        EXPECT_EQ((*read)->frame, frame.bytes) << "seq " << seq;
        EXPECT_EQ((*read)->replay, seq <= sent);
        if (seq > sent) {
          sent = seq;
          if (frame.in_memory) {
            unsent_memory -= frame.bytes.size();
            --unsent_in_memory;
            retained_memory += frame.bytes.size();
          } else {
            ++want_drains;
          }
          // Oldest sent frames in memory move to disk first.
          for (uint64_t s = acked + 1;
               s <= sent && retained_memory > options.replay_window_bytes;
               ++s) {
            if (!frames[s - 1].in_memory) continue;
            frames[s - 1].in_memory = false;
            retained_memory -= frames[s - 1].bytes.size();
            ++want_retention_spills;
          }
        }
      } else if (op < 90) {
        const uint64_t to = acked + rng.Uniform(sent - acked + 1);
        log.Ack(to);
        for (uint64_t s = acked + 1; s <= to; ++s) {
          if (frames[s - 1].in_memory) {
            retained_memory -= frames[s - 1].bytes.size();
          }
        }
        acked = std::max(acked, to);
        cursor = std::max(cursor, acked);
      } else {
        const uint64_t resume = acked + rng.Uniform(sent - acked + 1);
        ASSERT_EQ(log.Rewind(resume), resume);
        cursor = resume;
      }

      SCOPED_TRACE("step " + std::to_string(step));
      const FrameLog::State state = log.state();
      ASSERT_EQ(state.acked, acked);
      ASSERT_EQ(state.sent, sent);
      ASSERT_EQ(state.produced, frames.size());
      ASSERT_EQ(state.unsent_memory_bytes, unsent_memory);
      ASSERT_TRUE(unsent_memory <= options.send_buffer_bytes ||
                  unsent_in_memory == 1)
          << unsent_memory << " unsent bytes in " << unsent_in_memory
          << " frames";
      ASSERT_EQ(state.retained_memory_bytes, retained_memory);
      ASSERT_LE(retained_memory, options.replay_window_bytes);
      const uint64_t through = acked + rng.Uniform(frames.size() - acked + 1);
      uint64_t want_rows = 0;
      for (uint64_t s = 1; s <= through; ++s) want_rows += frames[s - 1].rows;
      auto rows = log.RowsThrough(through);
      ASSERT_TRUE(rows.ok()) << rows.status();
      ASSERT_EQ(*rows, want_rows) << "through " << through;
    }
    EXPECT_EQ(log.state().spilled_frames, want_append_spills);
  }

  EXPECT_EQ(append_spills->value() - append_spills_before, want_append_spills);
  EXPECT_EQ(drains->value() - drains_before, want_drains);
  EXPECT_EQ(retention_spills->value() - retention_spills_before,
            want_retention_spills);
  EXPECT_TRUE(std::filesystem::is_empty(temp.path()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameLogPropertyTest,
                         ::testing::Range<uint64_t>(0, 16));

// The product shape: one producer thread appends under a spill budget while
// one sender thread reads, acks with a lag and now and then rewinds to its
// ack as a reconnect would. Every frame arrives in order with its rows, and
// the log returns the whole budget and leaves no file.
TEST(FrameLogThreadTest, ProducerAndAckingSenderAgreeOnEveryFrame) {
  ScopedTempDir temp("frame_log_threads");
  auto budget = std::make_shared<ByteBudget>(2048);
  constexpr int kFrames = 3000;
  {
    FrameLog::Options options;
    options.send_buffer_bytes = 256;
    options.replay_window_bytes = 512;
    options.spill_enabled = true;
    options.spill_path = temp.path() + "/log";
    options.spill_budget = budget;
    FrameLog log(options);
    std::thread producer([&] {
      Random rng(17);
      for (int i = 0; i < kFrames; ++i) {
        std::string frame =
            std::to_string(i) + ":" + rng.NextString(rng.Uniform(300));
        ASSERT_TRUE(log.Append(std::move(frame), i % 5 + 1).ok());
      }
      log.Close();
    });
    Random rng(23);
    uint64_t expected = 1;
    int rewinds = 0;
    for (;;) {
      auto read = log.Next();
      ASSERT_TRUE(read.ok()) << read.status();
      if (!read->has_value()) break;
      const uint64_t seq = (*read)->seq;
      ASSERT_EQ(seq, expected);
      const std::string text((*read)->frame);
      EXPECT_EQ(std::stoull(text.substr(0, text.find(':'))), seq - 1);
      EXPECT_EQ((*read)->rows, (seq - 1) % 5 + 1);
      ++expected;
      if (rng.Bernoulli(0.3)) log.Ack(seq - rng.Uniform(std::min<uint64_t>(seq, 8)));
      if (rng.Bernoulli(0.01)) {
        expected = log.Rewind(log.state().acked) + 1;
        ++rewinds;
      }
    }
    producer.join();
    EXPECT_EQ(expected, static_cast<uint64_t>(kFrames) + 1);
    EXPECT_GT(rewinds, 0);
    uint64_t rows = 0;
    for (int i = 0; i < kFrames; ++i) rows += i % 5 + 1;
    EXPECT_EQ(*log.RowsThrough(kFrames), rows);
  }
  EXPECT_EQ(budget->used(), 0);
  EXPECT_TRUE(std::filesystem::is_empty(temp.path()));
}

// ---------------------------------------------------------------------------
// RetryPolicy: backoff schedule invariants over random configurations.
// NextDelay() never sleeps, so these sweeps run the full schedule instantly.

class RetryPolicyPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// A random but sane configuration derived from the test seed.
  static RetryPolicy::Options RandomOptions(Random* rng) {
    RetryPolicy::Options options;
    options.initial_delay_ms = rng->UniformInt(1, 50);
    options.max_delay_ms =
        options.initial_delay_ms + rng->UniformInt(0, 1000);
    options.multiplier = 1.0 + rng->NextDouble() * 3.0;
    options.jitter = rng->NextDouble() * 0.5;
    options.deadline_ms = rng->UniformInt(1, 5000);
    options.max_attempts = 0;  // Deadline-bounded.
    options.seed = rng->NextUint64();
    return options;
  }

  static std::vector<int64_t> DrainSchedule(RetryPolicy* policy) {
    std::vector<int64_t> delays;
    while (auto delay = policy->NextDelay()) {
      delays.push_back(delay->count());
      if (delays.size() >= 100000u) {
        ADD_FAILURE() << "schedule failed to terminate";
        break;
      }
    }
    return delays;
  }
};

TEST_P(RetryPolicyPropertyTest, DelaysAreMonotoneAndCappedWithoutJitter) {
  Random rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    RetryPolicy::Options options = RandomOptions(&rng);
    options.jitter = 0.0;  // Pure exponential: strict monotonicity holds.
    RetryPolicy policy(options);
    const std::vector<int64_t> delays = DrainSchedule(&policy);
    ASSERT_FALSE(delays.empty());
    for (size_t i = 0; i < delays.size(); ++i) {
      EXPECT_GE(delays[i], 1);
      EXPECT_LE(delays[i], std::max<int64_t>(1, options.max_delay_ms));
      // Nondecreasing until the deadline clamp shrinks the final delay.
      if (i > 0 && i + 1 < delays.size()) {
        EXPECT_GE(delays[i], delays[i - 1]) << "attempt " << i;
      }
    }
  }
}

TEST_P(RetryPolicyPropertyTest, TotalDelayRespectsDeadline) {
  Random rng(GetParam() * 17 + 5);
  for (int trial = 0; trial < 50; ++trial) {
    const RetryPolicy::Options options = RandomOptions(&rng);
    RetryPolicy policy(options);
    const std::vector<int64_t> delays = DrainSchedule(&policy);
    int64_t total = 0;
    for (const int64_t delay : delays) total += delay;
    // The schedule spends the whole budget and not a millisecond more.
    EXPECT_LE(total, options.deadline_ms);
    EXPECT_EQ(total, policy.total_delay_ms());
    EXPECT_EQ(static_cast<int>(delays.size()), policy.attempts());
    // Exhaustion is permanent.
    EXPECT_FALSE(policy.NextDelay().has_value());
    EXPECT_FALSE(policy.NextDelay().has_value());
  }
}

TEST_P(RetryPolicyPropertyTest, FixedSeedReproducesJitterExactly) {
  Random rng(GetParam() * 101 + 13);
  for (int trial = 0; trial < 20; ++trial) {
    RetryPolicy::Options options = RandomOptions(&rng);
    options.jitter = 0.25;
    RetryPolicy a(options);
    RetryPolicy b(options);
    const std::vector<int64_t> schedule_a = DrainSchedule(&a);
    const std::vector<int64_t> schedule_b = DrainSchedule(&b);
    EXPECT_EQ(schedule_a, schedule_b);

    options.seed += 1;
    RetryPolicy c(options);
    const std::vector<int64_t> schedule_c = DrainSchedule(&c);
    // A different seed produces a different jitter pattern whenever the
    // schedule is long enough for jitter to matter.
    if (schedule_a.size() >= 4) {
      EXPECT_NE(schedule_a, schedule_c) << "seed " << options.seed;
    }
  }
}

TEST_P(RetryPolicyPropertyTest, MaxAttemptsCapsTheSchedule) {
  Random rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    RetryPolicy::Options options = RandomOptions(&rng);
    options.deadline_ms = 1000000000;  // Effectively unbounded (~11 days).
    options.max_attempts = static_cast<int>(rng.UniformInt(1, 8));
    RetryPolicy policy(options);
    const std::vector<int64_t> delays = DrainSchedule(&policy);
    EXPECT_EQ(static_cast<int>(delays.size()), options.max_attempts);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetryPolicyPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 42, 1234));

// ---------------------------------------------------------------------------
// SQL differential testing: the parallel engine vs a nested-loop reference.

class SqlDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("sql_diff");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);
  }

  /// Two small random tables: t1(k INT, a INT, s STRING), t2(k INT, b INT).
  void MakeTables(Random* rng) {
    auto s1 = Schema::Make({{"k", DataType::kInt64},
                            {"a", DataType::kInt64},
                            {"s", DataType::kString}});
    t1_ = engine_->MakeTable("t1", s1);
    const int n1 = static_cast<int>(rng->UniformInt(0, 60));
    for (int i = 0; i < n1; ++i) {
      t1_->AppendRow(static_cast<size_t>(i) % 4,
                     Row{Value::Int64(rng->UniformInt(0, 9)),
                         Value::Int64(rng->UniformInt(-20, 20)),
                         Value::String(std::string(1, static_cast<char>(
                                                          'a' + rng->Uniform(4))))});
    }
    engine_->catalog()->PutTable(t1_);
    auto s2 =
        Schema::Make({{"k", DataType::kInt64}, {"b", DataType::kInt64}});
    t2_ = engine_->MakeTable("t2", s2);
    const int n2 = static_cast<int>(rng->UniformInt(0, 40));
    for (int i = 0; i < n2; ++i) {
      t2_->AppendRow(static_cast<size_t>(i) % 4,
                     Row{Value::Int64(rng->UniformInt(0, 9)),
                         Value::Int64(rng->UniformInt(-20, 20))});
    }
    engine_->catalog()->PutTable(t2_);
  }

  /// Reference evaluation: nested-loop join of t1 x t2, WHERE via the same
  /// expression evaluator over concatenated rows, then projection.
  std::multiset<std::string> ReferenceJoin(const std::string& where,
                                           const std::vector<std::string>& cols) {
    NameScope scope;
    scope.AddRelation("x", t1_->schema());
    scope.AddRelation("y", t2_->schema());
    auto registry = ScalarFunctionRegistry::WithBuiltins();
    BoundExprPtr predicate;
    if (!where.empty()) {
      auto expr = ParseExpression(where);
      EXPECT_TRUE(expr.ok());
      auto bound = BindExpression(**expr, scope, *registry);
      EXPECT_TRUE(bound.ok()) << bound.status();
      predicate = *bound;
    }
    std::vector<BoundExprPtr> projections;
    for (const std::string& col : cols) {
      auto expr = ParseExpression(col);
      EXPECT_TRUE(expr.ok());
      auto bound = BindExpression(**expr, scope, *registry);
      EXPECT_TRUE(bound.ok()) << bound.status();
      projections.push_back(*bound);
    }
    std::multiset<std::string> out;
    for (const Row& left : t1_->GatherRows()) {
      for (const Row& right : t2_->GatherRows()) {
        Row combined = left;
        combined.insert(combined.end(), right.begin(), right.end());
        if (predicate != nullptr) {
          auto keep = predicate->Evaluate(combined);
          EXPECT_TRUE(keep.ok());
          if (!IsTruthy(*keep)) continue;
        }
        std::string rendered;
        for (const BoundExprPtr& projection : projections) {
          auto value = projection->Evaluate(combined);
          EXPECT_TRUE(value.ok());
          rendered += value->ToString();
          rendered += "|";
        }
        out.insert(std::move(rendered));
      }
    }
    return out;
  }

  std::multiset<std::string> EngineRows(const std::string& sql) {
    auto result = engine_->ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    std::multiset<std::string> out;
    if (!result.ok()) return out;
    for (const Row& row : (*result)->GatherRows()) {
      std::string rendered;
      for (const Value& value : row) {
        rendered += value.ToString();
        rendered += "|";
      }
      out.insert(std::move(rendered));
    }
    return out;
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
  TablePtr t1_;
  TablePtr t2_;
};

TEST_P(SqlDifferentialTest, RandomJoinFilterQueriesMatchReference) {
  Random rng(GetParam());
  MakeTables(&rng);
  const std::vector<std::string> predicates = {
      "",
      "x.k = y.k",
      "x.k = y.k AND x.a > 0",
      "x.k = y.k AND x.s = 'a'",
      "x.a < y.b",
      "x.k = y.k AND (x.a > 5 OR y.b < 0)",
      "x.k = y.k AND x.a BETWEEN -5 AND 5",
      "NOT x.s = 'b' AND x.k = y.k",
      "x.a + y.b > 10",
  };
  const std::vector<std::string> cols = {"x.a", "y.b", "x.s", "x.a + y.b"};
  for (const std::string& predicate : predicates) {
    std::string sql = "SELECT x.a, y.b, x.s, x.a + y.b FROM t1 x, t2 y";
    if (!predicate.empty()) sql += " WHERE " + predicate;
    EXPECT_EQ(EngineRows(sql), ReferenceJoin(predicate, cols))
        << "seed=" << GetParam() << " predicate: " << predicate;
  }
}

TEST_P(SqlDifferentialTest, DistinctMatchesSetSemantics) {
  Random rng(GetParam() * 7 + 3);
  MakeTables(&rng);
  auto reference = ReferenceJoin("", {"x.k", "x.s"});
  std::set<std::string> expected(reference.begin(), reference.end());
  auto actual = EngineRows("SELECT DISTINCT x.k, x.s FROM t1 x, t2 y");
  std::set<std::string> actual_set(actual.begin(), actual.end());
  EXPECT_EQ(actual.size(), actual_set.size()) << "DISTINCT left duplicates";
  if (t2_->TotalRows() > 0) {
    EXPECT_EQ(actual_set, expected);
  } else {
    EXPECT_TRUE(actual_set.empty());
  }
}

TEST_P(SqlDifferentialTest, GroupByMatchesManualAggregation) {
  Random rng(GetParam() * 13 + 1);
  MakeTables(&rng);
  std::map<int64_t, std::pair<int64_t, int64_t>> expected;  // k -> (count, sum).
  for (const Row& row : t1_->GatherRows()) {
    auto& [count, sum] = expected[row[0].int64_value()];
    ++count;
    sum += row[1].int64_value();
  }
  auto result = engine_->ExecuteSql(
      "SELECT k, COUNT(*) AS c, SUM(a) AS s FROM t1 GROUP BY k");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->TotalRows(), expected.size());
  for (const Row& row : (*result)->GatherRows()) {
    const auto it = expected.find(row[0].int64_value());
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(row[1].int64_value(), it->second.first);
    EXPECT_EQ(row[2].int64_value(), it->second.second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ---------------------------------------------------------------------------
// Selection-vector kernels of the vectorized executor: the batch kernels
// must agree with the boxed row semantics they replace.

class BatchKernelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchKernelPropertyTest, FilterToSelectionMatchesRowTruthiness) {
  Random rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    // A one-column predicate batch; sometimes deliberately non-bool, which
    // must select nothing (IsTruthy rejects non-bools).
    const DataType type =
        rng.Bernoulli(0.7) ? DataType::kBool
                           : static_cast<DataType>(rng.UniformInt(0, 3));
    auto schema = Schema::Make({{"p", type}});
    std::vector<Row> rows;
    const size_t n = rng.Uniform(200);
    for (size_t i = 0; i < n; ++i) rows.push_back(RandomRow(&rng, *schema));
    auto batch = ColumnBatch::FromRows(schema, rows);
    ASSERT_TRUE(batch.ok()) << batch.status();

    std::vector<int32_t> sel;
    FilterToSelection(batch->column(0), batch->num_rows(), &sel);

    std::vector<int32_t> expected;
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      const Value v = batch->ValueAt(r, 0);
      if (IsTruthy(v)) expected.push_back(static_cast<int32_t>(r));
    }
    EXPECT_EQ(sel, expected) << "round " << round;
  }
}

TEST_P(BatchKernelPropertyTest, AppendGatherMatchesRowByRowAppend) {
  Random rng(GetParam() * 31 + 7);
  for (int round = 0; round < 20; ++round) {
    SchemaPtr schema = RandomSchema(&rng);
    std::vector<Row> rows;
    const size_t n = rng.Uniform(300);
    for (size_t i = 0; i < n; ++i) rows.push_back(RandomRow(&rng, *schema));
    auto src = ColumnBatch::FromRows(schema, rows);
    ASSERT_TRUE(src.ok()) << src.status();

    // A random selection, possibly with repeats and out of order.
    std::vector<int32_t> sel;
    const size_t picks = rng.Uniform(n + 1);
    for (size_t i = 0; i < picks; ++i) {
      sel.push_back(static_cast<int32_t>(rng.Uniform(n)));
    }

    ColumnBatch gathered;
    gathered.Reset(schema);
    ASSERT_TRUE(gathered.AppendGather(*src, sel.data(), sel.size()).ok());

    ColumnBatch appended;
    appended.Reset(schema);
    Row boxed;
    for (const int32_t r : sel) {
      src->EmitRow(static_cast<size_t>(r), &boxed);
      ASSERT_TRUE(appended.AppendRow(boxed).ok());
    }

    ASSERT_EQ(gathered.num_rows(), appended.num_rows());
    for (size_t r = 0; r < gathered.num_rows(); ++r) {
      for (size_t c = 0; c < schema->num_fields(); ++c) {
        EXPECT_EQ(gathered.ValueAt(r, c), appended.ValueAt(r, c))
            << "round " << round << " row " << r << " col " << c;
      }
    }
  }
}

/// A value of `type` that is NULL with probability `null_share`: small
/// ints, doubles that are often zero of either sign, and strings drawn from
/// `distinct` values, so a batch's dictionary is as small as asked.
Value KernelValue(Random* rng, DataType type, double null_share,
                  uint64_t distinct) {
  if (rng->Bernoulli(null_share)) return Value::Null();
  switch (type) {
    case DataType::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case DataType::kInt64:
      return Value::Int64(rng->UniformInt(-3, 3));
    case DataType::kDouble:
      if (rng->Bernoulli(0.3)) {
        return Value::Double(rng->Bernoulli(0.5) ? -0.0 : 0.0);
      }
      return Value::Double(rng->NextGaussian());
    case DataType::kString:
      return Value::String("s" + std::to_string(rng->Uniform(distinct)));
  }
  return Value::Null();
}

/// A batch of `rows` KernelValue rows of `schema`.
ColumnBatch KernelBatch(Random* rng, const SchemaPtr& schema, size_t rows,
                        double null_share, uint64_t distinct) {
  ColumnBatch batch(schema);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (const Field& field : schema->fields()) {
      row.push_back(KernelValue(rng, field.type, null_share, distinct));
    }
    EXPECT_TRUE(batch.AppendRow(row).ok());
  }
  return batch;
}

/// The Column invariants: ceil(rows/64) null words, no bit set past the
/// row count, one value per row, and a zero placeholder under every NULL.
void ExpectColumnInvariants(const ColumnBatch& batch, const std::string& at) {
  const size_t rows = batch.num_rows();
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const Column& col = batch.column(c);
    ASSERT_EQ(col.null_words.size(), (rows + 63) / 64) << at << " col " << c;
    if (rows % 64 != 0) {
      EXPECT_EQ(col.null_words.back() >> (rows % 64), 0u)
          << at << " col " << c << ": NULL bits past the row count";
    }
    size_t values = 0;
    switch (col.type) {
      case DataType::kBool:
        values = col.bools.size();
        break;
      case DataType::kInt64:
        values = col.ints.size();
        break;
      case DataType::kDouble:
        values = col.doubles.size();
        break;
      case DataType::kString:
        values = col.codes.size();
        break;
    }
    ASSERT_EQ(values, rows) << at << " col " << c;
    for (size_t r = 0; r < rows; ++r) {
      if (!col.IsNull(r)) continue;
      bool zero = true;
      switch (col.type) {
        case DataType::kBool:
          zero = col.bools[r] == 0;
          break;
        case DataType::kInt64:
          zero = col.ints[r] == 0;
          break;
        case DataType::kDouble:
          zero = col.doubles[r] == 0.0;
          break;
        case DataType::kString:
          zero = col.codes[r] == 0;
          break;
      }
      EXPECT_TRUE(zero) << at << " col " << c << " row " << r
                        << ": NULL without a zero placeholder";
    }
  }
}

// Many gathers into one destination, as a join's build, a group table's
// one-row inserts and LIMIT make them: sources of up to a few thousand rows
// with no, few or only NULLs and string dictionaries smaller or larger than
// a gather, one-row gathers from the large source, repeated and
// out-of-order rows, and destination row counts off a multiple of 64.
TEST_P(BatchKernelPropertyTest, RepeatedGathersMatchRowByRowAppend) {
  Random rng(GetParam() * 53 + 11);
  const double kNullShares[] = {0.0, 0.02, 1.0};
  for (int round = 0; round < 12; ++round) {
    SchemaPtr schema = RandomSchema(&rng);
    const double null_share = kNullShares[round % 3];
    const size_t n = 1 + rng.Uniform(4000);
    const uint64_t distinct = rng.Bernoulli(0.5) ? 3 : 5000;
    const ColumnBatch src = KernelBatch(&rng, schema, n, null_share, distinct);
    ColumnBatch gathered(schema);
    ColumnBatch appended(schema);
    Row boxed;
    for (int step = 0; step < 8; ++step) {
      std::vector<int32_t> sel;
      const size_t picks = step % 3 == 0   ? 1
                           : step % 3 == 1 ? 1 + rng.Uniform(200)
                                           : rng.Uniform(2 * n);
      for (size_t i = 0; i < picks; ++i) {
        sel.push_back(static_cast<int32_t>(rng.Uniform(n)));
      }
      ASSERT_TRUE(gathered.AppendGather(src, sel.data(), sel.size()).ok());
      for (const int32_t r : sel) {
        src.EmitRow(static_cast<size_t>(r), &boxed);
        ASSERT_TRUE(appended.AppendRow(boxed).ok());
      }
      const std::string at = "round " + std::to_string(round) + " step " +
                             std::to_string(step) + " (" +
                             std::to_string(n) + " source rows)";
      ASSERT_EQ(gathered.num_rows(), appended.num_rows()) << at;
      for (size_t r = 0; r < gathered.num_rows(); ++r) {
        for (size_t c = 0; c < schema->num_fields(); ++c) {
          ASSERT_EQ(gathered.ValueAt(r, c), appended.ValueAt(r, c))
              << at << " row " << r << " col " << c;
        }
      }
      ExpectColumnInvariants(gathered, at);
    }
  }
}

// The column-at-a-time row hash equals the per-row one bit for bit: groups
// route to merge targets by it. String columns come with dictionaries
// smaller than the batch (hashed once per entry) and larger than it (unused
// entries appended, hashed row by row).
TEST_P(BatchKernelPropertyTest, BatchRowHashesMatchBatchRowHash) {
  Random rng(GetParam() * 71 + 3);
  for (int round = 0; round < 20; ++round) {
    SchemaPtr schema = RandomSchema(&rng);
    const size_t n = rng.Uniform(300);
    const double null_share = round % 2 == 0 ? 0.0 : 0.2;
    ColumnBatch batch = KernelBatch(&rng, schema, n, null_share, 5);
    if (round % 4 >= 2) {
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        Column& col = batch.column(c);
        if (col.type != DataType::kString) continue;
        for (size_t i = 0; i <= n; ++i) {
          col.dict.GetOrAdd("unused" + std::to_string(i));
        }
      }
    }
    std::vector<uint64_t> hashes{42};
    BatchRowHashes(batch, &hashes);
    ASSERT_EQ(hashes.size(), n);
    for (size_t r = 0; r < n; ++r) {
      EXPECT_EQ(hashes[r], BatchRowHash(batch, r))
          << "round " << round << " row " << r << " of "
          << batch.schema()->ToString();
    }
  }
}

TEST_P(BatchKernelPropertyTest, RowHashConsistentWithRowEquality) {
  Random rng(GetParam() * 101 + 13);
  auto schema = Schema::Make({{"k", DataType::kInt64},
                              {"s", DataType::kString},
                              {"f", DataType::kBool}});
  // Low-cardinality values so duplicates are common.
  auto random_row = [&] {
    Row row;
    row.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                     : Value::Int64(rng.UniformInt(0, 3)));
    static const char* const kStrings[] = {"a", "b", ""};
    row.push_back(rng.Bernoulli(0.2)
                      ? Value::Null()
                      : Value::String(kStrings[rng.Uniform(3)]));
    row.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                     : Value::Bool(rng.Bernoulli(0.5)));
    return row;
  };
  std::vector<Row> rows_a, rows_b;
  for (int i = 0; i < 60; ++i) rows_a.push_back(random_row());
  // rows_b holds the same logical rows with a prefix of extra rows, so the
  // two batches build different string dictionaries.
  for (int i = 0; i < 10; ++i) rows_b.push_back(random_row());
  rows_b.insert(rows_b.end(), rows_a.begin(), rows_a.end());
  auto a = ColumnBatch::FromRows(schema, rows_a);
  auto b = ColumnBatch::FromRows(schema, rows_b);
  ASSERT_TRUE(a.ok() && b.ok());

  // Equal rows hash equal within a batch...
  for (size_t i = 0; i < a->num_rows(); ++i) {
    for (size_t j = i; j < a->num_rows(); ++j) {
      if (BatchRowsEqual(*a, i, *a, j)) {
        EXPECT_EQ(BatchRowHash(*a, i), BatchRowHash(*a, j)) << i << "," << j;
      }
    }
  }
  // ...and across batches with different dictionaries; row i of `a` is row
  // 10+i of `b` by construction.
  for (size_t i = 0; i < a->num_rows(); ++i) {
    ASSERT_TRUE(BatchRowsEqual(*a, i, *b, 10 + i)) << i;
    EXPECT_EQ(BatchRowHash(*a, i), BatchRowHash(*b, 10 + i)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchKernelPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------------
// The broadcast hash join, the executor's one equi-join, against the naive
// oracle on random tables: small ones with NULL, duplicate and cross-type
// keys, and a build side of two chunks per partition whose string keys keep
// bringing new dictionary entries.

class BroadcastJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("join_prop");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);
  }

  std::multiset<std::string> Render(const std::vector<Row>& rows) {
    std::multiset<std::string> out;
    for (const Row& row : rows) {
      std::string rendered;
      for (const Value& value : row) {
        rendered += value.is_null() ? "NULL" : value.ToString();
        rendered += "|";
      }
      out.insert(std::move(rendered));
    }
    return out;
  }

  std::multiset<std::string> Run(const std::string& sql) {
    auto result = engine_->ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    if (!result.ok()) return {};
    return Render((*result)->GatherRows());
  }

  std::multiset<std::string> RunOracle(const std::string& sql) {
    auto rows = oracle::RunSql(engine_.get(), sql);
    EXPECT_TRUE(rows.ok()) << sql << ": " << rows.status();
    if (!rows.ok()) return {};
    return Render(*rows);
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_P(BroadcastJoinPropertyTest, MatchesOracleOnRandomTables) {
  Random rng(GetParam() * 17 + 5);
  // Random fact/dim pair with NULL keys, duplicate keys, and a double key
  // column so cross-type key comparison (1 vs 1.0) is exercised.
  auto fact_schema = Schema::Make({{"k", DataType::kInt64},
                                   {"x", DataType::kDouble},
                                   {"s", DataType::kString}});
  auto fact = engine_->MakeTable("fact", fact_schema);
  const int nf = static_cast<int>(rng.UniformInt(0, 120));
  for (int i = 0; i < nf; ++i) {
    fact->AppendRow(static_cast<size_t>(i) % 4,
                    Row{rng.Bernoulli(0.15)
                            ? Value::Null()
                            : Value::Int64(rng.UniformInt(0, 8)),
                        Value::Double(rng.NextGaussian()),
                        Value::String(std::string(1, static_cast<char>(
                                                         'a' + rng.Uniform(3))))});
  }
  engine_->catalog()->PutTable(fact);

  auto dim_schema =
      Schema::Make({{"k", DataType::kInt64}, {"label", DataType::kString}});
  auto dim = engine_->MakeTable("dim", dim_schema);
  const int nd = static_cast<int>(rng.UniformInt(0, 30));
  for (int i = 0; i < nd; ++i) {
    dim->AppendRow(static_cast<size_t>(i) % 4,
                   Row{rng.Bernoulli(0.15)
                           ? Value::Null()
                           : Value::Int64(rng.UniformInt(0, 8)),
                       Value::String(std::string(1, static_cast<char>(
                                                        'p' + rng.Uniform(3))))});
  }
  engine_->catalog()->PutTable(dim);

  const std::vector<std::string> queries = {
      "SELECT f.k, f.s, d.label FROM fact f JOIN dim d ON f.k = d.k",
      "SELECT f.x, d.label FROM fact f JOIN dim d ON f.k = d.k "
      "WHERE f.x > 0",
      "SELECT DISTINCT f.k, d.label FROM fact f JOIN dim d ON f.k = d.k",
      "SELECT a.k, b.label FROM dim a JOIN dim b ON a.label = b.label",
  };
  for (const std::string& sql : queries) {
    EXPECT_EQ(Run(sql), RunOracle(sql)) << sql;
  }

  // A build side of two chunks per partition, each with its own string
  // dictionary. Row i's key is one of the first i + 1 values (or, 5% of the
  // time, NULL), so the second chunk brings keys the first does not hold.
  // The build gathers every chunk into one batch, remapping each chunk's
  // codes; a dropped chunk or a wrong remap loses or invents matches.
  const auto key = [&](uint64_t bound) {
    return rng.Bernoulli(0.05)
               ? Value::Null()
               : Value::String("v" + std::to_string(rng.Uniform(bound)));
  };
  auto big = engine_->MakeTable("big", Schema::Make({{"k", DataType::kString},
                                                     {"m", DataType::kInt64},
                                                     {"n", DataType::kInt64}}));
  const size_t per_partition = kSqlBatchRows + 300;
  for (size_t p = 0; p < big->num_partitions(); ++p) {
    for (size_t i = 0; i < per_partition; ++i) {
      const Row row{key(i + 1), Value::Int64(rng.UniformInt(0, 3)),
                    Value::Int64(static_cast<int64_t>(p * per_partition + i))};
      ASSERT_TRUE(big->AppendRow(p, row).ok());
    }
  }
  ASSERT_EQ(big->chunks(0).size(), 2u);
  engine_->catalog()->PutTable(big);

  auto probe = engine_->MakeTable("probe",
                                  Schema::Make({{"k", DataType::kString},
                                                {"m", DataType::kInt64},
                                                {"x", DataType::kDouble}}));
  for (size_t i = 0; i < 300; ++i) {
    const Row row{key(per_partition + 50), Value::Int64(rng.UniformInt(0, 3)),
                  Value::Double(rng.NextGaussian())};
    ASSERT_TRUE(probe->AppendRow(i % probe->num_partitions(), row).ok());
  }
  engine_->catalog()->PutTable(probe);

  const std::vector<std::string> multi_chunk_queries = {
      "SELECT p.k, p.x, b.n FROM probe p JOIN big b ON p.k = b.k",
      "SELECT p.x, b.k, b.n FROM probe p JOIN big b "
      "ON p.k = b.k AND p.m = b.m",
      "SELECT b.k, COUNT(*), SUM(p.x) FROM probe p JOIN big b ON p.k = b.k "
      "GROUP BY b.k",
  };
  for (const std::string& sql : multi_chunk_queries) {
    const auto expected = RunOracle(sql);
    EXPECT_FALSE(expected.empty()) << sql;
    EXPECT_EQ(Run(sql), expected) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BroadcastJoinPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// The hash join's index against a nested loop over boxed values: for random
// build and probe batches with duplicate and NULL keys, one or two key
// columns of INT64, DOUBLE or STRING (mismatched types included), zeros of
// both signs and the cross join, the index yields exactly the nested loop's
// (probe row, build row) pairs, in probe order, then build order.

class JoinIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// A key from a small domain, so keys repeat; NULL one time in seven.
Value RandomJoinKey(Random* rng, DataType type) {
  if (rng->Uniform(7) == 0) return Value::Null();
  const int64_t v = rng->UniformInt(0, 4);
  switch (type) {
    case DataType::kInt64:
      return Value::Int64(v);
    case DataType::kDouble:
      if (v == 0) return Value::Double(rng->Bernoulli(0.5) ? -0.0 : 0.0);
      return Value::Double(static_cast<double>(v));
    default:
      return Value::String(std::string(1, static_cast<char>('a' + v)));
  }
}

using JoinPairs = std::vector<std::pair<int32_t, int32_t>>;

/// Value equality per key; a NULL key matches nothing.
JoinPairs NestedLoopJoinPairs(const ColumnBatch& probe,
                              const std::vector<int>& probe_keys,
                              const ColumnBatch& build,
                              const std::vector<int>& build_keys) {
  JoinPairs pairs;
  for (size_t p = 0; p < probe.num_rows(); ++p) {
    for (size_t b = 0; b < build.num_rows(); ++b) {
      bool match = true;
      for (size_t k = 0; k < probe_keys.size() && match; ++k) {
        const Value pv = probe.ValueAt(p, static_cast<size_t>(probe_keys[k]));
        const Value bv = build.ValueAt(b, static_cast<size_t>(build_keys[k]));
        match = !pv.is_null() && !bv.is_null() && pv == bv;
      }
      if (match) {
        pairs.emplace_back(static_cast<int32_t>(p), static_cast<int32_t>(b));
      }
    }
  }
  return pairs;
}

TEST_P(JoinIndexPropertyTest, MatchesANestedLoopInOrder) {
  Random rng(GetParam() * 31 + 7);
  const DataType kKeyTypes[] = {DataType::kInt64, DataType::kDouble,
                                DataType::kString};
  for (int round = 0; round < 40; ++round) {
    // 0 keys is the cross join. Build keys follow a payload column, probe
    // keys lead, so key positions differ between the sides.
    const size_t num_keys = rng.Uniform(3);
    std::vector<Field> build_fields{{"payload", DataType::kInt64}};
    std::vector<Field> probe_fields;
    std::vector<int> build_keys;
    std::vector<int> probe_keys;
    for (size_t k = 0; k < num_keys; ++k) {
      const DataType build_type = kKeyTypes[rng.Uniform(3)];
      const DataType probe_type =
          rng.Uniform(4) == 0 ? kKeyTypes[rng.Uniform(3)] : build_type;
      build_keys.push_back(static_cast<int>(build_fields.size()));
      build_fields.push_back({"b" + std::to_string(k), build_type});
      probe_keys.push_back(static_cast<int>(probe_fields.size()));
      probe_fields.push_back({"p" + std::to_string(k), probe_type});
    }
    probe_fields.push_back({"tag", DataType::kString});
    ColumnBatch build(Schema::Make(build_fields));
    ColumnBatch probe(Schema::Make(probe_fields));
    const int64_t build_rows = rng.UniformInt(0, 40);
    for (int64_t r = 0; r < build_rows; ++r) {
      Row row{Value::Int64(r)};
      for (size_t k = 0; k < num_keys; ++k) {
        row.push_back(RandomJoinKey(&rng, build_fields[k + 1].type));
      }
      ASSERT_TRUE(build.AppendRow(row).ok());
    }
    const int64_t probe_rows = rng.UniformInt(0, 40);
    for (int64_t r = 0; r < probe_rows; ++r) {
      Row row;
      for (size_t k = 0; k < num_keys; ++k) {
        row.push_back(RandomJoinKey(&rng, probe_fields[k].type));
      }
      row.push_back(Value::String("t" + std::to_string(r)));
      ASSERT_TRUE(probe.AppendRow(row).ok());
    }
    const JoinPairs expected =
        NestedLoopJoinPairs(probe, probe_keys, build, build_keys);
    const JoinIndex index(build, build_keys);
    JoinIndex::Scratch scratch;
    std::vector<int32_t> probe_sel{99};
    std::vector<int32_t> build_sel{99};
    index.Probe(probe, probe_keys, &scratch, &probe_sel, &build_sel);
    ASSERT_EQ(probe_sel.size(), build_sel.size());
    JoinPairs got;
    for (size_t i = 0; i < probe_sel.size(); ++i) {
      got.emplace_back(probe_sel[i], build_sel[i]);
    }
    EXPECT_EQ(got, expected) << "round " << round << ", " << num_keys
                             << " keys, build " << build.schema()->ToString()
                             << ", probe " << probe.schema()->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinIndexPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace sqlink
