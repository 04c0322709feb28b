#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/fs_util.h"
#include "common/random.h"
#include "sql/engine.h"
#include "transform/coding.h"
#include "transform/recode_map.h"
#include "transform/transformer.h"
#include "transform/udfs.h"

namespace sqlink {
namespace {

// --- Coding math ---

TEST(CodingTest, DummyMatrixIsIdentity) {
  auto matrix = CodingMatrix(CodingScheme::kDummy, 3);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(*matrix, (std::vector<std::vector<double>>{
                         {1, 0, 0}, {0, 1, 0}, {0, 0, 1}}));
}

TEST(CodingTest, EffectMatrixReferenceLevel) {
  auto matrix = CodingMatrix(CodingScheme::kEffect, 3);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(*matrix, (std::vector<std::vector<double>>{
                         {1, 0}, {0, 1}, {-1, -1}}));
}

TEST(CodingTest, OrthogonalColumnsAreOrthonormalAndCentered) {
  for (int k : {2, 3, 4, 5, 7}) {
    auto matrix = CodingMatrix(CodingScheme::kOrthogonal, k);
    ASSERT_TRUE(matrix.ok());
    const int cols = k - 1;
    for (int a = 0; a < cols; ++a) {
      double sum = 0;
      for (int row = 0; row < k; ++row) {
        sum += (*matrix)[static_cast<size_t>(row)][static_cast<size_t>(a)];
      }
      EXPECT_NEAR(sum, 0.0, 1e-9) << "k=" << k << " col=" << a;  // Centered.
      for (int b = 0; b < cols; ++b) {
        double dot = 0;
        for (int row = 0; row < k; ++row) {
          dot += (*matrix)[static_cast<size_t>(row)][static_cast<size_t>(a)] *
                 (*matrix)[static_cast<size_t>(row)][static_cast<size_t>(b)];
        }
        EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9)
            << "k=" << k << " (" << a << "," << b << ")";
      }
    }
  }
}

TEST(CodingTest, OrthogonalMatchesRContrPolyForK3) {
  // R: contr.poly(3) -> linear (-0.7071, 0, 0.7071), quadratic
  // (0.4082, -0.8165, 0.4082).
  auto matrix = CodingMatrix(CodingScheme::kOrthogonal, 3);
  ASSERT_TRUE(matrix.ok());
  EXPECT_NEAR((*matrix)[0][0], -1.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR((*matrix)[1][0], 0.0, 1e-9);
  EXPECT_NEAR((*matrix)[2][0], 1.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR((*matrix)[0][1], 1.0 / std::sqrt(6.0), 1e-9);
  EXPECT_NEAR((*matrix)[1][1], -2.0 / std::sqrt(6.0), 1e-9);
  EXPECT_NEAR((*matrix)[2][1], 1.0 / std::sqrt(6.0), 1e-9);
}

TEST(CodingTest, CardinalityOneRejected) {
  EXPECT_TRUE(CodingMatrix(CodingScheme::kDummy, 1).status().IsInvalidArgument());
}

TEST(CodingTest, SchemeNamesRoundTrip) {
  for (CodingScheme s : {CodingScheme::kDummy, CodingScheme::kEffect,
                         CodingScheme::kOrthogonal}) {
    auto parsed = CodingSchemeFromString(CodingSchemeToString(s));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, s);
  }
}

TEST(CodingSpecTest, ParseCountsAndLabels) {
  auto specs = ParseCodedColumnSpecs("gender=F|M, abandoned:2");
  ASSERT_TRUE(specs.ok()) << specs.status();
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].column, "gender");
  EXPECT_EQ((*specs)[0].cardinality, 2);
  EXPECT_EQ((*specs)[0].labels, (std::vector<std::string>{"F", "M"}));
  EXPECT_EQ((*specs)[1].column, "abandoned");
  EXPECT_EQ((*specs)[1].cardinality, 2);
  EXPECT_TRUE((*specs)[1].labels.empty());
}

TEST(CodingSpecTest, RoundTripThroughFormat) {
  auto specs = ParseCodedColumnSpecs("a=x|y|z,b:4");
  ASSERT_TRUE(specs.ok());
  EXPECT_EQ(FormatCodedColumnSpecs(*specs), "a=x|y|z,b:4");
}

TEST(CodingSpecTest, InvalidSpecsRejected) {
  EXPECT_FALSE(ParseCodedColumnSpecs("").ok());
  EXPECT_FALSE(ParseCodedColumnSpecs("gender").ok());
  EXPECT_FALSE(ParseCodedColumnSpecs("gender:1").ok());
  EXPECT_FALSE(ParseCodedColumnSpecs(":3").ok());
  EXPECT_FALSE(ParseCodedColumnSpecs("a:2,,b:2").ok());
}

TEST(CodingSpecTest, GeneratedColumnNames) {
  CodedColumnSpec with_labels{"gender", 2, {"F", "M"}};
  EXPECT_EQ(CodedColumnNames(with_labels, CodingScheme::kDummy),
            (std::vector<std::string>{"gender_F", "gender_M"}));
  // Effect coding drops the reference level's column.
  EXPECT_EQ(CodedColumnNames(with_labels, CodingScheme::kEffect),
            (std::vector<std::string>{"gender_F"}));
  CodedColumnSpec without{"city", 3, {}};
  EXPECT_EQ(CodedColumnNames(without, CodingScheme::kDummy),
            (std::vector<std::string>{"city_1", "city_2", "city_3"}));
}

// --- RecodeMap ---

TEST(RecodeMapTest, AddLookupRoundTrip) {
  RecodeMap map;
  ASSERT_TRUE(map.Add("gender", "F", 1).ok());
  ASSERT_TRUE(map.Add("gender", "M", 2).ok());
  EXPECT_EQ(*map.Code("gender", "F"), 1);
  EXPECT_EQ(*map.Code("gender", "M"), 2);
  EXPECT_TRUE(map.Code("gender", "X").status().IsNotFound());
  EXPECT_TRUE(map.Code("city", "F").status().IsNotFound());
  EXPECT_EQ(map.Cardinality("gender"), 2);
  EXPECT_EQ(map.Cardinality("city"), 0);
  EXPECT_TRUE(map.Add("gender", "F", 3).IsAlreadyExists());
}

TEST(RecodeMapTest, TableRoundTrip) {
  RecodeMap map;
  ASSERT_TRUE(map.Add("gender", "F", 1).ok());
  ASSERT_TRUE(map.Add("gender", "M", 2).ok());
  ASSERT_TRUE(map.Add("abandoned", "No", 2).ok());
  ASSERT_TRUE(map.Add("abandoned", "Yes", 1).ok());
  TablePtr table = map.ToTable("m", 4);
  auto parsed = RecodeMap::FromTable(*table);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, map);
}

TEST(RecodeMapTest, NonConsecutiveCodesRejected) {
  auto table = std::make_shared<Table>("m", RecodeMap::TableSchema(), 1);
  table->AppendRow(0, Row{Value::String("gender"), Value::String("F"),
                          Value::Int64(1)});
  table->AppendRow(0, Row{Value::String("gender"), Value::String("M"),
                          Value::Int64(3)});  // Gap.
  EXPECT_TRUE(RecodeMap::FromTable(*table).status().IsInvalidArgument());
}

TEST(RecodeMapTest, LabelsOrderedByCode) {
  RecodeMap map;
  ASSERT_TRUE(map.Add("abandoned", "Yes", 1).ok());
  ASSERT_TRUE(map.Add("abandoned", "No", 2).ok());
  auto labels = map.Labels("abandoned");
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, (std::vector<std::string>{"Yes", "No"}));
}

// --- UDFs through the engine ---

class TransformUdfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("transform_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);
    ASSERT_TRUE(RegisterTransformUdfs(engine_.get()).ok());

    // Figure 1(a)'s table, spread over partitions.
    auto schema = Schema::Make({{"age", DataType::kInt64},
                                {"gender", DataType::kString},
                                {"amount", DataType::kDouble},
                                {"abandoned", DataType::kString}});
    auto table = engine_->MakeTable("t", schema);
    auto add = [&](int64_t age, const char* g, double amount, const char* ab,
                   size_t part) {
      table->AppendRow(part, Row{Value::Int64(age), Value::String(g),
                                 Value::Double(amount), Value::String(ab)});
    };
    add(57, "F", 153.99, "Yes", 0);
    add(40, "M", 99.50, "Yes", 1);
    add(35, "F", 75.25, "No", 2);
    add(61, "F", 12.00, "No", 3);
    add(22, "M", 300.00, "0" /* odd but valid category */, 0);
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  }

  /// Registers `name(id INT64, lvl INT64)` with row i = (i, levels[i]),
  /// spread over the partitions.
  void AddLevels(const std::string& name, const std::vector<Value>& levels) {
    auto table = engine_->MakeTable(
        name, Schema::Make({{"id", DataType::kInt64},
                            {"lvl", DataType::kInt64}}));
    for (size_t i = 0; i < levels.size(); ++i) {
      table->AppendRow(i % 4, Row{Value::Int64(static_cast<int64_t>(i)),
                                  levels[i]});
    }
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(TransformUdfTest, LocalDistinctEmitsAllValues) {
  auto result = engine_->ExecuteSql(
      "SELECT DISTINCT colname, colval FROM "
      "TABLE(recode_local_distinct((SELECT * FROM t), 'gender,abandoned'))");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<std::pair<std::string, std::string>> pairs;
  for (const Row& row : (*result)->GatherRows()) {
    pairs.emplace(row[0].string_value(), row[1].string_value());
  }
  EXPECT_EQ(pairs.size(), 5u);
  EXPECT_TRUE(pairs.count({"gender", "F"}));
  EXPECT_TRUE(pairs.count({"gender", "M"}));
  EXPECT_TRUE(pairs.count({"abandoned", "Yes"}));
  EXPECT_TRUE(pairs.count({"abandoned", "No"}));
  EXPECT_TRUE(pairs.count({"abandoned", "0"}));
}

TEST_F(TransformUdfTest, LocalDistinctKeepsFirstSeenOrderAcrossBatches) {
  // 3000 rows in one partition, so three input batches, each bringing new
  // values of both columns: the output is every distinct value once, in
  // first-seen order (rows in order, columns in argument order).
  auto table = engine_->MakeTable(
      "wide", Schema::Make({{"a", DataType::kString},
                            {"b", DataType::kString}}));
  std::vector<std::pair<std::string, std::string>> expected;
  std::set<std::pair<std::string, std::string>> seen;
  for (int i = 0; i < 3000; ++i) {
    const Row row{Value::String("a" + std::to_string(i / 2)),
                  Value::String("b" + std::to_string(i / 3))};
    ASSERT_TRUE(table->AppendRow(0, row).ok());
    for (const auto& pair : {std::make_pair(std::string("b"), row[1]),
                             std::make_pair(std::string("a"), row[0])}) {
      if (seen.emplace(pair.first, pair.second.string_value()).second) {
        expected.emplace_back(pair.first, pair.second.string_value());
      }
    }
  }
  ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  auto result = engine_->ExecuteSql(
      "SELECT * FROM TABLE(recode_local_distinct((SELECT a, b FROM wide), "
      "'b,a'))");
  ASSERT_TRUE(result.ok()) << result.status();
  std::vector<std::pair<std::string, std::string>> got;
  for (const Row& row : (*result)->partition(0)) {
    got.emplace_back(row[0].string_value(), row[1].string_value());
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ((*result)->TotalRows(), expected.size());
}

TEST_F(TransformUdfTest, LocalDistinctRejectsNumericColumn) {
  auto status = engine_
                    ->ExecuteSql(
                        "SELECT * FROM TABLE(recode_local_distinct("
                        "(SELECT * FROM t), 'age'))")
                    .status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("categorical"), std::string::npos);
}

TEST_F(TransformUdfTest, FullRecodeMapPipeline) {
  InSqlTransformer transformer(engine_);
  auto map = transformer.ComputeRecodeMap("SELECT * FROM t",
                                          {"gender", "abandoned"});
  ASSERT_TRUE(map.ok()) << map.status();
  // Sorted assignment: F=1, M=2; '0'<'No'<'Yes' lexicographically.
  EXPECT_EQ(*map->Code("gender", "F"), 1);
  EXPECT_EQ(*map->Code("gender", "M"), 2);
  EXPECT_EQ(*map->Code("abandoned", "0"), 1);
  EXPECT_EQ(*map->Code("abandoned", "No"), 2);
  EXPECT_EQ(*map->Code("abandoned", "Yes"), 3);
  EXPECT_EQ(map->Cardinality("abandoned"), 3);
}

TEST_F(TransformUdfTest, PerColumnSqlProducesSameMap) {
  InSqlTransformer transformer(engine_);
  auto fast = transformer.ComputeRecodeMap("SELECT * FROM t",
                                           {"gender", "abandoned"});
  auto slow = transformer.ComputeRecodeMapPerColumnSql(
      "SELECT * FROM t", {"gender", "abandoned"});
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_EQ(*fast, *slow);
}

TEST_F(TransformUdfTest, RecodeMapIsDeterministicAcrossRuns) {
  InSqlTransformer transformer(engine_);
  auto a = transformer.ComputeRecodeMap("SELECT * FROM t", {"gender"});
  auto b = transformer.ComputeRecodeMap("SELECT * FROM t", {"gender"});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(TransformUdfTest, RecodeAssignRejectsScatteredInput) {
  // Without ORDER BY the distinct rows stay scattered over workers.
  auto status = engine_
                    ->ExecuteSql(
                        "SELECT * FROM TABLE(recode_assign((SELECT DISTINCT "
                        "colname, colval FROM TABLE(recode_local_distinct("
                        "(SELECT * FROM t), 'gender,abandoned')))))")
                    .status();
  EXPECT_TRUE(status.IsFailedPrecondition()) << status;
}

TEST_F(TransformUdfTest, DummyCodingMatchesFigure1) {
  // Recoded table of Figure 1(b) via map join, then dummy coding of gender
  // as in Figure 1(c).
  InSqlTransformer transformer(engine_);
  auto map = transformer.ComputeRecodeMap(
      "SELECT * FROM t", {"gender", "abandoned"}, "recode_maps");
  ASSERT_TRUE(map.ok());

  auto result = engine_->ExecuteSql(
      "SELECT * FROM TABLE(dummy_code((SELECT T.age, Mg.recodeval AS gender, "
      "T.amount, Ma.recodeval AS abandoned "
      "FROM t T, recode_maps Mg, recode_maps Ma "
      "WHERE Mg.colname = 'gender' AND T.gender = Mg.colval "
      "AND Ma.colname = 'abandoned' AND T.abandoned = Ma.colval), "
      "'gender=female|male'))");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& schema = *(*result)->schema();
  EXPECT_EQ(schema.ToString(),
            "age:INT64, gender_female:INT64, gender_male:INT64, "
            "amount:DOUBLE, abandoned:INT64");
  ASSERT_EQ((*result)->TotalRows(), 5u);
  for (const Row& row : (*result)->GatherRows()) {
    // Exactly one of the dummy columns is 1.
    EXPECT_EQ(row[1].int64_value() + row[2].int64_value(), 1);
    if (row[0].int64_value() == 57) {  // The 'F' row of Figure 1.
      EXPECT_EQ(row[1], Value::Int64(1));
      EXPECT_EQ(row[2], Value::Int64(0));
    }
    if (row[0].int64_value() == 40) {  // 'M'.
      EXPECT_EQ(row[1], Value::Int64(0));
      EXPECT_EQ(row[2], Value::Int64(1));
    }
  }
}

TEST_F(TransformUdfTest, EffectCodingSumsToMinusOneForReference) {
  InSqlTransformer transformer(engine_);
  auto map =
      transformer.ComputeRecodeMap("SELECT * FROM t", {"abandoned"}, "m2");
  ASSERT_TRUE(map.ok());
  auto result = engine_->ExecuteSql(
      "SELECT * FROM TABLE(effect_code((SELECT T.age, M.recodeval AS "
      "abandoned FROM t T, m2 M WHERE M.colname = 'abandoned' AND "
      "T.abandoned = M.colval), 'abandoned:3'))");
  ASSERT_TRUE(result.ok()) << result.status();
  // 3 levels -> 2 effect columns.
  EXPECT_EQ((*result)->schema()->num_fields(), 3);
  bool saw_reference = false;
  for (const Row& row : (*result)->GatherRows()) {
    const int64_t a = row[1].int64_value();
    const int64_t b = row[2].int64_value();
    if (a == -1 && b == -1) saw_reference = true;
    EXPECT_TRUE((a == 1 && b == 0) || (a == 0 && b == 1) ||
                (a == -1 && b == -1))
        << a << "," << b;
  }
  EXPECT_TRUE(saw_reference);  // 'Yes' is code 3 = reference level.
}

TEST_F(TransformUdfTest, OrthogonalCodingProducesDoubles) {
  InSqlTransformer transformer(engine_);
  auto map = transformer.ComputeRecodeMap("SELECT * FROM t", {"gender"}, "m3");
  ASSERT_TRUE(map.ok());
  auto result = engine_->ExecuteSql(
      "SELECT * FROM TABLE(orthogonal_code((SELECT M.recodeval AS gender "
      "FROM t T, m3 M WHERE M.colname = 'gender' AND T.gender = M.colval), "
      "'gender:2'))");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->schema()->field(0).type, DataType::kDouble);
  for (const Row& row : (*result)->GatherRows()) {
    EXPECT_NEAR(std::abs(row[0].double_value()), 1.0 / std::sqrt(2.0), 1e-9);
  }
}

TEST_F(TransformUdfTest, DummyCodeOutOfRangeValueErrors) {
  auto status = engine_
                    ->ExecuteSql(
                        "SELECT * FROM TABLE(dummy_code((SELECT age FROM t), "
                        "'age:2'))")
                    .status();
  EXPECT_TRUE(status.IsOutOfRange()) << status;  // Ages exceed cardinality 2.
}

TEST_F(TransformUdfTest, CodedColumnsMatchCodingMatrixForEveryLevel) {
  // Row i carries level i + 1; each scheme's UDF must replace it with row
  // i of that scheme's coding matrix and pass the id through.
  constexpr int kLevels = 4;
  std::vector<Value> levels;
  for (int64_t level = 1; level <= kLevels; ++level) {
    levels.push_back(Value::Int64(level));
  }
  AddLevels("levels", levels);
  const std::pair<const char*, CodingScheme> schemes[] = {
      {"dummy_code", CodingScheme::kDummy},
      {"effect_code", CodingScheme::kEffect},
      {"orthogonal_code", CodingScheme::kOrthogonal}};
  for (const auto& [udf, scheme] : schemes) {
    auto matrix = CodingMatrix(scheme, kLevels);
    ASSERT_TRUE(matrix.ok()) << matrix.status();
    auto result = engine_->ExecuteSql(
        "SELECT * FROM TABLE(" + std::string(udf) +
        "((SELECT id, lvl FROM levels), 'lvl:4'))");
    ASSERT_TRUE(result.ok()) << udf << ": " << result.status();
    ASSERT_EQ((*result)->TotalRows(), static_cast<size_t>(kLevels)) << udf;
    for (const Row& row : (*result)->GatherRows()) {
      const int64_t id = row[0].int64_value();
      const std::vector<double>& expected =
          (*matrix)[static_cast<size_t>(id)];
      ASSERT_EQ(row.size(), 1 + expected.size()) << udf;
      for (size_t j = 0; j < expected.size(); ++j) {
        const Value& got = row[1 + j];
        if (scheme == CodingScheme::kOrthogonal) {
          EXPECT_DOUBLE_EQ(got.double_value(), expected[j])
              << udf << " level " << id + 1 << " column " << j;
        } else {
          EXPECT_EQ(got.int64_value(), static_cast<int64_t>(expected[j]))
              << udf << " level " << id + 1 << " column " << j;
        }
      }
    }
  }
}

TEST_F(TransformUdfTest, CodedLevelBelowOneIsOutOfRange) {
  // Recode values start at 1; a 0 reaching the coding UDF is out of range
  // just as a value above the cardinality is.
  AddLevels("levels", {Value::Int64(1), Value::Int64(0), Value::Int64(2)});
  auto status = engine_
                    ->ExecuteSql(
                        "SELECT * FROM TABLE(effect_code((SELECT lvl FROM "
                        "levels), 'lvl:3'))")
                    .status();
  EXPECT_TRUE(status.IsOutOfRange()) << status;
}

TEST_F(TransformUdfTest, CodedNullLevelRejected) {
  // A NULL category has no recode value (the recoding join drops it), so a
  // NULL in a coded column is a malformed input, not a level.
  AddLevels("levels", {Value::Int64(1), Value::Null(), Value::Int64(2)});
  auto status = engine_
                    ->ExecuteSql(
                        "SELECT * FROM TABLE(dummy_code((SELECT lvl FROM "
                        "levels), 'lvl:2'))")
                    .status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("non-integer"), std::string::npos);
}

TEST_F(TransformUdfTest, FirstBadLevelInRowOrderIsReported) {
  // Rows (1, 1), (1, 5), (7, 1) in one partition: reading row by row, left
  // to right, the first bad level is b's 5; a column-at-a-time check would
  // stop at a's 7 first. (AddLevels spreads rows over the partitions, and a
  // query reports the lowest failing worker's error, so build it here.)
  auto table = engine_->MakeTable(
      "t2", Schema::Make({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  for (const auto& [a, b] : {std::pair<int64_t, int64_t>{1, 1},
                             std::pair<int64_t, int64_t>{1, 5},
                             std::pair<int64_t, int64_t>{7, 1}}) {
    ASSERT_TRUE(
        table->AppendRow(0, Row{Value::Int64(a), Value::Int64(b)}).ok());
  }
  ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  auto status = engine_
                    ->ExecuteSql(
                        "SELECT * FROM TABLE(dummy_code((SELECT a, b FROM "
                        "t2), 'a:2,b:2'))")
                    .status();
  EXPECT_TRUE(status.IsOutOfRange()) << status;
  EXPECT_EQ(status.message(), "recoded value 5 outside [1, 2]");
}

TEST_F(TransformUdfTest, DummyCodeRequiresIntColumn) {
  auto status = engine_
                    ->ExecuteSql(
                        "SELECT * FROM TABLE(dummy_code((SELECT gender FROM "
                        "t), 'gender:2'))")
                    .status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("recoded"), std::string::npos);
}

TEST_F(TransformUdfTest, RecodedQueryMatchesManualRecoding) {
  // Property: joining through the recode map reproduces RecodeMap::Code on
  // every row.
  InSqlTransformer transformer(engine_);
  auto map =
      transformer.ComputeRecodeMap("SELECT * FROM t", {"gender"}, "m4");
  ASSERT_TRUE(map.ok());
  auto recoded = engine_->ExecuteSql(
      "SELECT T.gender AS original, M.recodeval AS code FROM t T, m4 M "
      "WHERE M.colname = 'gender' AND T.gender = M.colval");
  ASSERT_TRUE(recoded.ok());
  ASSERT_EQ((*recoded)->TotalRows(), 5u);
  for (const Row& row : (*recoded)->GatherRows()) {
    EXPECT_EQ(row[1].int64_value(),
              *map->Code("gender", row[0].string_value()));
  }
}

}  // namespace
}  // namespace sqlink
