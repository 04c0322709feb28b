// Edge cases across module boundaries: degenerate cluster sizes, empty
// inputs, single-category variables, and small-scale end-to-end runs.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "cluster/cluster.h"
#include "common/fs_util.h"
#include "common/metrics.h"
#include "pipeline/analytics_pipeline.h"
#include "pipeline/datagen.h"
#include "sql/engine.h"
#include "stream/streaming_transfer.h"
#include "transform/transformer.h"
#include "transform/udfs.h"

namespace sqlink {
namespace {

TEST(ClusterTest, HostNameRoundTrip) {
  ScopedTempDir temp("cluster_test");
  auto cluster = Cluster::Make(3, temp.path());
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->num_nodes(), 3);
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ((*cluster)->NodeFromHostName((*cluster)->HostName(n)), n);
    EXPECT_TRUE(std::filesystem::exists((*cluster)->NodeLocalDir(n)));
  }
  EXPECT_EQ((*cluster)->NodeFromHostName("node9"), -1);
  EXPECT_EQ((*cluster)->NodeFromHostName("othermachine"), -1);
  EXPECT_EQ((*cluster)->NodeFromHostName("nodeX"), -1);
  EXPECT_TRUE(Cluster::Make(0, temp.path()).status().IsInvalidArgument());
}

TEST(MetricsTest, CountersAccumulateAndReset) {
  MetricsRegistry metrics;
  metrics.GetCounter("a")->Increment();
  metrics.GetCounter("a")->Add(4);
  metrics.GetCounter("b")->Add(-2);
  EXPECT_EQ(metrics.Get("a"), 5);
  EXPECT_EQ(metrics.Get("b"), -2);
  EXPECT_EQ(metrics.Get("missing"), 0);
  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.size(), 2u);
  metrics.Reset();
  EXPECT_EQ(metrics.Get("a"), 0);
}

class SingleNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("single_node");
    auto cluster = Cluster::Make(1, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);
    dfs_ = std::make_shared<Dfs>(*cluster, DfsOptions{});
    CartsWorkloadOptions data;
    data.num_users = 50;
    data.num_carts = 500;
    ASSERT_TRUE(GenerateCartsWorkload(engine_.get(), data).ok());
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
  DfsPtr dfs_;
};

TEST_F(SingleNodeTest, FullPipelineOnOneWorker) {
  // n = 1 degenerates every parallel structure to a single lane; the whole
  // paper pipeline must still work (one SQL worker, one ML worker).
  AnalyticsPipeline pipeline(engine_, dfs_);
  TransformRequest request;
  request.prep_sql = CartsPrepQuery();
  request.recode_columns = {"gender", "abandoned"};
  request.codings["gender"] = CodingScheme::kDummy;
  for (ConnectApproach approach :
       {ConnectApproach::kNaive, ConnectApproach::kInSql,
        ConnectApproach::kInSqlStream}) {
    PipelineOptions options;
    options.approach = approach;
    options.use_cache = false;
    auto result = pipeline.Prepare(request, options);
    ASSERT_TRUE(result.ok())
        << ConnectApproachToString(approach) << ": " << result.status();
    EXPECT_GT(result->dataset.TotalRows(), 0u);
  }
}

TEST_F(SingleNodeTest, StreamingWithManySplitsOnOneWorker) {
  StreamTransferOptions options;
  options.splits_per_worker = 4;  // m = 4 ML workers off one SQL worker.
  auto result = StreamingTransfer::Run(engine_.get(),
                                       "SELECT cartid FROM carts", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 500u);
  EXPECT_EQ(result->stats.num_splits, 4);
}

class EdgeCaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("edge_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);
    ASSERT_TRUE(RegisterTransformUdfs(engine_.get()).ok());
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(EdgeCaseTest, EmptyTableThroughEverything) {
  auto empty = engine_->MakeTable(
      "empty", Schema::Make({{"s", DataType::kString},
                             {"v", DataType::kInt64}}));
  ASSERT_TRUE(engine_->catalog()->RegisterTable(empty).ok());
  EXPECT_EQ((*engine_->ExecuteSql("SELECT * FROM empty"))->TotalRows(), 0u);
  EXPECT_EQ((*engine_->ExecuteSql("SELECT DISTINCT s FROM empty"))->TotalRows(),
            0u);
  EXPECT_EQ((*engine_->ExecuteSql(
                 "SELECT a.v FROM empty a, empty b WHERE a.v = b.v"))
                ->TotalRows(),
            0u);
  // Recoding an empty relation yields an empty map.
  InSqlTransformer transformer(engine_);
  auto map = transformer.ComputeRecodeMap("SELECT * FROM empty", {"s"});
  ASSERT_TRUE(map.ok()) << map.status();
  EXPECT_EQ(map->Cardinality("s"), 0);
  // Streaming an empty result delivers zero rows cleanly.
  auto streamed =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM empty");
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(streamed->dataset.TotalRows(), 0u);
}

TEST_F(EdgeCaseTest, SingleCategoryCodingRejected) {
  auto t = engine_->MakeTable(
      "mono", Schema::Make({{"c", DataType::kString}}));
  t->AppendRow(0, Row{Value::String("only")});
  t->AppendRow(1, Row{Value::String("only")});
  ASSERT_TRUE(engine_->catalog()->RegisterTable(t).ok());
  // Recoding works (one value, code 1)...
  InSqlTransformer transformer(engine_);
  auto map = transformer.ComputeRecodeMap("SELECT * FROM mono", {"c"}, "m");
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(*map->Code("c", "only"), 1);
  // ...but dummy coding a 1-level variable is meaningless and rejected.
  auto status = engine_
                    ->ExecuteSql(
                        "SELECT * FROM TABLE(dummy_code((SELECT M.recodeval "
                        "AS c FROM mono T, m M WHERE M.colname = 'c' AND "
                        "T.c = M.colval), 'c:1'))")
                    .status();
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST_F(EdgeCaseTest, WideRecodingManyColumns) {
  // Ten categorical columns in one UDF scan.
  std::vector<Field> fields;
  for (int c = 0; c < 10; ++c) {
    fields.push_back(Field{"c" + std::to_string(c), DataType::kString});
  }
  auto t = engine_->MakeTable("wide", Schema::Make(std::move(fields)));
  for (int i = 0; i < 40; ++i) {
    Row row;
    for (int c = 0; c < 10; ++c) {
      row.push_back(Value::String("v" + std::to_string((i + c) % 3)));
    }
    t->AppendRow(static_cast<size_t>(i) % 4, std::move(row));
  }
  ASSERT_TRUE(engine_->catalog()->RegisterTable(t).ok());
  InSqlTransformer transformer(engine_);
  std::vector<std::string> columns;
  for (int c = 0; c < 10; ++c) columns.push_back("c" + std::to_string(c));
  auto map = transformer.ComputeRecodeMap("SELECT * FROM wide", columns);
  ASSERT_TRUE(map.ok()) << map.status();
  for (const std::string& column : columns) {
    EXPECT_EQ(map->Cardinality(column), 3) << column;
  }
}

TEST_F(EdgeCaseTest, StreamedRowsWithNullsAndNastyStrings) {
  auto t = engine_->MakeTable(
      "nasty", Schema::Make({{"id", DataType::kInt64},
                             {"s", DataType::kString}}));
  t->AppendRow(0, Row{Value::Int64(0), Value::String("comma, \"quote\"")});
  t->AppendRow(1, Row{Value::Int64(1), Value::Null()});
  t->AppendRow(2, Row{Value::Int64(2), Value::String("line\nbreak")});
  t->AppendRow(3, Row{Value::Int64(3), Value::String("")});
  ASSERT_TRUE(engine_->catalog()->RegisterTable(t).ok());
  auto result = StreamingTransfer::Run(engine_.get(), "SELECT * FROM nasty");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->dataset.TotalRows(), 4u);
  bool saw_null = false;
  bool saw_newline = false;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition) {
      if (row[1].is_null()) saw_null = true;
      if (row[1].is_string() &&
          row[1].string_value().find('\n') != std::string::npos) {
        saw_newline = true;
      }
    }
  }
  EXPECT_TRUE(saw_null);     // Binary wire format preserves NULLs...
  EXPECT_TRUE(saw_newline);  // ...and arbitrary bytes, unlike CSV-on-DFS.
}

}  // namespace
}  // namespace sqlink
