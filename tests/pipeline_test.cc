#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cluster/cluster.h"
#include "common/fs_util.h"
#include "exttool/external_transform.h"
#include "ml/classifiers.h"
#include "ml/evaluation.h"
#include "ml/scaler.h"
#include "pipeline/analytics_pipeline.h"
#include "pipeline/datagen.h"
#include "pipeline/table_io.h"

namespace sqlink {
namespace {

/// Canonical (sorted) row rendering for order-insensitive comparison of
/// datasets produced by different pipelines.
std::vector<std::string> CanonicalRows(const ml::RowDataset& dataset) {
  std::vector<std::string> rows;
  for (const auto& partition : dataset.partitions) {
    for (const Row& row : partition) {
      std::string rendered;
      for (const Value& v : row) {
        rendered += v.ToString();
        rendered += "|";
      }
      rows.push_back(std::move(rendered));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("pipeline_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    cluster_ = *cluster;
    engine_ = SqlEngine::Make(cluster_);
    DfsOptions dfs_options;
    dfs_options.block_size = 1 << 16;
    dfs_ = std::make_shared<Dfs>(cluster_, dfs_options);

    CartsWorkloadOptions workload;
    workload.num_users = 500;
    workload.num_carts = 5000;
    ASSERT_TRUE(GenerateCartsWorkload(engine_.get(), workload).ok());
    pipeline_ = std::make_unique<AnalyticsPipeline>(engine_, dfs_);
  }

  static TransformRequest PaperRequest() {
    TransformRequest request;
    request.prep_sql = CartsPrepQuery();
    request.recode_columns = {"gender", "abandoned"};
    request.codings["gender"] = CodingScheme::kDummy;
    return request;
  }

  std::unique_ptr<ScopedTempDir> temp_;
  ClusterPtr cluster_;
  SqlEnginePtr engine_;
  DfsPtr dfs_;
  std::unique_ptr<AnalyticsPipeline> pipeline_;
};

TEST_F(PipelineTest, AllThreeApproachesProduceIdenticalData) {
  PipelineOptions naive;
  naive.approach = ConnectApproach::kNaive;
  naive.use_cache = false;
  auto naive_result = pipeline_->Prepare(PaperRequest(), naive);
  ASSERT_TRUE(naive_result.ok()) << naive_result.status();

  PipelineOptions insql;
  insql.approach = ConnectApproach::kInSql;
  insql.use_cache = false;
  auto insql_result = pipeline_->Prepare(PaperRequest(), insql);
  ASSERT_TRUE(insql_result.ok()) << insql_result.status();

  PipelineOptions stream;
  stream.approach = ConnectApproach::kInSqlStream;
  stream.use_cache = false;
  auto stream_result = pipeline_->Prepare(PaperRequest(), stream);
  ASSERT_TRUE(stream_result.ok()) << stream_result.status();

  EXPECT_GT(naive_result->dataset.TotalRows(), 0u);
  EXPECT_EQ(CanonicalRows(naive_result->dataset),
            CanonicalRows(insql_result->dataset));
  EXPECT_EQ(CanonicalRows(insql_result->dataset),
            CanonicalRows(stream_result->dataset));

  // Schemas match too (same field names in same order).
  EXPECT_EQ(naive_result->dataset.schema->ToString(),
            insql_result->dataset.schema->ToString());
  EXPECT_EQ(insql_result->dataset.schema->ToString(),
            stream_result->dataset.schema->ToString());

  // Streaming writes nothing to the DFS; the others do.
  EXPECT_GT(naive_result->dfs_bytes_written, 0);
  EXPECT_GT(insql_result->dfs_bytes_written, 0);
  EXPECT_EQ(stream_result->dfs_bytes_written, 0);
  // The naive approach materializes strictly more than insql (prep result
  // plus transformed result vs transformed result only).
  EXPECT_GT(naive_result->dfs_bytes_written, insql_result->dfs_bytes_written);
}

TEST_F(PipelineTest, TimingBreakdownMatchesApproach) {
  PipelineOptions naive;
  naive.approach = ConnectApproach::kNaive;
  auto result = pipeline_->Prepare(PaperRequest(), naive);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->timings.prep_seconds, 0);
  EXPECT_GT(result->timings.transform_seconds, 0);
  EXPECT_GT(result->timings.ml_input_seconds, 0);
  EXPECT_EQ(result->timings.prep_transform_seconds, 0);

  PipelineOptions stream;
  stream.approach = ConnectApproach::kInSqlStream;
  auto stream_result = pipeline_->Prepare(PaperRequest(), stream);
  ASSERT_TRUE(stream_result.ok());
  EXPECT_GT(stream_result->timings.prep_transform_seconds, 0);
  EXPECT_EQ(stream_result->timings.prep_seconds, 0);
  EXPECT_EQ(stream_result->timings.ml_input_seconds, 0);
}

TEST_F(PipelineTest, RecodeMapCacheSpeedsSecondRun) {
  PipelineOptions options;
  options.approach = ConnectApproach::kInSqlStream;
  auto first = pipeline_->Prepare(PaperRequest(), options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->source, QueryRewriter::Source::kComputed);

  auto second = pipeline_->Prepare(PaperRequest(), options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, QueryRewriter::Source::kRecodeMapCache);
  EXPECT_EQ(CanonicalRows(first->dataset), CanonicalRows(second->dataset));
  EXPECT_EQ(pipeline_->cache()->map_hits(), 1);
}

TEST_F(PipelineTest, FullResultCacheServesSubsequentRuns) {
  PipelineOptions options;
  options.approach = ConnectApproach::kInSqlStream;
  options.cache_full_result = true;
  auto first = pipeline_->Prepare(PaperRequest(), options);
  ASSERT_TRUE(first.ok()) << first.status();

  auto second = pipeline_->Prepare(PaperRequest(), options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->source, QueryRewriter::Source::kFullResultCache);
  EXPECT_EQ(CanonicalRows(first->dataset), CanonicalRows(second->dataset));
}

TEST_F(PipelineTest, EndToEndSvmOnPipelineOutput) {
  PipelineOptions options;
  options.approach = ConnectApproach::kInSqlStream;
  auto prepared = pipeline_->Prepare(PaperRequest(), options);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  auto dataset = AnalyticsPipeline::ToDataset(*prepared, "abandoned");
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->dimension(), 4u);  // age, gender_F, gender_M, amount.

  // Standardize before SGD, as one would with MLlib's StandardScaler.
  auto scaler = ml::StandardScaler::Fit(*dataset);
  ASSERT_TRUE(scaler.ok());
  scaler->Transform(&*dataset);

  ml::SgdOptions sgd;
  sgd.iterations = 100;
  auto model = ml::SvmWithSgd::Train(*dataset, sgd);
  ASSERT_TRUE(model.ok()) << model.status();
  // The synthetic label depends on amount; the model must beat chance
  // against the majority baseline.
  const double accuracy = ml::Accuracy(*dataset, [&](const ml::DenseVector& x) {
    return model->model.PredictClass(x);
  });
  EXPECT_GT(accuracy, 0.6);
}

TEST_F(PipelineTest, ModelComparisonReusesCachedResult) {
  // §5.1 motivating case: several classifiers on the same prepared data.
  PipelineOptions options;
  options.approach = ConnectApproach::kInSqlStream;
  options.cache_full_result = true;
  auto first = pipeline_->Prepare(PaperRequest(), options);
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 3; ++run) {
    auto again = pipeline_->Prepare(PaperRequest(), options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->source, QueryRewriter::Source::kFullResultCache);
  }
  EXPECT_EQ(pipeline_->cache()->full_hits(), 3);
}

TEST_F(PipelineTest, EffectCodingThroughPipeline) {
  TransformRequest request = PaperRequest();
  request.codings["gender"] = CodingScheme::kEffect;
  PipelineOptions options;
  options.approach = ConnectApproach::kInSql;
  options.use_cache = false;
  auto result = pipeline_->Prepare(request, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Effect coding of a 2-level variable yields one column.
  EXPECT_GE(result->dataset.schema->FieldIndex("gender_F"), 0);
  EXPECT_EQ(result->dataset.schema->FieldIndex("gender_M"), -1);
}

TEST_F(PipelineTest, TableIoRoundTrip) {
  auto table = engine_->ExecuteSql("SELECT * FROM users");
  ASSERT_TRUE(table.ok());
  auto bytes = WriteTableToDfs(dfs_.get(), **table, "roundtrip");
  ASSERT_TRUE(bytes.ok());
  EXPECT_GT(*bytes, 0u);
  auto read = ReadTableFromDfs(*dfs_, "users2", (*table)->schema(), "roundtrip");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ((*read)->TotalRows(), (*table)->TotalRows());
}

TEST_F(PipelineTest, SkewedWorkloadJoinsConsistently) {
  CartsWorkloadOptions options;
  options.num_users = 200;
  options.num_carts = 4000;
  options.zipf_skew = 1.2;
  ASSERT_TRUE(GenerateCartsWorkload(engine_.get(), options).ok());
  // The hottest user owns far more carts than the uniform share.
  auto top = engine_->ExecuteSql(
      "SELECT userid, COUNT(*) AS n FROM carts GROUP BY userid "
      "ORDER BY n DESC LIMIT 1");
  ASSERT_TRUE(top.ok());
  ASSERT_EQ((*top)->TotalRows(), 1u);
  EXPECT_GT((*top)->GatherRows()[0][1].int64_value(), 4000 / 200 * 5);

  // Every cart finds its user under skew.
  const std::string sql =
      "SELECT U.userid, C.cartid FROM carts C, users U "
      "WHERE C.userid = U.userid";
  auto joined = engine_->ExecuteSql(sql);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ((*joined)->TotalRows(), 4000u);
}

TEST_F(PipelineTest, DatagenDeterministicAndFiltered) {
  CartsWorkloadOptions options;
  options.num_users = 100;
  options.num_carts = 300;
  options.seed = 99;
  auto a = GenerateCartsWorkload(engine_.get(), options);
  ASSERT_TRUE(a.ok());
  const size_t users_a = a->users->TotalRows();
  auto b = GenerateCartsWorkload(engine_.get(), options);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(users_a, 100u);
  EXPECT_EQ(a->carts->TotalRows(), 300u);
  // Deterministic regeneration.
  EXPECT_EQ(a->users->partition(0), b->users->partition(0));
  EXPECT_EQ(a->carts->partition(2), b->carts->partition(2));
}

class ExtToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("exttool_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    cluster_ = *cluster;
    DfsOptions options;
    options.block_size = 512;
    dfs_ = std::make_shared<Dfs>(cluster_, options);
  }

  std::unique_ptr<ScopedTempDir> temp_;
  ClusterPtr cluster_;
  DfsPtr dfs_;
};

TEST_F(ExtToolTest, RecodesAndDummyCodesCsvFiles) {
  auto schema = Schema::Make({{"age", DataType::kInt64},
                              {"gender", DataType::kString},
                              {"abandoned", DataType::kString}});
  ASSERT_TRUE(dfs_->WriteString("in/part-0",
                                "57,F,Yes\n40,M,Yes\n35,F,No\n")
                  .ok());
  ASSERT_TRUE(dfs_->WriteString("in/part-1", "22,M,No\n61,F,Yes\n").ok());

  ExternalTransformTool tool(dfs_, cluster_);
  std::map<std::string, CodingScheme> codings{{"gender", CodingScheme::kDummy}};
  auto result = tool.Run("in", schema, {"gender", "abandoned"}, codings, "out");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows, 5u);
  EXPECT_EQ(*result->recode_map.Code("gender", "F"), 1);
  EXPECT_EQ(*result->recode_map.Code("abandoned", "No"), 1);
  EXPECT_EQ(result->output_schema->ToString(),
            "age:INT64, gender_F:INT64, gender_M:INT64, abandoned:INT64");

  // Parse the outputs back and verify one row end to end.
  auto read = ReadTableFromDfs(*dfs_, "t", result->output_schema, "out");
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ((*read)->TotalRows(), 5u);
  bool found = false;
  for (const Row& row : (*read)->GatherRows()) {
    if (row[0] == Value::Int64(57)) {
      found = true;
      EXPECT_EQ(row[1], Value::Int64(1));  // gender_F.
      EXPECT_EQ(row[2], Value::Int64(0));  // gender_M.
      EXPECT_EQ(row[3], Value::Int64(2));  // abandoned 'Yes' -> 2.
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExtToolTest, RejectsUnRecodedCodedColumn) {
  auto schema = Schema::Make({{"gender", DataType::kString}});
  ASSERT_TRUE(dfs_->WriteString("in2/part-0", "F\n").ok());
  ExternalTransformTool tool(dfs_, cluster_);
  std::map<std::string, CodingScheme> codings{{"gender", CodingScheme::kDummy}};
  EXPECT_TRUE(tool.Run("in2", schema, {}, codings, "out2")
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace sqlink
