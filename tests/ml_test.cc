#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cluster/cluster.h"
#include "common/fs_util.h"
#include "common/random.h"
#include "ml/classifiers.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/evaluation.h"
#include "ml/job.h"
#include "ml/kmeans.h"
#include "ml/model_io.h"
#include "ml/naive_bayes.h"
#include "ml/scaler.h"
#include "ml/validation.h"
#include "ml/text_input_format.h"
#include "table/csv.h"

namespace sqlink::ml {
namespace {

TEST(VectorOpsTest, Basics) {
  DenseVector a{1, 2, 3};
  DenseVector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32);
  Axpy(2.0, a, &b);
  EXPECT_EQ(b, (DenseVector{6, 9, 12}));
  Scale(0.5, &b);
  EXPECT_EQ(b, (DenseVector{3, 4.5, 6}));
  EXPECT_DOUBLE_EQ(SquaredNorm(a), 14);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, DenseVector{1, 2, 4}), 1);
}

/// Builds a linearly separable two-class dataset split across partitions:
/// class 1 centered at (+2,+2), class 0 at (-2,-2).
Dataset MakeSeparableDataset(size_t points_per_class, size_t partitions,
                             uint64_t seed = 7) {
  Random rng(seed);
  std::vector<std::vector<LabeledPoint>> parts(partitions);
  for (size_t i = 0; i < points_per_class * 2; ++i) {
    const double label = (i % 2 == 0) ? 1.0 : 0.0;
    const double cx = label > 0.5 ? 2.0 : -2.0;
    LabeledPoint p;
    p.label = label;
    p.features = {cx + rng.NextGaussian() * 0.5, cx + rng.NextGaussian() * 0.5};
    parts[i % partitions].push_back(std::move(p));
  }
  return Dataset(std::move(parts), 2);
}

TEST(SvmTest, LearnsSeparableData) {
  Dataset data = MakeSeparableDataset(200, 4);
  SgdOptions options;
  options.iterations = 100;
  options.step_size = 1.0;
  auto result = SvmWithSgd::Train(data, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const double accuracy = Accuracy(data, [&](const DenseVector& x) {
    return result->model.PredictClass(x);
  });
  EXPECT_GT(accuracy, 0.97);
  // Loss decreases overall.
  ASSERT_GE(result->loss_history.size(), 2u);
  EXPECT_LT(result->loss_history.back(), result->loss_history.front());
}

TEST(SvmTest, DeterministicForSeed) {
  Dataset data = MakeSeparableDataset(50, 4);
  SgdOptions options;
  options.iterations = 20;
  options.mini_batch_fraction = 0.5;
  auto a = SvmWithSgd::Train(data, options);
  auto b = SvmWithSgd::Train(data, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->model.weights, b->model.weights);
  EXPECT_EQ(a->model.intercept, b->model.intercept);
}

TEST(SvmTest, PartitionCountDoesNotChangeFullBatchResult) {
  // Full-batch gradients are a sum: the partitioning must not matter.
  Dataset one = MakeSeparableDataset(64, 1);
  // Re-partition the same points into 4 slices.
  auto all = one.Gather();
  std::vector<std::vector<LabeledPoint>> parts(4);
  for (size_t i = 0; i < all.size(); ++i) parts[i % 4].push_back(all[i]);
  Dataset four(std::move(parts), 2);

  SgdOptions options;
  options.iterations = 10;
  auto r1 = SvmWithSgd::Train(one, options);
  auto r4 = SvmWithSgd::Train(four, options);
  ASSERT_TRUE(r1.ok() && r4.ok());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(r1->model.weights[i], r4->model.weights[i], 1e-9);
  }
}

TEST(SvmTest, MiniBatchStillLearns) {
  Dataset data = MakeSeparableDataset(300, 4);
  SgdOptions options;
  options.iterations = 150;
  options.mini_batch_fraction = 0.2;  // The MLlib miniBatchFraction knob.
  auto result = SvmWithSgd::Train(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(Accuracy(data,
                     [&](const DenseVector& x) {
                       return result->model.PredictClass(x);
                     }),
            0.95);
}

TEST(SvmTest, RegularizationShrinksWeights) {
  Dataset data = MakeSeparableDataset(200, 4);
  SgdOptions weak;
  weak.iterations = 80;
  weak.reg_param = 0.001;
  SgdOptions strong = weak;
  strong.reg_param = 1.0;
  auto small_reg = SvmWithSgd::Train(data, weak);
  auto large_reg = SvmWithSgd::Train(data, strong);
  ASSERT_TRUE(small_reg.ok() && large_reg.ok());
  EXPECT_LT(SquaredNorm(large_reg->model.weights),
            SquaredNorm(small_reg->model.weights));
}

TEST(SvmTest, EmptyDatasetRejected) {
  Dataset empty;
  EXPECT_TRUE(SvmWithSgd::Train(empty).status().IsInvalidArgument());
}

TEST(LogisticRegressionTest, LearnsSeparableData) {
  Dataset data = MakeSeparableDataset(200, 4);
  SgdOptions options;
  options.iterations = 100;
  auto result = LogisticRegressionWithSgd::Train(data, options);
  ASSERT_TRUE(result.ok());
  const double accuracy = Accuracy(data, [&](const DenseVector& x) {
    return result->model.PredictClass(x);
  });
  EXPECT_GT(accuracy, 0.97);
}

TEST(LinearRegressionTest, RecoversLine) {
  // y = 3x + 1 with small noise.
  Random rng(3);
  std::vector<std::vector<LabeledPoint>> parts(4);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.NextDouble() * 2 - 1;
    LabeledPoint p;
    p.label = 3 * x + 1 + rng.NextGaussian() * 0.01;
    p.features = {x};
    parts[static_cast<size_t>(i) % 4].push_back(std::move(p));
  }
  Dataset data(std::move(parts), 1);
  SgdOptions options;
  options.iterations = 300;
  options.step_size = 0.5;
  options.reg_param = 0.0;
  auto result = LinearRegressionWithSgd::Train(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->model.weights[0], 3.0, 0.2);
  EXPECT_NEAR(result->model.intercept, 1.0, 0.2);
}

TEST(NaiveBayesTest, LearnsSeparableData) {
  Dataset data = MakeSeparableDataset(200, 4);
  auto model = NaiveBayes::Train(data);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->class_labels().size(), 2u);
  const double accuracy = Accuracy(
      data, [&](const DenseVector& x) { return model->Predict(x); });
  EXPECT_GT(accuracy, 0.97);
}

TEST(NaiveBayesTest, PartitioningInvariant) {
  Dataset one = MakeSeparableDataset(64, 1);
  auto all = one.Gather();
  std::vector<std::vector<LabeledPoint>> parts(5);
  for (size_t i = 0; i < all.size(); ++i) parts[i % 5].push_back(all[i]);
  Dataset five(std::move(parts), 2);
  auto m1 = NaiveBayes::Train(one);
  auto m5 = NaiveBayes::Train(five);
  ASSERT_TRUE(m1.ok() && m5.ok());
  Random rng(11);
  for (int i = 0; i < 50; ++i) {
    DenseVector x{rng.NextGaussian() * 3, rng.NextGaussian() * 3};
    EXPECT_EQ(m1->Predict(x), m5->Predict(x));
  }
}

TEST(DecisionTreeTest, LearnsIntervalBand) {
  // label = 1 iff x in [0.3, 0.7]: not linearly separable, but a depth-2
  // tree with two threshold splits captures it exactly.
  Random rng(5);
  std::vector<std::vector<LabeledPoint>> parts(4);
  for (int i = 0; i < 600; ++i) {
    const double x = rng.NextDouble();
    LabeledPoint p;
    p.label = (x >= 0.3 && x <= 0.7) ? 1.0 : 0.0;
    p.features = {x, rng.NextGaussian()};  // Second feature is noise.
    parts[static_cast<size_t>(i) % 4].push_back(std::move(p));
  }
  Dataset data(std::move(parts), 2);
  auto model = DecisionTree::Train(data);
  ASSERT_TRUE(model.ok());
  const double accuracy = Accuracy(
      data, [&](const DenseVector& x) { return model->Predict(x); });
  EXPECT_GT(accuracy, 0.95);
  EXPECT_GE(model->depth(), 2);
  // The noise feature must not be the root split.
  EXPECT_EQ(model->root()->feature, 0);
}

TEST(DecisionTreeTest, PureNodeStopsEarly) {
  std::vector<std::vector<LabeledPoint>> parts(1);
  for (int i = 0; i < 50; ++i) {
    parts[0].push_back(LabeledPoint{1.0, {static_cast<double>(i)}});
  }
  Dataset data(std::move(parts), 1);
  auto model = DecisionTree::Train(data);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_nodes(), 1u);
  EXPECT_EQ(model->Predict({42.0}), 1.0);
}

TEST(KMeansTest, FindsTwoClusters) {
  Dataset data = MakeSeparableDataset(150, 4);
  KMeansOptions options;
  options.k = 2;
  auto model = KMeans::Train(data, options);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->centers.size(), 2u);
  // Centers near (+2,+2) and (-2,-2) in some order.
  const bool first_positive = model->centers[0][0] > 0;
  const DenseVector& pos = model->centers[first_positive ? 0 : 1];
  const DenseVector& neg = model->centers[first_positive ? 1 : 0];
  EXPECT_NEAR(pos[0], 2.0, 0.3);
  EXPECT_NEAR(neg[0], -2.0, 0.3);
  EXPECT_LT(model->Predict({2.0, 2.0}) , 2);
  EXPECT_NE(model->Predict({2.0, 2.0}), model->Predict({-2.0, -2.0}));
}

TEST(KMeansTest, InvalidKRejected) {
  Dataset data = MakeSeparableDataset(5, 1);
  KMeansOptions options;
  options.k = 1000;
  EXPECT_TRUE(KMeans::Train(data, options).status().IsInvalidArgument());
}

TEST(DatasetTest, FromRowsMapsColumns) {
  RowDataset rows;
  rows.schema = Schema::Make({{"age", DataType::kInt64},
                              {"gender", DataType::kInt64},
                              {"amount", DataType::kDouble},
                              {"abandoned", DataType::kInt64}});
  rows.partitions.resize(2);
  rows.partitions[0].push_back(Row{Value::Int64(57), Value::Int64(1),
                                   Value::Double(153.99), Value::Int64(1)});
  rows.partitions[1].push_back(Row{Value::Int64(40), Value::Int64(2),
                                   Value::Double(99.5), Value::Int64(0)});
  auto data = Dataset::FromRows(rows, "abandoned", {"age", "gender", "amount"});
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->dimension(), 3u);
  EXPECT_EQ(data->TotalPoints(), 2u);
  const auto all = data->Gather();
  EXPECT_DOUBLE_EQ(all[0].label, 1.0);
  EXPECT_EQ(all[0].features, (DenseVector{57, 1, 153.99}));
}

TEST(DatasetTest, CategoricalFeatureRejected) {
  RowDataset rows;
  rows.schema = Schema::Make(
      {{"gender", DataType::kString}, {"y", DataType::kInt64}});
  rows.partitions.resize(1);
  auto status = Dataset::FromRows(rows, "y", {"gender"}).status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("recode"), std::string::npos);
}

TEST(DatasetTest, AutoFeaturesExcludeLabel) {
  RowDataset rows;
  rows.schema = Schema::Make({{"a", DataType::kInt64},
                              {"label", DataType::kInt64},
                              {"b", DataType::kDouble}});
  rows.partitions.resize(1);
  rows.partitions[0].push_back(
      Row{Value::Int64(1), Value::Int64(0), Value::Double(2.0)});
  auto data = Dataset::FromRowsAutoFeatures(rows, "label");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->dimension(), 2u);
  EXPECT_EQ(data->Gather()[0].features, (DenseVector{1.0, 2.0}));
}

TEST(DatasetTest, AutoFeaturesRejectCategoricalColumn) {
  // Auto-selection takes every non-label column; a STRING one is refused,
  // not silently dropped from the feature vector.
  RowDataset rows;
  rows.schema = Schema::Make({{"label", DataType::kInt64},
                              {"amount", DataType::kDouble},
                              {"city", DataType::kString}});
  rows.partitions.resize(1);
  rows.partitions[0].push_back(
      Row{Value::Int64(1), Value::Double(2.5), Value::String("nyc")});
  auto status = Dataset::FromRowsAutoFeatures(rows, "label").status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("city"), std::string::npos);
}

TEST(DatasetTest, NullAndBoolValuesBecomeNumbers) {
  RowDataset rows;
  rows.schema = Schema::Make({{"label", DataType::kInt64},
                              {"ratio", DataType::kDouble},
                              {"flag", DataType::kBool}});
  rows.partitions.resize(2);
  rows.partitions[0].push_back(
      Row{Value::Int64(1), Value::Null(), Value::Bool(true)});
  rows.partitions[1].push_back(
      Row{Value::Null(), Value::Double(-0.5), Value::Bool(false)});
  rows.partitions[1].push_back(
      Row{Value::Int64(0), Value::Double(4.0), Value::Null()});
  auto data = Dataset::FromRowsAutoFeatures(rows, "label");
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_EQ(data->num_partitions(), 2u);
  const auto all = data->Gather();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0].label, 1.0);
  EXPECT_EQ(all[0].features, (DenseVector{0.0, 1.0}));
  EXPECT_DOUBLE_EQ(all[1].label, 0.0);
  EXPECT_EQ(all[1].features, (DenseVector{-0.5, 0.0}));
  EXPECT_EQ(all[2].features, (DenseVector{4.0, 0.0}));
}

TEST(ScalerTest, StandardizesToZeroMeanUnitVariance) {
  Random rng(13);
  std::vector<std::vector<LabeledPoint>> parts(3);
  for (int i = 0; i < 600; ++i) {
    LabeledPoint p;
    p.label = 0;
    p.features = {rng.NextGaussian() * 50 + 200, rng.NextDouble() * 4 - 2,
                  7.0 /* constant */};
    parts[static_cast<size_t>(i) % 3].push_back(std::move(p));
  }
  Dataset data(std::move(parts), 3);
  auto scaler = StandardScaler::Fit(data);
  ASSERT_TRUE(scaler.ok());
  EXPECT_NEAR(scaler->means()[0], 200, 10);
  EXPECT_NEAR(scaler->stddevs()[0], 50, 5);
  EXPECT_DOUBLE_EQ(scaler->stddevs()[2], 0.0);
  scaler->Transform(&data);
  double sum = 0;
  double sq = 0;
  for (const auto& partition : data.partitions()) {
    for (const LabeledPoint& point : partition) {
      sum += point.features[0];
      sq += point.features[0] * point.features[0];
      EXPECT_DOUBLE_EQ(point.features[2], 0.0);  // Constant feature zeroed.
    }
  }
  EXPECT_NEAR(sum / 600, 0.0, 1e-9);
  EXPECT_NEAR(sq / 600, 1.0, 1e-9);
  // Apply() matches Transform() semantics.
  EXPECT_DOUBLE_EQ(scaler->Apply({200, 0, 7})[0],
                   (200 - scaler->means()[0]) / scaler->stddevs()[0]);
}

TEST(ScalerTest, EmptyDatasetRejected) {
  Dataset empty;
  EXPECT_TRUE(StandardScaler::Fit(empty).status().IsInvalidArgument());
}

TEST(ValidationTest, TrainTestSplitPartitionsAndFractions) {
  Dataset data = MakeSeparableDataset(500, 4);
  auto split = TrainTestSplit(data, 0.25, 7);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.num_partitions(), 4u);
  EXPECT_EQ(split->train.TotalPoints() + split->test.TotalPoints(), 1000u);
  const double fraction =
      static_cast<double>(split->test.TotalPoints()) / 1000.0;
  EXPECT_NEAR(fraction, 0.25, 0.06);
  // Deterministic per seed.
  auto again = TrainTestSplit(data, 0.25, 7);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(split->test.TotalPoints(), again->test.TotalPoints());
  EXPECT_TRUE(TrainTestSplit(data, 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(TrainTestSplit(data, 1.0).status().IsInvalidArgument());
}

TEST(ValidationTest, AucPerfectRandomAndInverted) {
  Dataset data = MakeSeparableDataset(200, 2);
  // Perfect scorer: the first feature separates the classes.
  const double perfect =
      AreaUnderRoc(data, [](const DenseVector& x) { return x[0]; });
  EXPECT_GT(perfect, 0.99);
  // Inverted scorer.
  const double inverted =
      AreaUnderRoc(data, [](const DenseVector& x) { return -x[0]; });
  EXPECT_LT(inverted, 0.01);
  EXPECT_NEAR(perfect + inverted, 1.0, 1e-9);
  // Constant scorer: all ties -> 0.5 exactly (midranks).
  EXPECT_DOUBLE_EQ(
      AreaUnderRoc(data, [](const DenseVector&) { return 1.0; }), 0.5);
}

TEST(ValidationTest, AucDegenerateClasses) {
  std::vector<std::vector<LabeledPoint>> parts(1);
  parts[0].push_back(LabeledPoint{1.0, {3.0}});
  parts[0].push_back(LabeledPoint{1.0, {1.0}});
  Dataset data(std::move(parts), 1);
  EXPECT_DOUBLE_EQ(
      AreaUnderRoc(data, [](const DenseVector& x) { return x[0]; }), 0.5);
}

TEST(ValidationTest, HeldOutEvaluationEndToEnd) {
  Dataset data = MakeSeparableDataset(400, 4);
  auto split = TrainTestSplit(data, 0.3, 5);
  ASSERT_TRUE(split.ok());
  SgdOptions options;
  options.iterations = 60;
  auto model = SvmWithSgd::Train(split->train, options);
  ASSERT_TRUE(model.ok());
  const double test_accuracy =
      Accuracy(split->test, [&](const DenseVector& x) {
        return model->model.PredictClass(x);
      });
  EXPECT_GT(test_accuracy, 0.95);
  const double auc = AreaUnderRoc(split->test, [&](const DenseVector& x) {
    return model->model.Margin(x);
  });
  EXPECT_GT(auc, 0.98);
}

class ModelIoTest : public ::testing::Test {
 protected:
  ScopedTempDir temp_{"model_io"};
  std::string Path(const char* name) { return temp_.path() + "/" + name; }
};

TEST_F(ModelIoTest, LinearModelRoundTrip) {
  LinearModel model;
  model.weights = {1.5, -2.25, 0.0};
  model.intercept = 0.75;
  ASSERT_TRUE(SaveLinearModel(model, Path("svm.model")).ok());
  auto loaded = LoadLinearModel(Path("svm.model"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->weights, model.weights);
  EXPECT_DOUBLE_EQ(loaded->intercept, model.intercept);
}

TEST_F(ModelIoTest, TrainedModelsPredictIdenticallyAfterReload) {
  Dataset data = MakeSeparableDataset(100, 2);
  Random rng(3);
  std::vector<DenseVector> probes;
  for (int i = 0; i < 30; ++i) {
    probes.push_back({rng.NextGaussian() * 3, rng.NextGaussian() * 3});
  }

  auto nb = NaiveBayes::Train(data);
  ASSERT_TRUE(nb.ok());
  ASSERT_TRUE(SaveNaiveBayesModel(*nb, Path("nb.model")).ok());
  auto nb2 = LoadNaiveBayesModel(Path("nb.model"));
  ASSERT_TRUE(nb2.ok()) << nb2.status();

  auto tree = DecisionTree::Train(data);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(SaveDecisionTreeModel(*tree, Path("tree.model")).ok());
  auto tree2 = LoadDecisionTreeModel(Path("tree.model"));
  ASSERT_TRUE(tree2.ok()) << tree2.status();
  EXPECT_EQ(tree2->num_nodes(), tree->num_nodes());

  KMeansOptions kopts;
  kopts.k = 2;
  auto kmeans = KMeans::Train(data, kopts);
  ASSERT_TRUE(kmeans.ok());
  ASSERT_TRUE(SaveKMeansModel(*kmeans, Path("kmeans.model")).ok());
  auto kmeans2 = LoadKMeansModel(Path("kmeans.model"));
  ASSERT_TRUE(kmeans2.ok());

  auto scaler = StandardScaler::Fit(data);
  ASSERT_TRUE(scaler.ok());
  ASSERT_TRUE(SaveStandardScaler(*scaler, Path("scaler.model")).ok());
  auto scaler2 = LoadStandardScaler(Path("scaler.model"));
  ASSERT_TRUE(scaler2.ok());

  for (const DenseVector& x : probes) {
    EXPECT_EQ(nb->Predict(x), nb2->Predict(x));
    EXPECT_EQ(tree->Predict(x), tree2->Predict(x));
    EXPECT_EQ(kmeans->Predict(x), kmeans2->Predict(x));
    EXPECT_EQ(scaler->Apply(x), scaler2->Apply(x));
  }
}

TEST_F(ModelIoTest, TypeMismatchAndCorruptionRejected) {
  LinearModel model;
  model.weights = {1.0};
  ASSERT_TRUE(SaveLinearModel(model, Path("m")).ok());
  EXPECT_TRUE(LoadNaiveBayesModel(Path("m")).status().IsInvalidArgument());
  ASSERT_TRUE(WriteFileAtomic(Path("junk"), "not a model").ok());
  EXPECT_TRUE(LoadLinearModel(Path("junk")).status().IsDataLoss());
  EXPECT_TRUE(LoadLinearModel(Path("missing")).status().IsIoError());
  // Truncated payload.
  auto content = ReadFileToString(Path("m"));
  ASSERT_TRUE(content.ok());
  ASSERT_TRUE(
      WriteFileAtomic(Path("trunc"), content->substr(0, content->size() - 4))
          .ok());
  EXPECT_FALSE(LoadLinearModel(Path("trunc")).ok());
}

// --- Ingestion through the InputFormat contract ---

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("ml_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    cluster_ = *cluster;
    DfsOptions options;
    options.block_size = 256;  // Several blocks -> several splits.
    dfs_ = std::make_shared<Dfs>(cluster_, options);
    schema_ = Schema::Make({{"x", DataType::kInt64},
                            {"y", DataType::kDouble},
                            {"label", DataType::kInt64}});
  }

  void WriteTrainingFile(const std::string& path, int rows) {
    CsvCodec codec;
    std::string content;
    for (int i = 0; i < rows; ++i) {
      codec.AppendRow(Row{Value::Int64(i), Value::Double(i * 0.5),
                          Value::Int64(i % 2)},
                      &content);
    }
    ASSERT_TRUE(dfs_->WriteString(path, content).ok());
  }

  std::unique_ptr<ScopedTempDir> temp_;
  ClusterPtr cluster_;
  DfsPtr dfs_;
  SchemaPtr schema_;
};

TEST_F(IngestTest, ReadsEveryRowExactlyOnce) {
  WriteTrainingFile("train/part-0", 100);
  WriteTrainingFile("train/part-1", 57);
  TextFileInputFormat format(dfs_, "train", schema_);
  JobContext context;
  context.cluster = cluster_;
  MlJobRunner runner(context);
  auto result = runner.Ingest(&format);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 157u);
  EXPECT_GT(result->stats.num_splits, 1);
  // Every x value seen exactly once per file.
  std::map<int64_t, int> seen;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition) {
      seen[row[0].int64_value()]++;
    }
  }
  EXPECT_EQ(seen[5], 2);   // In both files.
  EXPECT_EQ(seen[99], 1);  // Only in the 100-row file.
}

TEST_F(IngestTest, SplitsCarryLocations) {
  WriteTrainingFile("single", 50);
  TextFileInputFormat format(dfs_, "single", schema_);
  JobContext context;
  context.cluster = cluster_;
  auto splits = format.GetSplits(context);
  ASSERT_TRUE(splits.ok());
  for (const auto& split : *splits) {
    EXPECT_FALSE(split->Locations().empty());
  }
  MlJobRunner runner(context);
  auto result = runner.Ingest(&format);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.local_splits, result->stats.num_splits);
}

TEST_F(IngestTest, MissingInputErrors) {
  TextFileInputFormat format(dfs_, "nope", schema_);
  JobContext context;
  context.cluster = cluster_;
  MlJobRunner runner(context);
  EXPECT_TRUE(runner.Ingest(&format).status().IsNotFound());
}

TEST_F(IngestTest, EndToEndTrainFromDfs) {
  // Linearly separable data written to DFS, ingested via InputFormat,
  // converted to a Dataset and fit with SVM — the naive pipeline's ML leg.
  CsvCodec codec;
  Random rng(17);
  std::string content;
  for (int i = 0; i < 200; ++i) {
    const int label = i % 2;
    const double center = label == 1 ? 2.0 : -2.0;
    codec.AppendRow(Row{Value::Int64(i),
                        Value::Double(center + rng.NextGaussian() * 0.3),
                        Value::Int64(label)},
                    &content);
  }
  ASSERT_TRUE(dfs_->WriteString("sep", content).ok());
  TextFileInputFormat format(dfs_, "sep", schema_);
  JobContext context;
  context.cluster = cluster_;
  MlJobRunner runner(context);
  auto ingest = runner.Ingest(&format);
  ASSERT_TRUE(ingest.ok());
  auto data = Dataset::FromRows(ingest->dataset, "label", {"y"});
  ASSERT_TRUE(data.ok());
  SgdOptions options;
  options.iterations = 50;
  auto trained = SvmWithSgd::Train(*data, options);
  ASSERT_TRUE(trained.ok());
  EXPECT_GT(Accuracy(*data,
                     [&](const DenseVector& x) {
                       return trained->model.PredictClass(x);
                     }),
            0.95);
}

}  // namespace
}  // namespace sqlink::ml
