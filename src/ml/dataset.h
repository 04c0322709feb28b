#ifndef SQLINK_ML_DATASET_H_
#define SQLINK_ML_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ml/vector_ops.h"
#include "table/schema.h"
#include "table/value.h"

namespace sqlink::ml {

/// One training example.
struct LabeledPoint {
  double label = 0;
  DenseVector features;

  bool operator==(const LabeledPoint& other) const = default;
};

/// Typed rows held in memory, one slice per ML worker — the ingestion
/// output before feature extraction (the "in-memory RDD" of the paper's
/// Spark measurements).
struct RowDataset {
  SchemaPtr schema;
  std::vector<std::vector<Row>> partitions;

  size_t TotalRows() const {
    size_t total = 0;
    for (const auto& p : partitions) total += p.size();
    return total;
  }
};

/// LabeledPoints partitioned across ML workers; what the training
/// algorithms consume.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::vector<std::vector<LabeledPoint>> partitions, size_t dimension)
      : partitions_(std::move(partitions)), dimension_(dimension) {}

  /// Converts rows to labeled points: `label_column` holds the label,
  /// `feature_columns` the features; all must be numeric (NULLs become 0 —
  /// transformed ML input has no NULLs in practice).
  static Result<Dataset> FromRows(const RowDataset& rows,
                                  const std::string& label_column,
                                  const std::vector<std::string>& feature_columns);

  /// Uses every column except `label_column` as a feature, in schema order.
  static Result<Dataset> FromRowsAutoFeatures(const RowDataset& rows,
                                              const std::string& label_column);

  const std::vector<std::vector<LabeledPoint>>& partitions() const {
    return partitions_;
  }
  std::vector<std::vector<LabeledPoint>>& mutable_partitions() {
    return partitions_;
  }
  size_t dimension() const { return dimension_; }
  size_t num_partitions() const { return partitions_.size(); }

  size_t TotalPoints() const {
    size_t total = 0;
    for (const auto& p : partitions_) total += p.size();
    return total;
  }

  /// All points concatenated (tests, small data).
  std::vector<LabeledPoint> Gather() const {
    std::vector<LabeledPoint> all;
    all.reserve(TotalPoints());
    for (const auto& p : partitions_) {
      all.insert(all.end(), p.begin(), p.end());
    }
    return all;
  }

 private:
  std::vector<std::vector<LabeledPoint>> partitions_;
  size_t dimension_ = 0;
};

}  // namespace sqlink::ml

#endif  // SQLINK_ML_DATASET_H_
