#include "ml/dataset.h"

#include "common/status_macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace sqlink::ml {

namespace {

double NumericOrZero(const Value& value) {
  if (value.is_null()) return 0.0;
  auto d = value.AsDouble();
  return d.ok() ? *d : 0.0;
}

/// Validates the label/feature selection against `schema` and resolves the
/// feature indices.
Result<std::vector<int>> ResolveFeatures(
    const SchemaPtr& schema, const std::vector<std::string>& feature_columns) {
  std::vector<int> feature_indices;
  feature_indices.reserve(feature_columns.size());
  for (const std::string& name : feature_columns) {
    ASSIGN_OR_RETURN(int index, schema->RequireField(name));
    const DataType type = schema->field(index).type;
    if (type == DataType::kString) {
      return Status::InvalidArgument(
          "feature column '" + name +
          "' is categorical (STRING); recode it first (see In-SQL "
          "transformations)");
    }
    feature_indices.push_back(index);
  }
  return feature_indices;
}

std::vector<std::string> AutoFeatures(const SchemaPtr& schema,
                                      const std::string& label_column) {
  std::vector<std::string> features;
  for (const Field& field : schema->fields()) {
    if (!EqualsIgnoreCase(field.name, label_column)) {
      features.push_back(field.name);
    }
  }
  return features;
}

}  // namespace

Result<Dataset> Dataset::FromRows(
    const RowDataset& rows, const std::string& label_column,
    const std::vector<std::string>& feature_columns) {
  ASSIGN_OR_RETURN(int label_index, rows.schema->RequireField(label_column));
  ASSIGN_OR_RETURN(std::vector<int> feature_indices,
                   ResolveFeatures(rows.schema, feature_columns));

  std::vector<std::vector<LabeledPoint>> partitions(rows.partitions.size());
  ParallelFor(rows.partitions.size(), [&](size_t p) {
    partitions[p].reserve(rows.partitions[p].size());
    for (const Row& row : rows.partitions[p]) {
      LabeledPoint point;
      point.label = NumericOrZero(row[static_cast<size_t>(label_index)]);
      point.features.reserve(feature_indices.size());
      for (int f : feature_indices) {
        point.features.push_back(NumericOrZero(row[static_cast<size_t>(f)]));
      }
      partitions[p].push_back(std::move(point));
    }
  });
  return Dataset(std::move(partitions), feature_columns.size());
}

Result<Dataset> Dataset::FromRowsAutoFeatures(const RowDataset& rows,
                                              const std::string& label_column) {
  return FromRows(rows, label_column, AutoFeatures(rows.schema, label_column));
}

}  // namespace sqlink::ml
