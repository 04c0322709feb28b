#include "transform/udfs.h"

#include "common/status_macros.h"
#include "common/string_dict.h"
#include "common/string_util.h"

namespace sqlink {

// ---------------------------------------------------------------------------
// RecodeLocalDistinctUdf

Result<SchemaPtr> RecodeLocalDistinctUdf::Bind(const SchemaPtr& input_schema,
                                               const std::vector<Value>& args) {
  if (input_schema == nullptr) {
    return Status::InvalidArgument(
        "recode_local_distinct needs an input relation");
  }
  if (args.size() != 1 || !args[0].is_string()) {
    return Status::InvalidArgument(
        "recode_local_distinct needs a 'col1,col2' string argument");
  }
  for (const std::string& name : SplitString(args[0].string_value(), ',')) {
    const std::string trimmed(TrimWhitespace(name));
    ASSIGN_OR_RETURN(int index, input_schema->RequireField(trimmed));
    if (input_schema->field(index).type != DataType::kString) {
      return Status::InvalidArgument(
          "recoding applies to categorical (STRING) columns; '" + trimmed +
          "' is " +
          std::string(DataTypeToString(input_schema->field(index).type)));
    }
    column_indices_.push_back(index);
    // Column names are canonicalized to lower case in recode maps so the
    // rewritten SQL's colname predicates match regardless of schema casing.
    column_names_.push_back(ToLowerAscii(input_schema->field(index).name));
  }
  if (column_indices_.empty()) {
    return Status::InvalidArgument("no columns to recode");
  }
  return Schema::Make(
      {{"colname", DataType::kString}, {"colval", DataType::kString}});
}

// One local scan computes the distinct values of *all* columns (§2.1).
// Each column's seen-set is an open-addressing StringDict: one hash and no
// node or string allocation per already-seen value. A batch is read through
// its dictionary codes, so each of a batch's distinct values is tested
// against the seen-set at most once.
class RecodeLocalDistinctUdf::Partition final : public TableUdfPartition {
 public:
  explicit Partition(const RecodeLocalDistinctUdf* udf)
      : udf_(udf), seen_(udf->column_indices_.size()) {}

  Status Consume(ColumnBatch input, ColumnBatch* output) override {
    const size_t num_cols = seen_.size();
    tested_.resize(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      const Column& col =
          input.column(static_cast<size_t>(udf_->column_indices_[c]));
      tested_[c].assign(static_cast<size_t>(col.dict.size()), 0);
    }
    // First-seen order: rows in order, columns in argument order.
    for (size_t r = 0; r < input.num_rows(); ++r) {
      for (size_t c = 0; c < num_cols; ++c) {
        const Column& col =
            input.column(static_cast<size_t>(udf_->column_indices_[c]));
        if (col.IsNull(r)) continue;
        const int32_t code = col.codes[r];
        uint8_t& tested = tested_[c][static_cast<size_t>(code)];
        if (tested) continue;
        tested = 1;
        const std::string_view value = col.dict[code];
        const int32_t before = seen_[c].size();
        if (seen_[c].GetOrAdd(value) != before) continue;
        RETURN_IF_ERROR(
            output->AppendRow(Row{Value::String(udf_->column_names_[c]),
                                  Value::String(std::string(value))}));
      }
    }
    return Status::OK();
  }

 private:
  const RecodeLocalDistinctUdf* udf_;
  std::vector<StringDict> seen_;
  /// Per column, per code of the current batch's dictionary: tested yet.
  std::vector<std::vector<uint8_t>> tested_;
};

Result<TableUdfPartitionPtr> RecodeLocalDistinctUdf::Open(
    const TableUdfContext&) {
  return TableUdfPartitionPtr(new Partition(this));
}

// ---------------------------------------------------------------------------
// RecodeAssignUdf

Result<SchemaPtr> RecodeAssignUdf::Bind(const SchemaPtr& input_schema,
                                        const std::vector<Value>& args) {
  if (!args.empty()) {
    return Status::InvalidArgument("recode_assign takes no scalar arguments");
  }
  if (input_schema == nullptr || input_schema->num_fields() != 2 ||
      input_schema->field(0).type != DataType::kString ||
      input_schema->field(1).type != DataType::kString) {
    return Status::InvalidArgument(
        "recode_assign expects a (colname STRING, colval STRING) input");
  }
  return Schema::Make({{"colname", DataType::kString},
                       {"colval", DataType::kString},
                       {"recodeval", DataType::kInt64}});
}

class RecodeAssignUdf::Partition final : public TableUdfPartition {
 public:
  explicit Partition(RecodeAssignUdf* udf) : udf_(udf) {}

  Status Consume(ColumnBatch input, ColumnBatch* output) override {
    if (!counted_) {
      counted_ = true;
      if (udf_->workers_with_data_.fetch_add(1) > 0) {
        return Status::FailedPrecondition(
            "recode_assign input must be gathered on one worker; add an "
            "ORDER BY to the distinct-values query");
      }
    }
    const size_t rows = input.num_rows();
    const Column& names = input.column(0);
    if (names.has_nulls() || input.column(1).has_nulls()) {
      return Status::InvalidArgument("NULL in distinct-values input");
    }
    // One counter lookup per distinct colname of the batch.
    std::vector<int64_t*> counters(static_cast<size_t>(names.dict.size()),
                                   nullptr);
    Column& codes = output->column(2);
    codes.ints.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      int64_t*& counter = counters[static_cast<size_t>(names.codes[r])];
      if (counter == nullptr) {
        counter = &counters_[std::string(names.dict[names.codes[r]])];
      }
      codes.ints[r] = ++*counter;
    }
    codes.null_words.assign((rows + 63) / 64, 0);
    output->column(0) = std::move(input.column(0));
    output->column(1) = std::move(input.column(1));
    output->SetRowCountForDecode(rows);
    return Status::OK();
  }

 private:
  RecodeAssignUdf* udf_;
  std::map<std::string, int64_t> counters_;
  bool counted_ = false;
};

Result<TableUdfPartitionPtr> RecodeAssignUdf::Open(const TableUdfContext&) {
  return TableUdfPartitionPtr(new Partition(this));
}

// ---------------------------------------------------------------------------
// CodeApplyUdf

Result<SchemaPtr> CodeApplyUdf::Bind(const SchemaPtr& input_schema,
                                     const std::vector<Value>& args) {
  if (input_schema == nullptr) {
    return Status::InvalidArgument("coding UDF needs an input relation");
  }
  if (args.size() != 1 || !args[0].is_string()) {
    return Status::InvalidArgument(
        "coding UDF needs a 'col:k' / 'col=l1|l2' string argument");
  }
  ASSIGN_OR_RETURN(std::vector<CodedColumnSpec> specs,
                   ParseCodedColumnSpecs(args[0].string_value()));

  input_schema_ = input_schema;
  dispatch_.assign(static_cast<size_t>(input_schema->num_fields()), -1);
  std::vector<Field> fields;
  std::map<int, const CodedColumnSpec*> by_index;
  for (const CodedColumnSpec& spec : specs) {
    ASSIGN_OR_RETURN(int index, input_schema->RequireField(spec.column));
    if (input_schema->field(index).type != DataType::kInt64) {
      return Status::InvalidArgument(
          "column '" + spec.column +
          "' must be recoded to INT64 before coding; it is " +
          std::string(DataTypeToString(input_schema->field(index).type)));
    }
    if (!by_index.emplace(index, &spec).second) {
      return Status::InvalidArgument("column coded twice: " + spec.column);
    }
  }
  const DataType generated_type = scheme_ == CodingScheme::kOrthogonal
                                      ? DataType::kDouble
                                      : DataType::kInt64;
  for (int i = 0; i < input_schema->num_fields(); ++i) {
    auto coded = by_index.find(i);
    if (coded == by_index.end()) {
      fields.push_back(input_schema->field(i));
      continue;
    }
    const CodedColumnSpec& spec = *coded->second;
    BoundColumn bound;
    bound.input_index = i;
    bound.cardinality = spec.cardinality;
    ASSIGN_OR_RETURN(bound.matrix, CodingMatrix(scheme_, spec.cardinality));
    dispatch_[static_cast<size_t>(i)] = static_cast<int>(coded_.size());
    coded_.push_back(std::move(bound));
    for (const std::string& name : CodedColumnNames(spec, scheme_)) {
      fields.push_back(Field{name, generated_type});
    }
  }
  return Schema::Make(std::move(fields));
}

class CodeApplyUdf::Partition final : public TableUdfPartition {
 public:
  explicit Partition(const CodeApplyUdf* udf) : udf_(udf) {}

  Status Consume(ColumnBatch input, ColumnBatch* output) override {
    const size_t rows = input.num_rows();
    RETURN_IF_ERROR(CheckLevels(input));
    const bool doubles = udf_->scheme_ == CodingScheme::kOrthogonal;
    size_t out = 0;
    for (size_t i = 0; i < input.num_columns(); ++i) {
      const int coded_index = udf_->dispatch_[i];
      if (coded_index < 0) {
        output->column(out++) = std::move(input.column(i));
        continue;
      }
      const BoundColumn& bound =
          udf_->coded_[static_cast<size_t>(coded_index)];
      const std::vector<int64_t>& levels = input.column(i).ints;
      const size_t width = bound.matrix.front().size();
      for (size_t k = 0; k < width; ++k) {
        Column& col = output->column(out++);
        col.null_words.assign((rows + 63) / 64, 0);
        if (doubles) {
          col.doubles.resize(rows);
          for (size_t r = 0; r < rows; ++r) {
            col.doubles[r] =
                bound.matrix[static_cast<size_t>(levels[r] - 1)][k];
          }
        } else {
          col.ints.resize(rows);
          for (size_t r = 0; r < rows; ++r) {
            col.ints[r] = static_cast<int64_t>(
                bound.matrix[static_cast<size_t>(levels[r] - 1)][k]);
          }
        }
      }
    }
    output->SetRowCountForDecode(rows);
    return Status::OK();
  }

 private:
  /// The error of the first bad coded cell, rows in order and columns left
  /// to right, as a row-at-a-time pass reports it; OK when every coded cell
  /// is a level in [1, k].
  Status CheckLevels(const ColumnBatch& input) const {
    for (size_t r = 0; r < input.num_rows(); ++r) {
      for (const BoundColumn& bound : udf_->coded_) {
        const Column& col =
            input.column(static_cast<size_t>(bound.input_index));
        if (col.IsNull(r)) {
          return Status::InvalidArgument("coded column has non-integer value");
        }
        const int64_t level = col.ints[r];
        if (level < 1 || level > bound.cardinality) {
          return Status::OutOfRange(
              "recoded value " + std::to_string(level) + " outside [1, " +
              std::to_string(bound.cardinality) + "]");
        }
      }
    }
    return Status::OK();
  }

  const CodeApplyUdf* udf_;
};

Result<TableUdfPartitionPtr> CodeApplyUdf::Open(const TableUdfContext&) {
  return TableUdfPartitionPtr(new Partition(this));
}

// ---------------------------------------------------------------------------

Status RegisterTransformUdfs(SqlEngine* engine) {
  TableUdfRegistry* registry = engine->table_udfs();
  // Concurrent transformers race to register first; losing the race is
  // fine.
  auto register_once = [registry](const std::string& name,
                                  TableUdfFactory factory) -> Status {
    Status registered = registry->Register(name, std::move(factory));
    if (registered.IsAlreadyExists()) return Status::OK();
    return registered;
  };
  RETURN_IF_ERROR(register_once("recode_local_distinct", [] {
    return std::make_shared<RecodeLocalDistinctUdf>();
  }));
  RETURN_IF_ERROR(register_once(
      "recode_assign", [] { return std::make_shared<RecodeAssignUdf>(); }));
  RETURN_IF_ERROR(register_once("dummy_code", [] {
    return std::make_shared<CodeApplyUdf>(CodingScheme::kDummy);
  }));
  RETURN_IF_ERROR(register_once("effect_code", [] {
    return std::make_shared<CodeApplyUdf>(CodingScheme::kEffect);
  }));
  RETURN_IF_ERROR(register_once("orthogonal_code", [] {
    return std::make_shared<CodeApplyUdf>(CodingScheme::kOrthogonal);
  }));
  return Status::OK();
}

}  // namespace sqlink
