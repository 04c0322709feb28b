#include "transform/recode_map.h"

#include <algorithm>
#include <utility>

#include "common/status_macros.h"
#include "common/string_util.h"

namespace sqlink {

namespace {
// Codes are expected to be small consecutive integers; anything outside this
// range is stored but marks the column irregular instead of growing the dense
// code index without bound.
constexpr int kMaxDenseCode = 1'000'000;
}  // namespace

Status RecodeMap::ColumnDict::Add(std::string_view value, int code) {
  const int32_t before = values_.size();
  const int32_t id = values_.GetOrAdd(value);
  if (id < before) {
    return Status::AlreadyExists("duplicate recode entry");
  }
  code_by_id_.push_back(code);
  if (code < 1 || code > kMaxDenseCode) {
    irregular_ = true;
  } else {
    const size_t slot = static_cast<size_t>(code) - 1;
    if (slot >= id_by_code_.size()) {
      id_by_code_.resize(slot + 1, -1);
    }
    if (id_by_code_[slot] >= 0) {
      irregular_ = true;  // Two values share a code.
    } else {
      id_by_code_[slot] = id;
    }
  }
  return Status::OK();
}

bool RecodeMap::ColumnDict::CodesConsecutive() const {
  if (irregular_) return false;
  if (id_by_code_.size() != static_cast<size_t>(values_.size())) return false;
  for (const int32_t id : id_by_code_) {
    if (id < 0) return false;
  }
  return true;
}

bool RecodeMap::ColumnDict::operator==(const ColumnDict& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (int32_t id = 0; id < values_.size(); ++id) {
    const int32_t other_id = other.values_.Find(values_[id]);
    if (other_id < 0 ||
        other.code_by_id_[static_cast<size_t>(other_id)] !=
            code_by_id_[static_cast<size_t>(id)]) {
      return false;
    }
  }
  return true;
}

SchemaPtr RecodeMap::TableSchema() {
  return Schema::Make({{"colname", DataType::kString},
                       {"colval", DataType::kString},
                       {"recodeval", DataType::kInt64}});
}

Result<RecodeMap> RecodeMap::FromTable(const Table& table) {
  if (table.schema()->num_fields() != 3) {
    return Status::InvalidArgument("recode map table needs 3 columns, got " +
                                   table.schema()->ToString());
  }
  RecodeMap map;
  Row row;
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    for (const ColumnBatch& chunk : table.chunks(p)) {
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        chunk.EmitRow(r, &row);
        if (row[0].is_null() || row[1].is_null() || !row[2].is_int64()) {
          return Status::InvalidArgument("malformed recode map row");
        }
        RETURN_IF_ERROR(map.Add(row[0].string_value(), row[1].string_value(),
                                static_cast<int>(row[2].int64_value())));
      }
    }
  }
  // Codes must be consecutive integers starting at 1 (SystemML-style
  // requirement the paper calls out).
  for (const std::string& column : map.Columns()) {
    if (!map.FindColumn(column)->CodesConsecutive()) {
      return Status::InvalidArgument("recode codes for column '" + column +
                                     "' are not consecutive from 1");
    }
  }
  return map;
}

TablePtr RecodeMap::ToTable(const std::string& name,
                            size_t num_partitions) const {
  auto table = std::make_shared<Table>(name, TableSchema(), num_partitions);
  for (const std::string& column : Columns()) {
    const ColumnDict& dict = *FindColumn(column);
    std::vector<std::pair<std::string_view, int>> entries;
    entries.reserve(static_cast<size_t>(dict.cardinality()));
    dict.ForEach([&entries](std::string_view value, int code) {
      entries.emplace_back(value, code);
    });
    std::sort(entries.begin(), entries.end());
    for (const auto& [value, code] : entries) {
      table->AppendRow(0, Row{Value::String(column),
                              Value::String(std::string(value)),
                              Value::Int64(code)});
    }
  }
  return table;
}

Status RecodeMap::Add(const std::string& column, const std::string& value,
                      int code) {
  ColumnDict* dict = GetOrAddColumn(ToLowerAscii(column));
  if (!dict->Add(value, code).ok()) {
    return Status::AlreadyExists("duplicate recode entry: " + column + "/" +
                                 value);
  }
  return Status::OK();
}

Result<int> RecodeMap::Code(const std::string& column,
                            const std::string& value) const {
  const ColumnDict* dict = FindColumn(column);
  if (dict == nullptr) {
    return Status::NotFound("column not in recode map: " + column);
  }
  int code = 0;
  if (!dict->Find(value, &code)) {
    return Status::NotFound("value not in recode map: " + column + "/" +
                            value);
  }
  return code;
}

int RecodeMap::Cardinality(const std::string& column) const {
  const ColumnDict* dict = FindColumn(column);
  return dict == nullptr ? 0 : dict->cardinality();
}

Result<std::vector<std::string>> RecodeMap::Labels(
    const std::string& column) const {
  const ColumnDict* dict = FindColumn(column);
  if (dict == nullptr) {
    return Status::NotFound("column not in recode map: " + column);
  }
  if (!dict->CodesConsecutive()) {
    return Status::InvalidArgument("recode codes for column '" +
                                   ToLowerAscii(column) +
                                   "' are not consecutive from 1");
  }
  std::vector<std::string> labels(static_cast<size_t>(dict->cardinality()));
  dict->ForEach([&labels](std::string_view value, int code) {
    labels[static_cast<size_t>(code - 1)] = std::string(value);
  });
  return labels;
}

std::vector<std::string> RecodeMap::Columns() const {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(name_index_.size()));
  for (int32_t i = 0; i < name_index_.size(); ++i) {
    names.emplace_back(name_index_[i]);
  }
  std::sort(names.begin(), names.end());
  return names;
}

const RecodeMap::ColumnDict* RecodeMap::FindColumn(
    std::string_view column) const {
  const int32_t id = name_index_.Find(ToLowerAscii(std::string(column)));
  return id < 0 ? nullptr : &dicts_[static_cast<size_t>(id)];
}

RecodeMap::ColumnDict* RecodeMap::GetOrAddColumn(
    const std::string& lower_name) {
  const int32_t id = name_index_.GetOrAdd(lower_name);
  if (static_cast<size_t>(id) == dicts_.size()) {
    dicts_.emplace_back();
  }
  return &dicts_[static_cast<size_t>(id)];
}

bool RecodeMap::operator==(const RecodeMap& other) const {
  if (dicts_.size() != other.dicts_.size()) return false;
  for (int32_t i = 0; i < name_index_.size(); ++i) {
    const int32_t other_id = other.name_index_.Find(name_index_[i]);
    if (other_id < 0 ||
        !(dicts_[static_cast<size_t>(i)] ==
          other.dicts_[static_cast<size_t>(other_id)])) {
      return false;
    }
  }
  return true;
}

}  // namespace sqlink
