#include "table/value.h"

#include <functional>

#include "common/logging.h"
#include "common/string_util.h"

namespace sqlink {

std::string_view DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kBool:
      return "BOOL";
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

Result<DataType> DataTypeFromString(std::string_view name) {
  if (EqualsIgnoreCase(name, "BOOL") || EqualsIgnoreCase(name, "BOOLEAN")) {
    return DataType::kBool;
  }
  if (EqualsIgnoreCase(name, "INT64") || EqualsIgnoreCase(name, "INT") ||
      EqualsIgnoreCase(name, "BIGINT") || EqualsIgnoreCase(name, "INTEGER")) {
    return DataType::kInt64;
  }
  if (EqualsIgnoreCase(name, "DOUBLE") || EqualsIgnoreCase(name, "FLOAT") ||
      EqualsIgnoreCase(name, "REAL")) {
    return DataType::kDouble;
  }
  if (EqualsIgnoreCase(name, "STRING") || EqualsIgnoreCase(name, "VARCHAR") ||
      EqualsIgnoreCase(name, "TEXT")) {
    return DataType::kString;
  }
  return Status::ParseError("unknown type name: " + std::string(name));
}

DataType Value::type() const {
  switch (repr_.index()) {
    case 1:
      return DataType::kBool;
    case 2:
      return DataType::kInt64;
    case 3:
      return DataType::kDouble;
    case 4:
      return DataType::kString;
    default:
      LOG_FATAL() << "type() called on NULL value";
  }
  return DataType::kString;  // Unreachable.
}

Result<double> Value::AsDouble() const {
  if (is_double()) return double_value();
  if (is_int64()) return static_cast<double>(int64_value());
  if (is_bool()) return bool_value() ? 1.0 : 0.0;
  return Status::InvalidArgument("value is not numeric: " + ToString());
}

bool Value::operator<(const Value& other) const {
  // Numeric cross-type comparison: compare as doubles.
  const bool this_num = is_int64() || is_double();
  const bool other_num = other.is_int64() || other.is_double();
  if (this_num && other_num && repr_.index() != other.repr_.index()) {
    return *AsDouble() < *other.AsDouble();
  }
  return repr_ < other.repr_;
}

size_t Value::Hash() const {
  switch (repr_.index()) {
    case 0:
      return 0x9e3779b9;
    case 1:
      return std::hash<bool>()(bool_value());
    case 2:
      return std::hash<int64_t>()(int64_value());
    case 3:
      return std::hash<double>()(double_value());
    case 4:
      return std::hash<std::string>()(string_value());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (repr_.index()) {
    case 0:
      return "";
    case 1:
      return bool_value() ? "true" : "false";
    case 2:
      return std::to_string(int64_value());
    case 3: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_value());
      return buf;
    }
    case 4:
      return string_value();
  }
  return "";
}

Result<Value> Value::Parse(std::string_view text, DataType type) {
  if (text.empty()) return Value::Null();
  switch (type) {
    case DataType::kBool: {
      if (EqualsIgnoreCase(text, "true") || text == "1") {
        return Value::Bool(true);
      }
      if (EqualsIgnoreCase(text, "false") || text == "0") {
        return Value::Bool(false);
      }
      return Status::ParseError("invalid bool literal: " + std::string(text));
    }
    case DataType::kInt64: {
      auto parsed = ParseInt64(text);
      if (!parsed.ok()) return parsed.status();
      return Value::Int64(*parsed);
    }
    case DataType::kDouble: {
      auto parsed = ParseDouble(text);
      if (!parsed.ok()) return parsed.status();
      return Value::Double(*parsed);
    }
    case DataType::kString:
      return Value::String(std::string(text));
  }
  return Status::Internal("unhandled data type");
}

}  // namespace sqlink
