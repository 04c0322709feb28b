#ifndef SQLINK_TABLE_VALUE_H_
#define SQLINK_TABLE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"

namespace sqlink {

/// SQL column types supported by the engine. Categorical variables are
/// STRING columns (the paper's motivating case for recoding).
enum class DataType : int { kBool = 0, kInt64 = 1, kDouble = 2, kString = 3 };

std::string_view DataTypeToString(DataType type);
Result<DataType> DataTypeFromString(std::string_view name);

/// A single SQL value: NULL or one of the supported types. Values are
/// ordered and hashable so they can serve as join/distinct keys.
class Value {
 public:
  /// NULL.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Repr(std::in_place_index<1>, v)); }
  static Value Int64(int64_t v) {
    return Value(Repr(std::in_place_index<2>, v));
  }
  static Value Double(double v) {
    return Value(Repr(std::in_place_index<3>, v));
  }
  static Value String(std::string v) {
    return Value(Repr(std::in_place_index<4>, std::move(v)));
  }

  bool is_null() const { return repr_.index() == 0; }
  bool is_bool() const { return repr_.index() == 1; }
  bool is_int64() const { return repr_.index() == 2; }
  bool is_double() const { return repr_.index() == 3; }
  bool is_string() const { return repr_.index() == 4; }

  /// The type of a non-null value; calling on NULL aborts.
  DataType type() const;

  bool bool_value() const { return std::get<1>(repr_); }
  int64_t int64_value() const { return std::get<2>(repr_); }
  double double_value() const { return std::get<3>(repr_); }
  const std::string& string_value() const { return std::get<4>(repr_); }

  /// Numeric widening: int64 and double values as double. Errors otherwise.
  Result<double> AsDouble() const;

  /// Exact equality; NULL equals NULL here (used for grouping/DISTINCT,
  /// not SQL ternary logic — SQL comparison semantics live in the
  /// expression evaluator).
  bool operator==(const Value& other) const { return repr_ == other.repr_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order: NULL first, then by type index, then by value.
  /// Cross-numeric (int64 vs double) comparisons compare numerically.
  bool operator<(const Value& other) const;

  size_t Hash() const;

  /// Text rendering used by the CSV codec and diagnostics. NULL renders as
  /// the empty string; booleans as "true"/"false".
  std::string ToString() const;

  /// Parses `text` as the requested type. Empty text parses to NULL.
  static Result<Value> Parse(std::string_view text, DataType type);

 private:
  using Repr = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Repr repr) : repr_(std::move(repr)) {}

  Repr repr_;
};

/// One table row. Rows are plain value vectors; the schema lives with the
/// batch/table they belong to.
using Row = std::vector<Value>;

}  // namespace sqlink

#endif  // SQLINK_TABLE_VALUE_H_
