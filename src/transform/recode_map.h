#ifndef SQLINK_TRANSFORM_RECODE_MAP_H_
#define SQLINK_TRANSFORM_RECODE_MAP_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/string_dict.h"
#include "table/schema.h"
#include "table/table.h"

namespace sqlink {

/// The recode map of §2.1: per categorical column, the mapping from string
/// value to its consecutive integer code starting at 1 (e.g.
/// ("gender","F")→1, ("gender","M")→2). Stored in SQL as a three-column
/// table (colname, colval, recodeval) — the representation the final
/// recoding join consumes and the §5.2 cache stores. Column names are
/// canonicalized to lower case; values are case-sensitive.
///
/// Internally each column is a contiguous open-addressing dictionary
/// (StringDict heap + dense ids), so a value→code lookup is O(1) with no
/// tree walk and no string allocation.
class RecodeMap {
 public:
  /// One column's dictionary: labels stored contiguously in insertion
  /// order, an open-addressing index for O(1) lookups, and the id↔code
  /// correspondence (codes may arrive in any order via Add).
  class ColumnDict {
   public:
    /// O(1) code for `value`; 0 when absent (valid codes start at 1).
    int Lookup(std::string_view value) const {
      const int32_t id = values_.Find(value);
      return id < 0 ? 0 : code_by_id_[static_cast<size_t>(id)];
    }

    /// Like Lookup but distinguishes absence from a (pathological) 0 code.
    bool Find(std::string_view value, int* code) const {
      const int32_t id = values_.Find(value);
      if (id < 0) return false;
      *code = code_by_id_[static_cast<size_t>(id)];
      return true;
    }

    int cardinality() const { return values_.size(); }

    /// Label of 1-based `code`; empty view when the code is unknown.
    std::string_view LabelOf(int code) const {
      const size_t i = static_cast<size_t>(code) - 1;
      if (code < 1 || i >= id_by_code_.size() || id_by_code_[i] < 0) {
        return {};
      }
      return values_[id_by_code_[i]];
    }

    /// Whether the codes form exactly 1..cardinality().
    bool CodesConsecutive() const;

    Status Add(std::string_view value, int code);

    /// Visits every (value, code) pair in insertion order.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (int32_t id = 0; id < values_.size(); ++id) {
        fn(values_[id], code_by_id_[static_cast<size_t>(id)]);
      }
    }

    bool operator==(const ColumnDict& other) const;

   private:
    StringDict values_;             ///< value → dense insertion id.
    std::vector<int> code_by_id_;   ///< insertion id → code.
    std::vector<int32_t> id_by_code_;  ///< code-1 → insertion id (-1 unset).
    bool irregular_ = false;  ///< A code outside the dense-index range seen.
  };

  RecodeMap() = default;

  /// Schema of the SQL representation.
  static SchemaPtr TableSchema();

  /// Parses the (colname, colval, recodeval) rows of a map table.
  /// Validates that each column's codes are consecutive integers from 1.
  static Result<RecodeMap> FromTable(const Table& table);

  /// Renders this map as a map table partitioned for `num_partitions`
  /// workers (all rows on partition 0 — maps are small and broadcast).
  TablePtr ToTable(const std::string& name, size_t num_partitions) const;

  /// Adds one mapping; fails on duplicates.
  Status Add(const std::string& column, const std::string& value, int code);

  /// The code for a value, or NotFound.
  Result<int> Code(const std::string& column, const std::string& value) const;

  bool HasColumn(const std::string& column) const {
    return name_index_.Find(column) >= 0;
  }
  /// Distinct-value count of a column (0 when absent).
  int Cardinality(const std::string& column) const;

  /// Value labels of a column ordered by code (1..K).
  Result<std::vector<std::string>> Labels(const std::string& column) const;

  std::vector<std::string> Columns() const;

  bool operator==(const RecodeMap& other) const;

 private:
  /// The dictionary of `column` (name canonicalized to lower case), or null
  /// when absent.
  const ColumnDict* FindColumn(std::string_view column) const;
  ColumnDict* GetOrAddColumn(const std::string& lower_name);

  StringDict name_index_;  ///< lower-case column name → index into dicts_.
  std::vector<ColumnDict> dicts_;
};

}  // namespace sqlink

#endif  // SQLINK_TRANSFORM_RECODE_MAP_H_
