#ifndef SQLINK_SQL_CATALOG_H_
#define SQLINK_SQL_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace sqlink {

/// Per-column statistics, computed by one full scan of the table.
struct ColumnStats {
  double distinct_values = 0;  ///< Hash-based NDV estimate; 0 = unknown.
  double null_fraction = 0;    ///< Fraction of rows where the value is NULL.
  double avg_bytes = 16;       ///< Average in-memory payload bytes per value.
};

/// Table-level statistics feeding the planner's estimates: filter
/// selectivity (NDV, null fractions) and join output cardinality. The byte
/// widths are measured, but no plan decision reads them.
struct TableStats {
  double row_count = 0;
  double avg_row_bytes = 0;          ///< Sum of per-column avg_bytes.
  std::vector<ColumnStats> columns;  ///< Aligned with the table schema.
};

using TableStatsPtr = std::shared_ptr<const TableStats>;

/// Thread-safe table registry (the engine's "NameNode for tables").
/// Names are case-insensitive.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Status RegisterTable(TablePtr table);
  /// Registers or replaces.
  void PutTable(TablePtr table);
  Result<TablePtr> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  Status DropTable(const std::string& name);
  std::vector<std::string> ListTables() const;

  /// Statistics for a registered table. Computed on first request by a full
  /// scan of its typed columns, one thread per column, then cached;
  /// PutTable/DropTable invalidate the cached entry, so a stats snapshot can
  /// only go stale if a caller appends to a table after publishing it.
  Result<TableStatsPtr> GetStats(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, TablePtr> tables_;        // Lower-case key.
  mutable std::map<std::string, TableStatsPtr> stats_;  // Lower-case key.
};

}  // namespace sqlink

#endif  // SQLINK_SQL_CATALOG_H_
