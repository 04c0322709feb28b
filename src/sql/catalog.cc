#include "sql/catalog.h"

#include <algorithm>
#include <functional>
#include <string_view>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace sqlink {

namespace {

/// One column's statistics inputs, read from its typed chunks.
struct ColumnTally {
  double nulls = 0;
  double bytes = 0;  ///< In-memory payload size proxy: 16 per value, plus
                     ///< the length of a string.
  size_t distinct = 0;
};

/// Tallies column `c` of `table` in partition and row order, so every sum
/// adds the same terms in the same order a row-by-row scan did. Distinct
/// values are counted by the std::hash of their payload that Value::Hash()
/// uses; a string chunk hashes each dictionary entry its rows use once.
ColumnTally TallyColumn(const Table& table, size_t c) {
  ColumnTally tally;
  std::vector<size_t> hashes;
  std::vector<uint8_t> used;
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    for (const ColumnBatch& chunk : table.chunks(p)) {
      const Column& col = chunk.column(c);
      const size_t n = chunk.num_rows();
      if (col.type == DataType::kString) {
        used.assign(static_cast<size_t>(col.dict.size()), 0);
      }
      for (size_t r = 0; r < n; ++r) {
        if (col.IsNull(r)) {
          tally.nulls += 1;
          continue;
        }
        switch (col.type) {
          case DataType::kBool:
            hashes.push_back(std::hash<bool>()(col.bools[r] != 0));
            break;
          case DataType::kInt64:
            hashes.push_back(std::hash<int64_t>()(col.ints[r]));
            break;
          case DataType::kDouble:
            hashes.push_back(std::hash<double>()(col.doubles[r]));
            break;
          case DataType::kString: {
            const int32_t code = col.codes[r];
            used[static_cast<size_t>(code)] = 1;
            tally.bytes += 16.0 + static_cast<double>(col.dict[code].size());
            continue;
          }
        }
        tally.bytes += 16.0;
      }
      for (size_t id = 0; id < used.size(); ++id) {
        if (used[id] == 0) continue;
        hashes.push_back(std::hash<std::string_view>()(
            col.dict[static_cast<int32_t>(id)]));
      }
      used.clear();
    }
  }
  std::sort(hashes.begin(), hashes.end());
  tally.distinct = static_cast<size_t>(
      std::unique(hashes.begin(), hashes.end()) - hashes.begin());
  return tally;
}

TableStatsPtr ComputeStats(const Table& table) {
  auto stats = std::make_shared<TableStats>();
  const size_t width = static_cast<size_t>(table.schema()->num_fields());
  std::vector<ColumnTally> tallies(width);
  ParallelFor(width, [&](size_t c) { tallies[c] = TallyColumn(table, c); });
  const double rows = static_cast<double>(table.TotalRows());
  stats->row_count = rows;
  stats->columns.resize(width);
  for (size_t c = 0; c < width; ++c) {
    const ColumnTally& tally = tallies[c];
    ColumnStats& col = stats->columns[c];
    col.distinct_values = static_cast<double>(tally.distinct);
    col.null_fraction = rows > 0 ? tally.nulls / rows : 0;
    const double non_null = rows - tally.nulls;
    col.avg_bytes = non_null > 0 ? tally.bytes / non_null : 16.0;
    stats->avg_row_bytes += col.avg_bytes;
  }
  return stats;
}

}  // namespace

Status Catalog::RegisterTable(TablePtr table) {
  const std::string key = ToLowerAscii(table->name());
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table exists: " + table->name());
  }
  tables_.emplace(key, std::move(table));
  return Status::OK();
}

void Catalog::PutTable(TablePtr table) {
  const std::string key = ToLowerAscii(table->name());
  std::lock_guard<std::mutex> lock(mu_);
  tables_[key] = std::move(table);
  stats_.erase(key);
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("unknown table: " + name);
  }
  return it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(ToLowerAscii(name)) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = ToLowerAscii(name);
  stats_.erase(key);
  if (tables_.erase(key) == 0) {
    return Status::NotFound("unknown table: " + name);
  }
  return Status::OK();
}

Result<TableStatsPtr> Catalog::GetStats(const std::string& name) const {
  const std::string key = ToLowerAscii(name);
  TablePtr table;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto cached = stats_.find(key);
    if (cached != stats_.end()) return cached->second;
    auto it = tables_.find(key);
    if (it == tables_.end()) {
      return Status::NotFound("unknown table: " + name);
    }
    table = it->second;
  }
  // Scan outside the lock (stats computation is O(rows)); last writer wins
  // if two threads race, which is fine — both computed from live snapshots.
  TableStatsPtr stats = ComputeStats(*table);
  std::lock_guard<std::mutex> lock(mu_);
  stats_[key] = stats;
  return stats;
}

std::vector<std::string> Catalog::ListTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) {
    names.push_back(table->name());
  }
  return names;
}

}  // namespace sqlink
