#ifndef SQLINK_TABLE_TABLE_H_
#define SQLINK_TABLE_TABLE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/column_batch.h"
#include "table/record_batch.h"
#include "table/schema.h"

namespace sqlink {

/// A horizontally partitioned table: one partition per SQL worker, the
/// storage model of an MPP engine. Each partition is a list of ColumnBatch
/// chunks in row order. Every chunk holds 1 to kSqlBatchRows rows and every
/// chunk but a partition's last is full, so a scan hands out the same
/// kSqlBatchRows-row batches whatever appended the rows. Partitions may be
/// empty.
///
/// Appends happen before a table is published (registered in a catalog or
/// returned as a query result); after that, readers only read chunks, so
/// concurrent scans need no lock.
class Table {
 public:
  Table(std::string name, SchemaPtr schema, size_t num_partitions)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        partitions_(num_partitions) {}

  /// Takes over `data`'s schema and chunks under the name `name`.
  Table(std::string name, Table&& data)
      : name_(std::move(name)),
        schema_(std::move(data.schema_)),
        partitions_(std::move(data.partitions_)) {}

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }

  size_t num_partitions() const { return partitions_.size(); }
  /// Partition `p`'s chunks: what scans read.
  const std::vector<ColumnBatch>& chunks(size_t p) const {
    return partitions_[p];
  }
  /// Partition `p`'s rows, boxed into a copy (tests and small results).
  std::vector<Row> partition(size_t p) const;

  size_t TotalRows() const;

  /// Appends a row to partition `p`. The row's width and value types must
  /// match the schema, by ColumnBatch::AppendRow's rules (an INT64 value
  /// widens into a DOUBLE column). On error the table is unchanged.
  Status AppendRow(size_t p, const Row& row);

  /// Appends a batch's rows to partition `p`. Its column types must be the
  /// schema's. A batch of at most kSqlBatchRows rows becomes a chunk of its
  /// own when the partition's last chunk is full; otherwise its rows are
  /// gathered onto the last chunk, starting a new chunk at kSqlBatchRows.
  Status AppendBatch(size_t p, ColumnBatch batch);

  /// All rows gathered into one vector (tests and small results only).
  std::vector<Row> GatherRows() const;

 private:
  std::string name_;
  SchemaPtr schema_;
  std::vector<std::vector<ColumnBatch>> partitions_;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace sqlink

#endif  // SQLINK_TABLE_TABLE_H_
