#ifndef SQLINK_SQL_BATCH_KERNELS_H_
#define SQLINK_SQL_BATCH_KERNELS_H_

#include <cstdint>
#include <vector>

#include "table/column_batch.h"

namespace sqlink {

/// Builds a selection vector from an evaluated predicate column: the indices
/// of rows whose value is boolean TRUE, in row order. SQL filter semantics —
/// NULL and FALSE drop the row; a non-bool predicate column selects nothing
/// (as IsTruthy treats non-bool values as false).
void FilterToSelection(const Column& pred, size_t num_rows,
                       std::vector<int32_t>* sel);

/// Hash of one batch row, equal for rows BatchRowsEqual deems equal even
/// across batches with different dictionaries (string values hash by
/// content, NULLs by a fixed constant, +/-0.0 alike); a row of no columns
/// hashes to 0. DISTINCT and GROUP BY route each group by it to the worker
/// that merges it.
uint64_t BatchRowHash(const ColumnBatch& batch, size_t row);

/// BatchRowHash of every row of `batch`, into `hashes` (resized), computed
/// a column at a time with the type dispatch outside the row loop.
void BatchRowHashes(const ColumnBatch& batch, std::vector<uint64_t>* hashes);

/// Exact row equality across batches of the same schema: NULL == NULL, and
/// non-null values compare by typed payload (dictionary strings by content).
bool BatchRowsEqual(const ColumnBatch& a, size_t ra, const ColumnBatch& b,
                    size_t rb);

/// Compares cell `ra` of column `a` with cell `rb` of column `b`, both of
/// the type the function was chosen for.
using CellEquality = bool (*)(const Column& a, size_t ra, const Column& b,
                              size_t rb);

/// BatchRowsEqual's rule for one column of `type` on both sides, so a
/// kernel picks the typed comparison once per column and calls it per
/// cell. With `check_nulls`, NULL equals NULL and nothing else; without,
/// the caller guarantees both cells are non-NULL.
CellEquality CellEqualityFor(DataType type, bool check_nulls);

/// Hash index over the key columns of an equi join's build batch. For each
/// probe row, in order, it yields every build row whose keys equal the
/// probe row's, in ascending build-row order; a join's Double SUMs depend
/// on that order (the partition contract, DESIGN.md §10). Keys hash and
/// compare cell by cell with BatchRowHash's and BatchRowsEqual's rules,
/// except that a NULL key never matches: key columns of different types
/// never match (as Value::operator== decides), and 0.0 matches -0.0. With
/// no keys every build row matches every probe row (a cross join).
class JoinIndex {
 public:
  JoinIndex(ColumnBatch build, std::vector<int> keys);

  /// The build rows the index refers to by position.
  const ColumnBatch& batch() const { return build_; }

  /// Per-batch buffers of Probe, kept by the caller so that probing many
  /// batches allocates them once.
  struct Scratch {
    std::vector<uint64_t> hashes;   ///< Key hash per probe row.
    std::vector<uint8_t> null_key;  ///< Per probe row: has a NULL key.
  };

  /// Fills `probe_rows` and `build_rows` (cleared first) with the matching
  /// (probe row, build row) pairs of `probe`, whose key columns are
  /// `probe_keys` (as many as the build keys).
  void Probe(const ColumnBatch& probe, const std::vector<int>& probe_keys,
             Scratch* scratch, std::vector<int32_t>* probe_rows,
             std::vector<int32_t>* build_rows) const;

 private:
  size_t SlotOf(uint64_t h) const {
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  ColumnBatch build_;
  std::vector<int> keys_;
  std::vector<CellEquality> key_equal_;  ///< Per key: its typed comparison.
  std::vector<uint64_t> hashes_;  ///< Key hash per build row.
  std::vector<int32_t> heads_;    ///< Per slot: first build row, or -1.
  std::vector<int32_t> next_;     ///< Per build row: next row in its slot.
  int shift_ = 64;
};

}  // namespace sqlink

#endif  // SQLINK_SQL_BATCH_KERNELS_H_
