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
/// content, NULLs by a fixed constant, +/-0.0 alike). Internally consistent
/// only — not comparable with HashRowKey on boxed rows.
uint64_t BatchRowHash(const ColumnBatch& batch, size_t row);

/// Exact row equality across batches of the same schema: NULL == NULL, and
/// non-null values compare by typed payload (dictionary strings by content).
bool BatchRowsEqual(const ColumnBatch& a, size_t ra, const ColumnBatch& b,
                    size_t rb);

}  // namespace sqlink

#endif  // SQLINK_SQL_BATCH_KERNELS_H_
