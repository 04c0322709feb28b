#ifndef SQLINK_SQL_ROW_ITERATOR_H_
#define SQLINK_SQL_ROW_ITERATOR_H_

#include <memory>

#include "common/result.h"
#include "table/value.h"

namespace sqlink {

/// Pull-based row stream: a table UDF's input (the executor adapts its
/// batch pipeline with BatchToRowIterator).
class RowIterator {
 public:
  virtual ~RowIterator() = default;

  /// Fills `*out` with the next row and returns true, or returns false at
  /// end of stream. Errors propagate as statuses.
  virtual Result<bool> Next(Row* out) = 0;
};

using RowIteratorPtr = std::unique_ptr<RowIterator>;

/// Push-based row consumer (table UDF output).
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual Status Push(Row row) = 0;
};

}  // namespace sqlink

#endif  // SQLINK_SQL_ROW_ITERATOR_H_
