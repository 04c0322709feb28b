#ifndef SQLINK_COMMON_RUNTIME_FLAGS_H_
#define SQLINK_COMMON_RUNTIME_FLAGS_H_

namespace sqlink {

/// Whether the SQL engine runs the vectorized batch operators
/// (SQLINK_VECTORIZED_SQL=on|off, default on). Gates the executor's
/// ColumnBatch pipelines (scan/filter/project/hash join/DISTINCT); the
/// row-at-a-time operators stay as the fallback and both modes produce
/// identical results (enforced by tests/sql_differential_test.cc).
///
/// The environment is read once; tests flip the mode in-process with
/// SetVectorizedSqlEnabledForTest.
bool VectorizedSqlEnabled();

/// Test hook: 1 = force on, 0 = force off, -1 = back to the environment.
void SetVectorizedSqlEnabledForTest(int enabled);

}  // namespace sqlink

#endif  // SQLINK_COMMON_RUNTIME_FLAGS_H_
