// Executor-vs-oracle differential harness.
//
// Every query — the committed golden corpus plus hundreds of
// generator-driven random queries — runs through the engine and through
// the naive reference evaluator in sql_oracle.h, over the same bound plan.
// Both must succeed or both fail, and successful results must be identical
// as unordered multisets, cell for cell. The generator is seeded, so a
// failure reproduces by rerunning the test; the failing SQL text is
// printed with the diff.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/fs_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "sql/engine.h"
#include "sql_corpus.h"
#include "sql_oracle.h"
#include "transform/udfs.h"

namespace sqlink {
namespace {

/// A table UDF that emits one row per partition, in Finish: how many rows
/// it consumed. Output that depends on the whole input pins when the
/// executor calls Finish.
class RowCountUdf final : public TableUdf {
 public:
  Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                         const std::vector<Value>&) override {
    if (input_schema == nullptr) {
      return Status::InvalidArgument("row_count needs an input relation");
    }
    return Schema::Make({{"rows", DataType::kInt64}});
  }

  Result<TableUdfPartitionPtr> Open(const TableUdfContext&) override {
    class Partition final : public TableUdfPartition {
     public:
      Status Consume(ColumnBatch input, ColumnBatch*) override {
        rows_ += static_cast<int64_t>(input.num_rows());
        return Status::OK();
      }
      Status Finish(ColumnBatch* output) override {
        return output->AppendRow(Row{Value::Int64(rows_)});
      }

     private:
      int64_t rows_ = 0;
    };
    return TableUdfPartitionPtr(new Partition());
  }
};

/// Outcome of one run: either a canonical result or an error text.
struct RunOutcome {
  bool ok = false;
  std::string canonical;  ///< Sorted pipe-joined rows when ok.
  std::string error;      ///< Status message when !ok.

  explicit RunOutcome(const Result<std::vector<Row>>& rows) {
    ok = rows.ok();
    if (ok) {
      canonical = CanonicalResult(*rows);
    } else {
      error = rows.status().ToString();
    }
  }
};

class SqlDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("sql_diff");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);
    RegisterCorpusTables(engine_.get());
    ASSERT_TRUE(RegisterTransformUdfs(engine_.get()).ok());
    ASSERT_TRUE(engine_->table_udfs()
                    ->Register("row_count",
                               [] { return std::make_shared<RowCountUdf>(); })
                    .ok());
  }

  RunOutcome RunEngine(const std::string& sql) {
    auto result = engine_->ExecuteSql(sql);
    if (!result.ok()) return RunOutcome(result.status());
    return RunOutcome((*result)->GatherRows());
  }

  RunOutcome RunOracle(const std::string& sql) {
    return RunOutcome(oracle::RunSql(engine_.get(), sql));
  }

  /// Runs `sql` through the engine and the oracle and asserts identical
  /// outcomes. Returns the oracle's outcome for further checks.
  RunOutcome ExpectEngineMatchesOracle(const std::string& sql) {
    RunOutcome engine = RunEngine(sql);
    RunOutcome oracle = RunOracle(sql);
    EXPECT_EQ(engine.ok, oracle.ok) << sql << "\nengine error: "
                                    << engine.error
                                    << "\noracle error: " << oracle.error;
    if (engine.ok && oracle.ok) {
      EXPECT_EQ(engine.canonical, oracle.canonical) << sql;
    }
    return oracle;
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(SqlDifferentialTest, GoldenCorpusAgreesAcrossEngines) {
  auto corpus = LoadQueryCorpus();
  ASSERT_GE(corpus.size(), 14u) << "query corpus missing from " SQLINK_QUERY_DIR;
  const bool update = EnvInt64("SQLINK_UPDATE_GOLDENS", 0) != 0;
  for (const CorpusQuery& query : corpus) {
    SCOPED_TRACE(query.name);
    RunOutcome oracle = ExpectEngineMatchesOracle(query.sql);
    ASSERT_TRUE(oracle.ok) << query.sql << " -> " << oracle.error;
    if (update) {
      ASSERT_TRUE(WriteFileAtomic(query.expected_path, oracle.canonical).ok());
      continue;
    }
    auto golden = ReadFileToString(query.expected_path);
    ASSERT_TRUE(golden.ok())
        << query.expected_path
        << " missing; regenerate with SQLINK_UPDATE_GOLDENS=1";
    EXPECT_EQ(oracle.canonical, *golden) << query.sql;
  }
}

// ---------------------------------------------------------------------------
// Generator-driven differential fuzzing.
// ---------------------------------------------------------------------------

struct CorpusColumn {
  const char* name;
  DataType type;
};

constexpr CorpusColumn kEventColumns[] = {{"k", DataType::kInt64},
                                          {"v", DataType::kDouble},
                                          {"s", DataType::kString},
                                          {"flag", DataType::kBool}};

const char* const kEventTables[] = {"e0", "e1", "e1023", "e1024", "e1025"};

std::string GenLiteral(Random& rng, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return std::to_string(rng.UniformInt(-2, 33));
    case DataType::kDouble:
      return std::to_string(rng.UniformInt(-500, 500)) + ".5";
    case DataType::kString: {
      static const char* const kStrings[] = {"alpha", "beta", "gamma",
                                             "delta", "",     "x"};
      return std::string("'") + kStrings[rng.Uniform(6)] + "'";
    }
    case DataType::kBool:
      return rng.Bernoulli(0.5) ? "TRUE" : "FALSE";
    default:
      return "0";
  }
}

/// A single type-compatible predicate over `prefix`-qualified event columns.
std::string GenComparison(Random& rng, const std::string& prefix) {
  const CorpusColumn& col = kEventColumns[rng.Uniform(4)];
  std::string ref = prefix + col.name;
  switch (rng.Uniform(8)) {
    case 0:
      return ref + " IS NULL";
    case 1:
      return ref + " IS NOT NULL";
    default: {
      const char* ops_numeric[] = {"=", "<>", "<", "<=", ">", ">="};
      const char* op = (col.type == DataType::kInt64 ||
                        col.type == DataType::kDouble)
                           ? ops_numeric[rng.Uniform(6)]
                           : (rng.Bernoulli(0.5) ? "=" : "<>");
      return ref + " " + op + " " + GenLiteral(rng, col.type);
    }
  }
}

std::string GenPredicate(Random& rng, const std::string& prefix, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.45)) return GenComparison(rng, prefix);
  switch (rng.Uniform(3)) {
    case 0:
      return "(" + GenPredicate(rng, prefix, depth - 1) + " AND " +
             GenPredicate(rng, prefix, depth - 1) + ")";
    case 1:
      return "(" + GenPredicate(rng, prefix, depth - 1) + " OR " +
             GenPredicate(rng, prefix, depth - 1) + ")";
    default:
      return "NOT (" + GenPredicate(rng, prefix, depth - 1) + ")";
  }
}

std::string GenProjection(Random& rng, const std::string& prefix) {
  switch (rng.Uniform(5)) {
    case 0:
      return prefix + "k + " + std::to_string(rng.UniformInt(-3, 3));
    case 1:
      return prefix + "v * " + std::to_string(rng.UniformInt(1, 4));
    case 2:
      return prefix + "s";
    case 3:
      return prefix + "flag";
    default:
      return prefix + std::string(kEventColumns[rng.Uniform(4)].name);
  }
}

/// An aggregate query over `table`: global (one row even over e0) or
/// grouped by one or two int/string/bool keys (sometimes with no aggregate
/// at all), optionally joined with dims, filtered, and with a HAVING over
/// COUNT(*).
std::string GenAggregateQuery(Random& rng, const std::string& table) {
  const bool join = rng.Bernoulli(0.25);
  const std::string e = join ? "e." : "";
  std::vector<std::string> keys;
  if (!rng.Bernoulli(0.25)) {
    static const char* const kKeys[] = {"k", "s", "flag"};
    const size_t first = rng.Uniform(3);
    keys.push_back(e + kKeys[first]);
    if (rng.Bernoulli(0.4)) keys.push_back(e + kKeys[(first + 1) % 3]);
    if (join && rng.Bernoulli(0.5)) keys.push_back("d.label");
  }
  std::vector<std::string> aggs = {"COUNT(*)"};
  const size_t extra = 1 + rng.Uniform(3);
  for (size_t i = 0; i < extra; ++i) {
    switch (rng.Uniform(7)) {
      case 0:
        aggs.push_back("COUNT(" + e +
                       kEventColumns[rng.Uniform(4)].name + ")");
        break;
      case 1:
        aggs.push_back("SUM(" + e + (rng.Bernoulli(0.5) ? "v)" : "k)"));
        break;
      case 2:
        aggs.push_back("AVG(" + e + (rng.Bernoulli(0.5) ? "v)" : "k)"));
        break;
      case 3:
        aggs.push_back(std::string(rng.Bernoulli(0.5) ? "MIN(" : "MAX(") +
                       e + "s)");
        break;
      case 4:
        aggs.push_back(std::string(rng.Bernoulli(0.5) ? "MIN(" : "MAX(") +
                       e + (rng.Bernoulli(0.5) ? "v)" : "k)"));
        break;
      case 5:
        aggs.push_back("SUM(" + e + "v * " +
                       std::to_string(rng.UniformInt(1, 3)) + ")");
        break;
      default:
        aggs.push_back("MAX(" + e + "v)");
        break;
    }
  }
  if (!keys.empty() && rng.Bernoulli(0.1)) aggs.clear();
  std::vector<std::string> items = keys;
  items.insert(items.end(), aggs.begin(), aggs.end());
  std::string sql = "SELECT " + JoinStrings(items, ", ") + " FROM " + table;
  if (join) sql += " e JOIN dims d ON e.k = d.k";
  if (rng.Bernoulli(0.5)) sql += " WHERE " + GenPredicate(rng, e, 1);
  if (!keys.empty()) sql += " GROUP BY " + JoinStrings(keys, ", ");
  if (!aggs.empty() && rng.Bernoulli(0.3)) {
    sql += " HAVING COUNT(*) > " + std::to_string(rng.UniformInt(0, 40));
  }
  return sql;
}

std::string GenQuery(Random& rng) {
  const std::string table = kEventTables[rng.Uniform(5)];
  switch (rng.Uniform(12)) {
    case 0:
    case 1:
    case 2: {  // Single-table filter + projection.
      std::string sql = "SELECT ";
      const size_t ncols = 1 + rng.Uniform(3);
      for (size_t i = 0; i < ncols; ++i) {
        if (i) sql += ", ";
        sql += GenProjection(rng, "");
      }
      sql += " FROM " + table;
      if (rng.Bernoulli(0.8)) sql += " WHERE " + GenPredicate(rng, "", 2);
      return sql;
    }
    case 3:
    case 4: {  // DISTINCT over low-cardinality projections.
      std::string sql = "SELECT DISTINCT k";
      if (rng.Bernoulli(0.5)) sql += ", flag";
      if (rng.Bernoulli(0.3)) sql += ", s";
      sql += " FROM " + table;
      if (rng.Bernoulli(0.6)) sql += " WHERE " + GenPredicate(rng, "", 1);
      return sql;
    }
    case 5:
    case 6:
    case 7: {  // Join with dims, optionally DISTINCT and filtered.
      std::string sql = "SELECT ";
      if (rng.Bernoulli(0.4)) sql += "DISTINCT ";
      sql += GenProjection(rng, "e.") + ", d.label FROM " + table +
             " e JOIN dims d ON e.k = d.k";
      if (rng.Bernoulli(0.7)) sql += " WHERE " + GenPredicate(rng, "e.", 1);
      return sql;
    }
    case 8: {  // Self join on k.
      return "SELECT a.k, b.v FROM " + table + " a, " + table +
             " b WHERE a.k = b.k AND " + GenPredicate(rng, "a.", 1);
    }
    default:  // Aggregation.
      return GenAggregateQuery(rng, table);
  }
}

TEST_F(SqlDifferentialTest, GeneratedQueriesAgreeAcrossEngines) {
  // >= 200 generated queries (ISSUE 6); bump via SQLINK_DIFF_QUERIES.
  const int64_t total = EnvInt64("SQLINK_DIFF_QUERIES", 220);
  int executed = 0;
  for (const uint64_t seed : {1u, 7u, 42u, 1234u}) {
    Random rng(seed);
    for (int64_t i = 0; i < total / 4 + 1; ++i) {
      const std::string sql = GenQuery(rng);
      SCOPED_TRACE("seed=" + std::to_string(seed) + " i=" + std::to_string(i) +
                   "\n" + sql);
      ExpectEngineMatchesOracle(sql);
      ++executed;
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GE(executed, 200);
}

// Table UDFs on every side of the batch boundary: the coding UDFs over a
// filter and over a join, with levels in range and (both sides must fail)
// out of range or NULL; recode_local_distinct under DISTINCT; a filter and
// projection over UDF output; chains of two UDFs; LIMIT over a UDF; and a
// self join whose UDF output runs past one batch per worker. The event
// tables' `s` takes seven values, all in their first batch, so
// recode_local_distinct also runs over a table of its own whose strings
// keep bringing new values past each partition's first 1024 rows: a UDF
// that carried state from one batch's dictionary into the next would lose
// them, and differently under 7-row and 1024-row batches.
TEST_F(SqlDifferentialTest, TableUdfQueriesAgreeAcrossEngines) {
  auto fresh = engine_->MakeTable("fresh",
                                  Schema::Make({{"s", DataType::kString},
                                                {"t", DataType::kString}}));
  Random rng(11);
  for (size_t p = 0; p < fresh->num_partitions(); ++p) {
    for (size_t i = 0; i < kSqlBatchRows + 300; ++i) {
      const Value s = rng.Bernoulli(0.05)
                          ? Value::Null()
                          : Value::String("s" + std::to_string(i / 3));
      const Value t = Value::String("t" + std::to_string(rng.Uniform(i + 1)));
      ASSERT_TRUE(fresh->AppendRow(p, Row{s, t}).ok());
    }
  }
  engine_->catalog()->PutTable(fresh);
  EXPECT_TRUE(ExpectEngineMatchesOracle(
                  "SELECT DISTINCT * FROM TABLE(recode_local_distinct(("
                  "SELECT s, t FROM fresh), 's,t'))")
                  .ok);

  int failures = 0;
  for (const char* const table : kEventTables) {
    const std::string t = table;
    const std::string in_range = "(SELECT k, v, s FROM " + t +
                                 " WHERE k >= 1 AND k <= 8)";
    const std::string joined = "(SELECT e.k, d.label FROM " + t +
                               " e JOIN dims d ON e.k = d.k";
    std::vector<std::string> queries;
    for (const char* const udf : {"dummy_code", "effect_code",
                                  "orthogonal_code"}) {
      const std::string call = std::string("SELECT * FROM TABLE(") + udf;
      queries.push_back(call + "(" + in_range + ", 'k:8'))");
      queries.push_back(call + "(" + joined +
                        " WHERE e.k >= 1 AND e.k <= 8), 'k:8'))");
      queries.push_back(call + "((SELECT k, v FROM " + t + "), 'k:8'))");
      queries.push_back(call + "(" + joined + "), 'k:8'))");
      queries.push_back(call + "((SELECT k FROM " + t +
                        " WHERE k IS NULL OR (k >= 1 AND k <= 8)), 'k:8'))");
    }
    queries.push_back(
        "SELECT DISTINCT * FROM TABLE(recode_local_distinct((SELECT s, flag "
        "FROM " + t + "), 's'))");
    queries.push_back(
        "SELECT DISTINCT * FROM TABLE(recode_local_distinct((SELECT e.s, "
        "d.label FROM " + t + " e JOIN dims d ON e.k = d.k), 's,label'))");
    queries.push_back("SELECT k_1 + k_2, v * 2, s FROM TABLE(dummy_code(" +
                      in_range + ", 'k:8')) WHERE k_3 = 0 AND v > 0");
    queries.push_back(
        "SELECT DISTINCT * FROM TABLE(recode_local_distinct((SELECT * FROM "
        "TABLE(dummy_code((SELECT k, s FROM " + t +
        " WHERE k >= 1 AND k <= 4), 'k:4'))), 's'))");
    queries.push_back(
        "SELECT * FROM TABLE(effect_code((SELECT * FROM TABLE(dummy_code(("
        "SELECT k, k AS j, v FROM " + t +
        " WHERE k >= 1 AND k <= 4), 'k:4'))), 'j:4'))");
    queries.push_back("SELECT * FROM TABLE(orthogonal_code(" + in_range +
                      ", 'k:8')) LIMIT 100");
    queries.push_back("SELECT * FROM TABLE(row_count((SELECT * FROM TABLE("
                      "dummy_code(" + in_range + ", 'k:8'))))) LIMIT 3");
    queries.push_back("SELECT * FROM TABLE(row_count((SELECT k FROM " + t +
                      " WHERE k IS NOT NULL)))");
    queries.push_back("SELECT * FROM TABLE(dummy_code((SELECT a.k, b.v FROM " +
                      t + " a, " + t +
                      " b WHERE a.k = b.k AND a.k >= 1 AND a.k <= 8), 'k:8'))");
    queries.push_back("SELECT * FROM TABLE(row_count((SELECT a.k FROM " + t +
                      " a, " + t + " b WHERE a.k = b.k)))");
    for (const std::string& sql : queries) {
      SCOPED_TRACE(sql);
      if (!ExpectEngineMatchesOracle(sql).ok) ++failures;
    }
  }
  // The three out-of-range and NULL-level queries per coding UDF fail on
  // e1023, e1024 and e1025 at least.
  EXPECT_GE(failures, 3 * 3 * 3);
}

// GROUP BY and DISTINCT past one batch of groups per worker, over a table
// of their own: `many` holds 2 x 1024 rows per partition, with an INT64 key
// of more than 1024 values in every partition and heavy overlap across
// partitions, a STRING key whose range shifts per partition (so every
// partition's dictionaries differ), about 5% NULLs in each, and a DOUBLE
// of mixed signs and magnitudes, whose sums depend on the order they are
// added in. The corpus tables hold at most 1025 rows and 33 keys, so only
// here does a worker's group table pass 1024 groups before the merge.
TEST_F(SqlDifferentialTest, ManyGroupsAgreeAcrossEngines) {
  auto many = engine_->MakeTable("many",
                                 Schema::Make({{"k", DataType::kInt64},
                                               {"s", DataType::kString},
                                               {"v", DataType::kDouble}}));
  Random rng(23);
  for (size_t p = 0; p < many->num_partitions(); ++p) {
    std::set<int64_t> distinct_k;
    for (size_t i = 0; i < 2 * kSqlBatchRows; ++i) {
      const int64_t k = static_cast<int64_t>(rng.Uniform(1536) + 128 * p);
      const uint64_t s = rng.Uniform(1600) + 200 * p;
      const double v = (rng.NextDouble() - 0.5) *
                       static_cast<double>(uint64_t{1} << rng.Uniform(40));
      Row row{Value::Int64(k), Value::String("s" + std::to_string(s)),
              Value::Double(v)};
      for (Value& cell : row) {
        if (rng.Bernoulli(0.05)) cell = Value::Null();
      }
      if (!row[0].is_null()) distinct_k.insert(k);
      ASSERT_TRUE(many->AppendRow(p, row).ok());
    }
    ASSERT_GT(distinct_k.size(), kSqlBatchRows);
  }
  engine_->catalog()->PutTable(many);

  const std::string aggregates =
      "COUNT(*), COUNT(v), COUNT(s), SUM(v), AVG(v), MIN(s), MAX(s), "
      "MIN(v), MAX(v)";
  for (const std::string keys : {"k", "s", "k, s"}) {
    for (const std::string& sql :
         {"SELECT " + keys + ", " + aggregates + " FROM many GROUP BY " + keys,
          "SELECT DISTINCT " + keys + " FROM many"}) {
      SCOPED_TRACE(sql);
      const RunOutcome oracle = ExpectEngineMatchesOracle(sql);
      ASSERT_TRUE(oracle.ok) << oracle.error;
      EXPECT_FALSE(oracle.canonical.empty());
    }
  }
}

// Join-heavy differential sweep: each query runs once through the engine's
// broadcast hash join and must agree with the oracle's nested loop.
TEST_F(SqlDifferentialTest, JoinStrategiesAgreeAcrossEngines) {
  Random rng(99);
  for (int i = 0; i < 30; ++i) {
    const std::string table = kEventTables[rng.Uniform(5)];
    std::string sql = "SELECT e.k, e.s, d.label FROM " + table +
                      " e JOIN dims d ON e.k = d.k";
    if (rng.Bernoulli(0.6)) sql += " WHERE " + GenPredicate(rng, "e.", 1);
    SCOPED_TRACE(sql);

    RunOutcome engine = RunEngine(sql);
    RunOutcome oracle = RunOracle(sql);
    ASSERT_TRUE(engine.ok) << engine.error;
    ASSERT_TRUE(oracle.ok) << oracle.error;
    EXPECT_EQ(engine.canonical, oracle.canonical);
  }
}

}  // namespace
}  // namespace sqlink
