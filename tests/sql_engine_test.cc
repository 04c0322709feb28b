#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/status_macros.h"
#include "common/string_util.h"
#include "sql/engine.h"
#include "sql_corpus.h"

namespace sqlink {
namespace {

/// Sorts rows for order-insensitive comparison.
std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return a.size() < b.size();
  });
  return rows;
}

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("sql_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);

    // The paper's running example: carts and users.
    auto users_schema = Schema::Make({{"userid", DataType::kInt64},
                                      {"age", DataType::kInt64},
                                      {"gender", DataType::kString},
                                      {"country", DataType::kString}});
    auto users = engine_->MakeTable("users", users_schema);
    AddUser(users.get(), 1, 57, "F", "USA");
    AddUser(users.get(), 2, 40, "M", "USA");
    AddUser(users.get(), 3, 35, "F", "CA");
    AddUser(users.get(), 4, 22, "M", "USA");
    AddUser(users.get(), 5, 61, "F", "USA");
    ASSERT_TRUE(engine_->catalog()->RegisterTable(users).ok());

    auto carts_schema = Schema::Make({{"cartid", DataType::kInt64},
                                      {"userid", DataType::kInt64},
                                      {"amount", DataType::kDouble},
                                      {"abandoned", DataType::kString}});
    auto carts = engine_->MakeTable("carts", carts_schema);
    AddCart(carts.get(), 100, 1, 153.99, "Yes");
    AddCart(carts.get(), 101, 2, 99.50, "Yes");
    AddCart(carts.get(), 102, 3, 75.25, "No");
    AddCart(carts.get(), 103, 4, 12.00, "No");
    AddCart(carts.get(), 104, 1, 300.00, "No");
    AddCart(carts.get(), 105, 9, 1.00, "Yes");  // No matching user.
    ASSERT_TRUE(engine_->catalog()->RegisterTable(carts).ok());
  }

  void AddUser(Table* t, int64_t id, int64_t age, const std::string& gender,
               const std::string& country) {
    t->AppendRow(static_cast<size_t>(id) % t->num_partitions(),
                 Row{Value::Int64(id), Value::Int64(age),
                     Value::String(gender), Value::String(country)});
  }

  void AddCart(Table* t, int64_t cart, int64_t user, double amount,
               const std::string& abandoned) {
    t->AppendRow(static_cast<size_t>(cart) % t->num_partitions(),
                 Row{Value::Int64(cart), Value::Int64(user),
                     Value::Double(amount), Value::String(abandoned)});
  }

  std::vector<Row> Run(const std::string& sql) {
    auto result = engine_->ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    if (!result.ok()) return {};
    return (*result)->GatherRows();
  }

  /// Registers table `name` (x INT) holding 0..rows-1, round-robin over the
  /// partitions.
  void AddCountingTable(const std::string& name, size_t rows) {
    auto table =
        engine_->MakeTable(name, Schema::Make({{"x", DataType::kInt64}}));
    for (size_t i = 0; i < rows; ++i) {
      table->AppendRow(i % table->num_partitions(),
                       Row{Value::Int64(static_cast<int64_t>(i))});
    }
    engine_->catalog()->PutTable(table);
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(SqlEngineTest, SelectStarSingleTable) {
  EXPECT_EQ(Run("SELECT * FROM users").size(), 5u);
}

TEST_F(SqlEngineTest, FilterPushdown) {
  auto rows = Run("SELECT userid FROM users WHERE country = 'USA'");
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(SqlEngineTest, PaperExampleJoin) {
  auto rows = Run(
      "SELECT U.age, U.gender, C.amount, C.abandoned "
      "FROM carts C, users U "
      "WHERE C.userid = U.userid AND U.country = 'USA'");
  // Carts 100,101,103,104 belong to USA users; 102 is CA; 105 dangles.
  ASSERT_EQ(rows.size(), 4u);
  for (const Row& row : rows) {
    EXPECT_EQ(row.size(), 4u);
    EXPECT_TRUE(row[0].is_int64());
    EXPECT_TRUE(row[1].is_string());
  }
}

TEST_F(SqlEngineTest, JoinOrderIndependent) {
  auto a = Sorted(Run(
      "SELECT U.userid, C.cartid FROM carts C, users U "
      "WHERE C.userid = U.userid"));
  auto b = Sorted(Run(
      "SELECT U.userid, C.cartid FROM users U, carts C "
      "WHERE U.userid = C.userid"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 5u);
}

TEST_F(SqlEngineTest, ProjectionExpressions) {
  auto rows = Run(
      "SELECT amount * 2 AS dbl, UPPER(abandoned) AS ab FROM carts "
      "WHERE cartid = 100");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][0].double_value(), 307.98);
  EXPECT_EQ(rows[0][1], Value::String("YES"));
}

TEST_F(SqlEngineTest, DistinctGlobal) {
  auto rows = Run("SELECT DISTINCT gender FROM users");
  EXPECT_EQ(rows.size(), 2u);
  auto rows2 = Run("SELECT DISTINCT gender, country FROM users");
  EXPECT_EQ(rows2.size(), 3u);  // (F,USA), (M,USA), (F,CA).
}

TEST_F(SqlEngineTest, AggregateGroupBy) {
  auto rows = Sorted(Run(
      "SELECT gender, COUNT(*) AS n, MIN(age) AS young FROM users "
      "GROUP BY gender"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::String("F"));
  EXPECT_EQ(rows[0][1], Value::Int64(3));
  EXPECT_EQ(rows[0][2], Value::Int64(35));
  EXPECT_EQ(rows[1][0], Value::String("M"));
  EXPECT_EQ(rows[1][1], Value::Int64(2));
}

TEST_F(SqlEngineTest, GlobalAggregates) {
  auto rows = Run(
      "SELECT COUNT(*), SUM(amount), AVG(amount), MAX(amount) FROM carts");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(6));
  EXPECT_NEAR(rows[0][1].double_value(), 641.74, 1e-9);
  EXPECT_NEAR(rows[0][2].double_value(), 641.74 / 6, 1e-9);
  EXPECT_DOUBLE_EQ(rows[0][3].double_value(), 300.0);
}

TEST_F(SqlEngineTest, GlobalAggregateOnEmptyInput) {
  auto rows = Run("SELECT COUNT(*) FROM users WHERE age > 1000");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(0));
}

TEST_F(SqlEngineTest, OrderByAndLimit) {
  auto rows = Run("SELECT cartid, amount FROM carts ORDER BY amount DESC");
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0][0], Value::Int64(104));
  EXPECT_EQ(rows[5][0], Value::Int64(105));
  auto limited = Run(
      "SELECT cartid FROM carts ORDER BY amount DESC LIMIT 2");
  ASSERT_EQ(limited.size(), 2u);
  EXPECT_EQ(limited[0][0], Value::Int64(104));
  EXPECT_EQ(limited[1][0], Value::Int64(100));
}

TEST_F(SqlEngineTest, SubqueryInFrom) {
  auto rows = Run(
      "SELECT big.cartid FROM "
      "(SELECT cartid, amount FROM carts WHERE amount > 90) big "
      "WHERE big.amount < 200");
  ASSERT_EQ(rows.size(), 2u);  // 100 (153.99) and 101 (99.50).
}

TEST_F(SqlEngineTest, BetweenAndOr) {
  auto rows = Run(
      "SELECT userid FROM users WHERE age BETWEEN 30 AND 60 "
      "AND (gender = 'F' OR country = 'USA')");
  EXPECT_EQ(rows.size(), 3u);  // Users 1 (57,F), 2 (40,M,USA), 3 (35,F).
}

TEST_F(SqlEngineTest, NullSemanticsInFilters) {
  auto t = engine_->MakeTable(
      "nully", Schema::Make({{"x", DataType::kInt64}}));
  t->AppendRow(0, Row{Value::Int64(1)});
  t->AppendRow(1, Row{Value::Null()});
  t->AppendRow(2, Row{Value::Int64(3)});
  ASSERT_TRUE(engine_->catalog()->RegisterTable(t).ok());
  // NULL comparisons are not TRUE -> row dropped.
  EXPECT_EQ(Run("SELECT x FROM nully WHERE x > 0").size(), 2u);
  EXPECT_EQ(Run("SELECT x FROM nully WHERE x IS NULL").size(), 1u);
  EXPECT_EQ(Run("SELECT x FROM nully WHERE x IS NOT NULL").size(), 2u);
  // NULL join keys never match.
  EXPECT_EQ(Run("SELECT a.x FROM nully a, nully b WHERE a.x = b.x").size(),
            2u);
}

TEST_F(SqlEngineTest, AmbiguousColumnRejected) {
  auto status =
      engine_->ExecuteSql("SELECT userid FROM carts C, users U").status();
  EXPECT_FALSE(status.ok());
}

TEST_F(SqlEngineTest, UnknownTableAndColumnErrors) {
  EXPECT_TRUE(
      engine_->ExecuteSql("SELECT x FROM ghost").status().IsNotFound());
  EXPECT_FALSE(engine_->ExecuteSql("SELECT ghost FROM users").ok());
}

TEST_F(SqlEngineTest, CrossJoinWithoutKeys) {
  auto rows = Run("SELECT U.userid, C.cartid FROM users U, carts C");
  EXPECT_EQ(rows.size(), 30u);
}

TEST_F(SqlEngineTest, RepartitionJoinMatchesBroadcast) {
  // Run the same join through both strategies: broadcast (default
  // threshold) and repartition (threshold forced to zero). Results must
  // agree row-for-row.
  const std::string sql =
      "SELECT U.userid, C.cartid, C.amount FROM carts C, users U "
      "WHERE C.userid = U.userid AND U.country = 'USA'";
  auto broadcast = Sorted(Run(sql));
  EXPECT_NE(PlanTreeToString(*engine_->Plan(sql)).find("[broadcast]"),
            std::string::npos);

  engine_->set_broadcast_threshold_rows(0);
  EXPECT_NE(PlanTreeToString(*engine_->Plan(sql)).find("[repartition]"),
            std::string::npos);
  auto repartition = Sorted(Run(sql));
  engine_->set_broadcast_threshold_rows(500000);

  EXPECT_EQ(broadcast, repartition);
  EXPECT_EQ(broadcast.size(), 4u);
}

TEST_F(SqlEngineTest, RepartitionJoinMultiKeyAndNulls) {
  auto t = engine_->MakeTable("pairs",
                              Schema::Make({{"x", DataType::kInt64},
                                            {"y", DataType::kString}}));
  t->AppendRow(0, Row{Value::Int64(1), Value::String("a")});
  t->AppendRow(1, Row{Value::Int64(1), Value::String("b")});
  t->AppendRow(2, Row{Value::Int64(2), Value::String("a")});
  t->AppendRow(3, Row{Value::Null(), Value::String("a")});
  ASSERT_TRUE(engine_->catalog()->RegisterTable(t).ok());
  const std::string sql =
      "SELECT l.x FROM pairs l, pairs r WHERE l.x = r.x AND l.y = r.y";
  auto broadcast = Sorted(Run(sql));
  engine_->set_broadcast_threshold_rows(0);
  auto repartition = Sorted(Run(sql));
  engine_->set_broadcast_threshold_rows(500000);
  EXPECT_EQ(broadcast, repartition);
  EXPECT_EQ(broadcast.size(), 3u);  // NULL keys never match themselves.
}

TEST_F(SqlEngineTest, ExplicitInnerJoinSyntax) {
  auto comma = Sorted(Run(
      "SELECT U.age, C.amount FROM carts C, users U "
      "WHERE C.userid = U.userid AND U.country = 'USA'"));
  auto join = Sorted(Run(
      "SELECT U.age, C.amount FROM carts C JOIN users U "
      "ON C.userid = U.userid WHERE U.country = 'USA'"));
  auto inner = Sorted(Run(
      "SELECT U.age, C.amount FROM carts C INNER JOIN users U "
      "ON C.userid = U.userid WHERE U.country = 'USA'"));
  EXPECT_EQ(comma, join);
  EXPECT_EQ(comma, inner);
  EXPECT_EQ(comma.size(), 4u);
}

TEST_F(SqlEngineTest, ChainedExplicitJoins) {
  auto t = engine_->MakeTable("countries",
                              Schema::Make({{"code", DataType::kString},
                                            {"name", DataType::kString}}));
  t->AppendRow(0, Row{Value::String("USA"), Value::String("United States")});
  t->AppendRow(1, Row{Value::String("CA"), Value::String("Canada")});
  ASSERT_TRUE(engine_->catalog()->RegisterTable(t).ok());
  auto rows = Run(
      "SELECT N.name, C.amount FROM carts C "
      "JOIN users U ON C.userid = U.userid "
      "JOIN countries N ON U.country = N.code "
      "WHERE U.age > 30");
  EXPECT_EQ(rows.size(), 4u);  // Users 1, 2, 3, 5 have carts; 4 is 22.
}

TEST_F(SqlEngineTest, InnerWithoutJoinRejected) {
  EXPECT_FALSE(
      engine_->ExecuteSql("SELECT * FROM carts INNER users").ok());
}

TEST_F(SqlEngineTest, MaterializeRegistersResult) {
  auto table = engine_->MaterializeSql(
      "SELECT userid, age FROM users WHERE country = 'USA'", "usa_users");
  ASSERT_TRUE(table.ok());
  auto rows = Run("SELECT * FROM usa_users WHERE age > 30");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(SqlEngineTest, ScalarFunctionsInPredicates) {
  auto rows = Run("SELECT userid FROM users WHERE LOWER(country) = 'usa'");
  EXPECT_EQ(rows.size(), 4u);
  auto rows2 = Run("SELECT LENGTH(country) AS l FROM users WHERE userid = 3");
  ASSERT_EQ(rows2.size(), 1u);
  EXPECT_EQ(rows2[0][0], Value::Int64(2));
}

TEST_F(SqlEngineTest, CustomScalarUdf) {
  ASSERT_TRUE(engine_
                  ->scalar_udfs()
                  ->Register(ScalarFunction{
                      "double_it",
                      [](const std::vector<DataType>& args) -> Result<DataType> {
                        if (args.size() != 1) {
                          return Status::InvalidArgument("double_it(x)");
                        }
                        return args[0];
                      },
                      [](const std::vector<Value>& args) -> Result<Value> {
                        if (args[0].is_null()) return Value::Null();
                        return Value::Int64(args[0].int64_value() * 2);
                      }})
                  .ok());
  auto rows = Run("SELECT double_it(age) FROM users WHERE userid = 1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(114));
}

/// A test table UDF: emits (worker_id, row_count) per partition — verifies
/// parallel per-partition execution and UDF plumbing.
class PartitionCounterUdf final : public TableUdf {
 public:
  Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                         const std::vector<Value>& args) override {
    if (input_schema == nullptr) {
      return Status::InvalidArgument("needs an input relation");
    }
    if (!args.empty()) return Status::InvalidArgument("takes no args");
    return Schema::Make(
        {{"worker", DataType::kInt64}, {"cnt", DataType::kInt64}});
  }

  Result<TableUdfPartitionPtr> Open(const TableUdfContext& context) override {
    class Partition final : public TableUdfPartition {
     public:
      explicit Partition(int worker) : worker_(worker) {}
      Status Consume(Row, RowSink*) override {
        ++count_;
        return Status::OK();
      }
      Status Finish(RowSink* output) override {
        return output->Push(Row{Value::Int64(worker_), Value::Int64(count_)});
      }

     private:
      int worker_;
      int64_t count_ = 0;
    };
    return TableUdfPartitionPtr(new Partition(context.worker_id));
  }
};

TEST_F(SqlEngineTest, TableUdfRunsPerWorker) {
  ASSERT_TRUE(engine_->table_udfs()
                  ->Register("partition_counter",
                             [] { return std::make_shared<PartitionCounterUdf>(); })
                  .ok());
  auto rows = Run(
      "SELECT * FROM TABLE(partition_counter((SELECT * FROM carts)))");
  ASSERT_EQ(rows.size(), 4u);  // One row per SQL worker.
  int64_t total = 0;
  std::set<int64_t> workers;
  for (const Row& row : rows) {
    workers.insert(row[0].int64_value());
    total += row[1].int64_value();
  }
  EXPECT_EQ(total, 6);
  EXPECT_EQ(workers.size(), 4u);
}

TEST_F(SqlEngineTest, TableUdfWithBareTableName) {
  ASSERT_TRUE(engine_->table_udfs()
                  ->Register("partition_counter2",
                             [] { return std::make_shared<PartitionCounterUdf>(); })
                  .ok());
  auto rows = Run("SELECT * FROM TABLE(partition_counter2(carts))");
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(SqlEngineTest, PlanRendering) {
  auto plan = engine_->Plan(
      "SELECT U.age FROM carts C, users U "
      "WHERE C.userid = U.userid AND U.country = 'USA'");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::string tree = PlanTreeToString(*plan);
  EXPECT_NE(tree.find("HashJoin"), std::string::npos);
  EXPECT_NE(tree.find("Filter"), std::string::npos);  // Pushed-down filter.
  EXPECT_NE(tree.find("Scan(carts)"), std::string::npos);
}

TEST_F(SqlEngineTest, OrderByMultipleKeysMixedDirections) {
  auto rows = Run(
      "SELECT abandoned, amount FROM carts ORDER BY abandoned ASC, "
      "amount DESC");
  ASSERT_EQ(rows.size(), 6u);
  // 'No' group first (amount descending within), then 'Yes'.
  EXPECT_EQ(rows[0][0], Value::String("No"));
  EXPECT_DOUBLE_EQ(rows[0][1].double_value(), 300.0);
  EXPECT_EQ(rows[1][0], Value::String("No"));
  EXPECT_DOUBLE_EQ(rows[1][1].double_value(), 75.25);
  EXPECT_EQ(rows[3][0], Value::String("Yes"));
  EXPECT_DOUBLE_EQ(rows[3][1].double_value(), 153.99);
}

TEST_F(SqlEngineTest, OrderByOrdinalPosition) {
  auto rows = Run("SELECT userid, age FROM users ORDER BY 2 DESC LIMIT 1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Int64(61));  // Oldest user.
}

TEST_F(SqlEngineTest, CastFunctions) {
  auto rows = Run(
      "SELECT CAST_STRING(age), CAST_DOUBLE(age), CAST_INT64(amount) "
      "FROM carts C, users U WHERE C.userid = U.userid AND cartid = 100");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::String("57"));
  EXPECT_DOUBLE_EQ(rows[0][1].double_value(), 57.0);
  EXPECT_EQ(rows[0][2], Value::Int64(153));
  // String -> number casts parse strictly.
  auto bad = engine_->ExecuteSql(
      "SELECT CAST_INT64(gender) FROM users WHERE userid = 1");
  EXPECT_FALSE(bad.ok());
}

TEST_F(SqlEngineTest, ScalarFunctionErrorsPropagateFromWorkers) {
  // Division by zero inside a projection surfaces as a status, not a crash.
  auto status =
      engine_->ExecuteSql("SELECT amount / (cartid - cartid) FROM carts")
          .status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("division by zero"), std::string::npos);
}

TEST_F(SqlEngineTest, MinMaxOnStrings) {
  auto rows = Run("SELECT MIN(gender), MAX(country) FROM users");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::String("F"));
  EXPECT_EQ(rows[0][1], Value::String("USA"));
  // SUM over strings is rejected at planning time.
  EXPECT_TRUE(engine_->ExecuteSql("SELECT SUM(gender) FROM users")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SqlEngineTest, GlobalAggregateWithHaving) {
  auto some = Run("SELECT COUNT(*) AS n FROM carts HAVING COUNT(*) > 3");
  ASSERT_EQ(some.size(), 1u);
  EXPECT_EQ(some[0][0], Value::Int64(6));
  auto none = Run("SELECT COUNT(*) AS n FROM carts HAVING COUNT(*) > 100");
  EXPECT_EQ(none.size(), 0u);
}

TEST_F(SqlEngineTest, InListDesugarsToDisjunction) {
  auto rows = Run("SELECT userid FROM users WHERE country IN ('USA', 'MX')");
  EXPECT_EQ(rows.size(), 4u);
  auto none = Run("SELECT userid FROM users WHERE country IN ('MX', 'BR')");
  EXPECT_EQ(none.size(), 0u);
  auto negated =
      Run("SELECT userid FROM users WHERE country NOT IN ('USA')");
  EXPECT_EQ(negated.size(), 1u);  // Only the CA user.
  auto numeric = Run("SELECT userid FROM users WHERE userid IN (1, 3, 5)");
  EXPECT_EQ(numeric.size(), 3u);
}

TEST_F(SqlEngineTest, HavingFiltersGroups) {
  auto rows = Sorted(Run(
      "SELECT userid, COUNT(*) AS n FROM carts GROUP BY userid "
      "HAVING COUNT(*) > 1"));
  // Only user 1 has two carts (100, 104).
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[0][1], Value::Int64(2));
}

TEST_F(SqlEngineTest, HavingOnGroupKeyAndAggregate) {
  auto rows = Run(
      "SELECT gender, MAX(age) AS oldest FROM users GROUP BY gender "
      "HAVING gender = 'F' AND MAX(age) > 50");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::String("F"));
  EXPECT_EQ(rows[0][1], Value::Int64(61));
}

TEST_F(SqlEngineTest, HavingAggregateMissingFromSelectRejected) {
  auto status = engine_
                    ->ExecuteSql(
                        "SELECT gender FROM users GROUP BY gender "
                        "HAVING SUM(age) > 10")
                    .status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("SELECT list"), std::string::npos);
}

TEST_F(SqlEngineTest, ExplainRendersPlanTree) {
  auto explain = engine_->ExplainSql(
      "SELECT U.age FROM carts C, users U WHERE C.userid = U.userid "
      "ORDER BY age LIMIT 3");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("Limit(3)"), std::string::npos);
  EXPECT_NE(explain->find("Sort"), std::string::npos);
  EXPECT_NE(explain->find("HashJoin[broadcast]"), std::string::npos);
}

/// EXPLAIN as a first-class statement: a one-column plan table with
/// per-node estimates and cumulative cost, no execution.
TEST_F(SqlEngineTest, ExplainStatementReturnsPlanRows) {
  auto result = engine_->ExecuteSql(
      "EXPLAIN SELECT U.age FROM carts C, users U WHERE C.userid = U.userid "
      "ORDER BY age LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status();
  const SchemaPtr& schema = (*result)->schema();
  ASSERT_EQ(schema->num_fields(), 1);
  EXPECT_EQ(schema->field(0).name, "plan");
  EXPECT_EQ(schema->field(0).type, DataType::kString);
  std::string text;
  for (const Row& row : (*result)->GatherRows()) {
    text += row[0].string_value();
    text += "\n";
  }
  EXPECT_NE(text.find("Limit(3)"), std::string::npos) << text;
  EXPECT_NE(text.find("HashJoin[broadcast]"), std::string::npos) << text;
  EXPECT_NE(text.find("est="), std::string::npos) << text;
  EXPECT_NE(text.find("cost="), std::string::npos) << text;
}

TEST_F(SqlEngineTest, ExplainAnalyzeReportsEstimatedVsActualRows) {
  // Join + filter + DISTINCT, the acceptance query shape: the analyzed
  // root's actual row count must equal the executed result's cardinality.
  const std::string query =
      "SELECT DISTINCT U.age, U.gender FROM carts C, users U "
      "WHERE C.userid = U.userid AND C.amount > 50";
  auto executed = engine_->ExecuteSql(query);
  ASSERT_TRUE(executed.ok()) << executed.status();
  const size_t expected_rows = (*executed)->TotalRows();
  ASSERT_GT(expected_rows, 0u);

  auto analyzed = engine_->ExecuteSql("EXPLAIN ANALYZE " + query);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  std::vector<Row> lines = (*analyzed)->GatherRows();
  ASSERT_FALSE(lines.empty());
  // Partition 0 holds the whole rendering in order; the first line is the
  // root (DISTINCT) node.
  const std::string root = (*analyzed)->partition(0)[0][0].string_value();
  EXPECT_NE(root.find("Distinct"), std::string::npos) << root;
  EXPECT_NE(root.find("est="), std::string::npos) << root;
  EXPECT_NE(root.find("actual=" + std::to_string(expected_rows) + " rows"),
            std::string::npos)
      << root;
  // Every node line carries a q-error.
  for (const Row& row : lines) {
    EXPECT_NE(row[0].string_value().find("q="), std::string::npos)
        << row[0].string_value();
  }
}

/// The batch count EXPLAIN ANALYZE reports for the Scan of
/// `SELECT x FROM <table>`.
int64_t ScanBatches(SqlEngine* engine, const std::string& table) {
  auto analyzed = engine->ExecuteSql("EXPLAIN ANALYZE SELECT x FROM " + table);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status();
  if (!analyzed.ok()) return -1;
  for (const Row& line : (*analyzed)->GatherRows()) {
    const std::string text = line[0].string_value();
    const size_t at = text.find("batches=");
    if (text.find("Scan") == std::string::npos || at == std::string::npos) {
      continue;
    }
    return std::stoll(text.substr(at + 8));
  }
  ADD_FAILURE() << "no Scan line with a batch count for " << table;
  return -1;
}

// A pipeline's result is stored in Table's chunk layout: the filter's
// partial batches are packed into full chunks, so a scan over the result
// hands out as many batches as a scan over a base table of the same
// partition sizes.
TEST_F(SqlEngineTest, FilterResultIsStoredInFullChunks) {
  auto base = engine_->MakeTable(
      "pattern",
      Schema::Make({{"x", DataType::kInt64}, {"keep", DataType::kInt64}}));
  for (int64_t i = 0; i < 4 * 3000; ++i) {
    ASSERT_TRUE(base->AppendRow(static_cast<size_t>(i) % 4,
                                Row{Value::Int64(i), Value::Int64(i % 3 != 0)})
                    .ok());
  }
  engine_->catalog()->PutTable(base);
  // Every third row goes, so each 1024-row scan batch leaves the filter
  // partial; each partition keeps 2000 rows.
  auto filtered = engine_->MaterializeSql(
      "SELECT x FROM pattern WHERE keep = 1", "filtered");
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  auto same_size = engine_->MakeTable("same_size", (*filtered)->schema());
  for (size_t p = 0; p < (*filtered)->num_partitions(); ++p) {
    const std::vector<ColumnBatch>& chunks = (*filtered)->chunks(p);
    ASSERT_EQ(chunks.size(), 2u) << "partition " << p;
    EXPECT_EQ(chunks[0].num_rows(), kSqlBatchRows) << "partition " << p;
    EXPECT_EQ(chunks[1].num_rows(), 2000u - kSqlBatchRows) << "partition " << p;
    for (int64_t r = 0; r < 2000; ++r) {
      ASSERT_TRUE(same_size->AppendRow(p, Row{Value::Int64(r)}).ok());
    }
  }
  engine_->catalog()->PutTable(same_size);
  EXPECT_EQ(ScanBatches(engine_.get(), "filtered"), 8);
  EXPECT_EQ(ScanBatches(engine_.get(), "same_size"), 8);
}

// Catalog statistics read the typed chunks and must equal what a row-by-row
// scan computes: NULLs from the bitmap, NDV from Value::Hash's hash of each
// payload (so 0.0 and -0.0 are one value), string widths per row.
TEST(CatalogStatsTest, TypedStatsMatchHandComputedValues) {
  auto table = std::make_shared<Table>(
      "stats", Schema::Make({{"id", DataType::kInt64},
                             {"x", DataType::kDouble},
                             {"s", DataType::kString}}),
      4);
  for (int64_t i = 0; i < 2500; ++i) {
    const Value id = i % 10 == 9 ? Value::Null() : Value::Int64(i);
    Value x = Value::Null();
    if (i % 4 != 0) {
      x = Value::Double(i % 50 == 0 && (i / 50) % 2 == 1
                            ? -0.0
                            : static_cast<double>(i % 50) * 0.5);
    }
    const Value s =
        i % 5 == 0 ? Value::Null()
                   : Value::String(std::string(static_cast<size_t>(1 + i % 3),
                                               static_cast<char>('a' + i % 7)));
    ASSERT_TRUE(table->AppendRow(0, Row{id, x, s}).ok());
  }
  ASSERT_EQ(table->chunks(0).size(), 3u);
  Catalog catalog;
  catalog.PutTable(table);
  auto stats = catalog.GetStats("stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  const TableStats& t = **stats;
  EXPECT_EQ(t.row_count, 2500);
  ASSERT_EQ(t.columns.size(), 3u);
  // id: every tenth row NULL, the rest distinct.
  EXPECT_EQ(t.columns[0].distinct_values, 2250);
  EXPECT_EQ(t.columns[0].null_fraction, 250.0 / 2500.0);
  EXPECT_EQ(t.columns[0].avg_bytes, 16);
  // x: every fourth row NULL; 50 values, the zeros of both signs as one.
  EXPECT_EQ(t.columns[1].distinct_values, 50);
  EXPECT_EQ(t.columns[1].null_fraction, 625.0 / 2500.0);
  EXPECT_EQ(t.columns[1].avg_bytes, 16);
  // s: every fifth row NULL; 21 strings (i mod 21) whose lengths 1, 2 and 3
  // fall on 667, 667 and 666 of the 2000 other rows.
  EXPECT_EQ(t.columns[2].distinct_values, 21);
  EXPECT_EQ(t.columns[2].null_fraction, 500.0 / 2500.0);
  EXPECT_EQ(t.columns[2].avg_bytes, (2000 * 16.0 + 3999) / 2000);
  EXPECT_EQ(t.avg_row_bytes, 16 + 16 + (2000 * 16.0 + 3999) / 2000);
}

TEST_F(SqlEngineTest, ExplainAnalyzeTracksQueryInRegistry) {
  QueryRegistry::Global().Reset();
  auto analyzed = engine_->ExecuteSql(
      "EXPLAIN ANALYZE SELECT U.age FROM carts C, users U "
      "WHERE C.userid = U.userid");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  ASSERT_EQ(QueryRegistry::Global().finished_count(), 1u);
  QueryRecordPtr record = QueryRegistry::Global().Finished()[0];
  EXPECT_TRUE(record->finished);
  EXPECT_TRUE(record->ok);
  EXPECT_GE(record->worst_qerror, 1.0);
  ASSERT_NE(record->stats, nullptr);
  EXPECT_EQ(record->stats->RootActualRows(), 5);
  const std::string json = QueryRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"finished\""), std::string::npos);
  EXPECT_NE(json.find("\"operators\""), std::string::npos);
  QueryRegistry::Global().Reset();
}

TEST_F(SqlEngineTest, LimitWithoutSortTerminatesEarly) {
  // Early termination: LIMIT over a pipelined scan must not depend on
  // total table size for correctness, and output respects the limit.
  auto rows = Run("SELECT cartid FROM carts LIMIT 2");
  EXPECT_EQ(rows.size(), 2u);
  auto all = Run("SELECT cartid FROM carts LIMIT 100");
  EXPECT_EQ(all.size(), 6u);  // Fewer rows than the limit.
  auto zero = Run("SELECT cartid FROM carts LIMIT 0");
  EXPECT_EQ(zero.size(), 0u);
  auto joined =
      Run("SELECT U.age FROM carts C, users U WHERE C.userid = U.userid "
          "LIMIT 3");
  EXPECT_EQ(joined.size(), 3u);
}

/// LIMIT polls cancellation between the batches it pulls: a LIMIT larger
/// than its 100-batch table, paced by the batch failpoint, ends Cancelled
/// when another thread cancels it.
TEST_F(SqlEngineTest, LimitPollsCancellationBetweenBatches) {
  AddCountingTable("big", 100 * kSqlBatchRows);
  ScopedFailpoint pace("sql.exec.batch", "delay(20)");
  Cancellation cancellation;
  QueryOptions options;
  options.cancellation = &cancellation;
  std::thread canceller([&cancellation] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cancellation.Cancel(Status::Cancelled("limit query cancelled"));
  });
  auto result = engine_->ExecuteSql(
      "SELECT x FROM big LIMIT " + std::to_string(200 * kSqlBatchRows),
      "result", options);
  canceller.join();
  ASSERT_FALSE(result.ok()) << "the LIMIT ran to completion";
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
}

/// A table UDF that passes its input through and counts the rows it read.
class CountingPassThroughUdf final : public TableUdf {
 public:
  explicit CountingPassThroughUdf(std::atomic<int64_t>* rows_read)
      : rows_read_(rows_read) {}

  Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                         const std::vector<Value>&) override {
    if (input_schema == nullptr) {
      return Status::InvalidArgument("needs an input relation");
    }
    return input_schema;
  }

  Result<TableUdfPartitionPtr> Open(const TableUdfContext&) override {
    class Partition final : public TableUdfPartition {
     public:
      explicit Partition(std::atomic<int64_t>* rows_read)
          : rows_read_(rows_read) {}
      Status Consume(Row row, RowSink* output) override {
        rows_read_->fetch_add(1);
        return output->Push(std::move(row));
      }

     private:
      std::atomic<int64_t>* rows_read_;
    };
    return TableUdfPartitionPtr(new Partition(rows_read_));
  }

 private:
  std::atomic<int64_t>* rows_read_;
};

/// LIMIT over a table UDF returns its rows and stops the UDF early: the UDF
/// reads fewer rows than its input table holds.
TEST_F(SqlEngineTest, LimitOverTableUdfStopsItsInput) {
  constexpr size_t kRows = 40000;
  AddCountingTable("many", kRows);
  std::atomic<int64_t> rows_read{0};
  ASSERT_TRUE(engine_->table_udfs()
                  ->Register("count_through",
                             [&rows_read] {
                               return std::make_shared<CountingPassThroughUdf>(
                                   &rows_read);
                             })
                  .ok());
  auto rows = Run("SELECT x FROM TABLE(count_through(many)) LIMIT 3");
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_GT(rows_read.load(), 0);
  EXPECT_LT(rows_read.load(), static_cast<int64_t>(kRows));
}

/// A table UDF that passes rows through, except on worker 1, whose first
/// row makes it give up with a Cancelled status of its own.
class GivesUpOnWorkerOneUdf final : public TableUdf {
 public:
  Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                         const std::vector<Value>&) override {
    if (input_schema == nullptr) {
      return Status::InvalidArgument("needs an input relation");
    }
    return input_schema;
  }

  Result<TableUdfPartitionPtr> Open(const TableUdfContext& context) override {
    class Partition final : public TableUdfPartition {
     public:
      explicit Partition(int worker) : worker_(worker) {}
      Status Consume(Row row, RowSink* output) override {
        if (worker_ == 1) return Status::Cancelled("udf gave up");
        return output->Push(std::move(row));
      }

     private:
      int worker_;
    };
    return TableUdfPartitionPtr(new Partition(context.worker_id));
  }
};

/// A UDF's Cancelled status is an error like any other, not the end of its
/// input: the query fails instead of returning without worker 1's rows.
TEST_F(SqlEngineTest, TableUdfCancelledStatusFailsTheQuery) {
  AddCountingTable("numbers", 64);
  ASSERT_TRUE(engine_->table_udfs()
                  ->Register("gives_up", [] {
                    return std::make_shared<GivesUpOnWorkerOneUdf>();
                  })
                  .ok());
  auto result = engine_->ExecuteSql("SELECT x FROM TABLE(gives_up(numbers))");
  ASSERT_FALSE(result.ok()) << "the query dropped worker 1's rows";
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  EXPECT_EQ(result.status().message(), "udf gave up");
}

/// Threads each partition of a recording UDF was called on, keyed by
/// (UDF name, worker).
struct UdfThreadLog {
  std::mutex mu;
  std::map<std::pair<std::string, int>, std::set<std::thread::id>> threads;

  void Record(const std::string& udf, int worker) {
    std::lock_guard<std::mutex> lock(mu);
    threads[{udf, worker}].insert(std::this_thread::get_id());
  }
};

/// A pass-through table UDF that logs the thread of its Open, every
/// Consume and its Finish.
class ThreadRecordingUdf final : public TableUdf {
 public:
  ThreadRecordingUdf(std::string name, UdfThreadLog* log)
      : name_(std::move(name)), log_(log) {}

  Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                         const std::vector<Value>&) override {
    if (input_schema == nullptr) {
      return Status::InvalidArgument("needs an input relation");
    }
    return input_schema;
  }

  Result<TableUdfPartitionPtr> Open(const TableUdfContext& context) override {
    class Partition final : public TableUdfPartition {
     public:
      Partition(const ThreadRecordingUdf* udf, int worker)
          : udf_(udf), worker_(worker) {
        udf_->log_->Record(udf_->name_, worker_);
      }
      Status Consume(Row row, RowSink* output) override {
        udf_->log_->Record(udf_->name_, worker_);
        return output->Push(std::move(row));
      }
      Status Finish(RowSink*) override {
        udf_->log_->Record(udf_->name_, worker_);
        return Status::OK();
      }

     private:
      const ThreadRecordingUdf* udf_;
      int worker_;
    };
    return TableUdfPartitionPtr(new Partition(this, context.worker_id));
  }

 private:
  std::string name_;
  UdfThreadLog* log_;
};

/// A chain of two UDFs runs on the SQL workers' own threads: one thread per
/// worker for both UDFs, and each partition's calls all on its worker's.
TEST_F(SqlEngineTest, ChainedTableUdfsRunOnTheWorkerThreads) {
  constexpr size_t kRows = 3 * kSqlBatchRows + 5;
  AddCountingTable("numbers", kRows);
  UdfThreadLog log;
  for (const char* name : {"record_inner", "record_outer"}) {
    ASSERT_TRUE(engine_->table_udfs()
                    ->Register(name,
                               [name, &log] {
                                 return std::make_shared<ThreadRecordingUdf>(
                                     name, &log);
                               })
                    .ok());
  }
  auto rows = Run(
      "SELECT x FROM TABLE(record_outer((SELECT * FROM "
      "TABLE(record_inner(numbers)))))");
  EXPECT_EQ(rows.size(), kRows);
  ASSERT_EQ(log.threads.size(), 8u);  // 2 UDFs x 4 workers.
  std::set<std::thread::id> all;
  for (const auto& [partition, threads] : log.threads) {
    EXPECT_EQ(threads.size(), 1u)
        << partition.first << " worker " << partition.second;
    all.insert(threads.begin(), threads.end());
  }
  EXPECT_EQ(all.size(), 4u);
}

/// Cancellation reaches a query while a table UDF is still reading its
/// input: the UDF operator polls between its input's batches, so a UDF
/// that emits only at the end of its partition does not run it out.
TEST_F(SqlEngineTest, CancellationStopsATableUdfInsideItsInput) {
  AddCountingTable("big", 100 * kSqlBatchRows);
  ASSERT_TRUE(engine_->table_udfs()
                  ->Register("count_at_end",
                             [] { return std::make_shared<PartitionCounterUdf>(); })
                  .ok());
  ScopedFailpoint pace("sql.exec.batch", "delay(20)");
  Cancellation cancellation;
  QueryOptions options;
  options.cancellation = &cancellation;
  std::thread canceller([&cancellation] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cancellation.Cancel(Status::Cancelled("udf query cancelled"));
  });
  auto result = engine_->ExecuteSql(
      "SELECT * FROM TABLE(count_at_end(big))", "result", options);
  canceller.join();
  ASSERT_FALSE(result.ok()) << "the UDF read its whole input";
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
}

TEST_F(SqlEngineTest, CatalogOperations) {
  EXPECT_TRUE(engine_->catalog()->HasTable("CARTS"));  // Case-insensitive.
  EXPECT_EQ(engine_->catalog()->ListTables().size(), 2u);
  EXPECT_TRUE(engine_->catalog()->DropTable("carts").ok());
  EXPECT_FALSE(engine_->catalog()->HasTable("carts"));
  EXPECT_TRUE(engine_->catalog()->DropTable("carts").IsNotFound());
}

/// Golden corpus queries against their committed .expected files (which
/// sql_differential_test also holds the oracle to).
class CorpusGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("sql_corpus");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);
    RegisterCorpusTables(engine_.get());
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(CorpusGoldenTest, QueriesMatchCommittedGoldens) {
  auto corpus = LoadQueryCorpus();
  ASSERT_GE(corpus.size(), 14u);
  for (const CorpusQuery& query : corpus) {
    SCOPED_TRACE(query.name);
    auto result = engine_->ExecuteSql(query.sql);
    ASSERT_TRUE(result.ok()) << query.sql << " -> " << result.status();
    auto golden = ReadFileToString(query.expected_path);
    ASSERT_TRUE(golden.ok())
        << query.expected_path
        << " missing; regenerate via sql_differential_test with "
           "SQLINK_UPDATE_GOLDENS=1";
    EXPECT_EQ(CanonicalResult((*result)->GatherRows()), *golden) << query.sql;
  }
}

/// EXPLAIN goldens: the rendered plan (shape, join strategy, estimates,
/// costs) for every corpus query is pinned in <name>.explain.expected.
/// Regenerate with SQLINK_UPDATE_GOLDENS=1.
TEST_F(CorpusGoldenTest, ExplainPlansMatchCommittedGoldens) {
  auto corpus = LoadQueryCorpus();
  ASSERT_GE(corpus.size(), 14u);
  const bool update = EnvInt64("SQLINK_UPDATE_GOLDENS", 0) != 0;
  for (const CorpusQuery& query : corpus) {
    SCOPED_TRACE(query.name);
    auto plan = engine_->ExplainSql(query.sql);
    ASSERT_TRUE(plan.ok()) << query.sql << " -> " << plan.status();

    const std::string golden_path =
        std::string(SQLINK_QUERY_DIR) + "/" + query.name + ".explain.expected";
    if (update) {
      ASSERT_TRUE(WriteFileAtomic(golden_path, *plan).ok());
      continue;
    }
    auto golden = ReadFileToString(golden_path);
    ASSERT_TRUE(golden.ok())
        << golden_path << " missing; regenerate with SQLINK_UPDATE_GOLDENS=1";
    EXPECT_EQ(*plan, *golden) << query.sql;
  }
}

/// LIMIT pulls whole batches but returns exactly min(n, rows) rows, each a
/// row of the unlimited result, on both sides of the 1024-row batch edge,
/// over a scan and over a join.
TEST_F(CorpusGoldenTest, LimitAcrossBatchBoundaries) {
  const char* const queries[] = {
      "SELECT k, v, s, flag FROM e1025",
      "SELECT e.k, e.v, e.s, d.label FROM e1025 e JOIN dims d ON e.k = d.k",
  };
  for (const char* query : queries) {
    auto all = engine_->ExecuteSql(query);
    ASSERT_TRUE(all.ok()) << query << " -> " << all.status();
    std::multiset<std::string> unlimited;
    for (const Row& row : (*all)->GatherRows()) {
      unlimited.insert(CanonicalRow(row));
    }
    for (const size_t n : {0, 1, 1023, 1024, 1025, 5000}) {
      const std::string sql = std::string(query) + " LIMIT " + std::to_string(n);
      SCOPED_TRACE(sql);
      auto limited = engine_->ExecuteSql(sql);
      ASSERT_TRUE(limited.ok()) << limited.status();
      const std::vector<Row> rows = (*limited)->GatherRows();
      EXPECT_EQ(rows.size(), std::min(n, unlimited.size()));
      std::multiset<std::string> left = unlimited;
      for (const Row& row : rows) {
        auto it = left.find(CanonicalRow(row));
        ASSERT_NE(it, left.end()) << "not in the unlimited result: "
                                  << CanonicalRow(row);
        left.erase(it);
      }
    }
  }
}

/// Aggregate cardinality estimates come from the group keys' catalog NDVs
/// (one row without GROUP BY), so EXPLAIN ANALYZE's root q-error stays small
/// for a few-group GROUP BY that the input/10 guess would miss by far.
TEST_F(CorpusGoldenTest, ExplainAnalyzeGroupByRootQErrorIsSmall) {
  const char* const queries[] = {
      "SELECT flag, COUNT(*), SUM(v) FROM e1025 GROUP BY flag",
      "SELECT s, flag, COUNT(*) FROM e1024 GROUP BY s, flag",
      "SELECT COUNT(*), SUM(v) FROM e1025",
  };
  for (const char* query : queries) {
    SCOPED_TRACE(query);
    auto analyzed = engine_->ExecuteSql(std::string("EXPLAIN ANALYZE ") +
                                        query);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status();
    const std::string root = (*analyzed)->partition(0)[0][0].string_value();
    EXPECT_NE(root.find("Aggregate"), std::string::npos) << root;
    const size_t q = root.find("q=");
    ASSERT_NE(q, std::string::npos) << root;
    EXPECT_LE(std::stod(root.substr(q + 2)), 4.0) << root;
  }
}

}  // namespace
}  // namespace sqlink
